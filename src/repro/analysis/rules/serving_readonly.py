"""RPR008 — serving-readonly: the serving tier never writes warehouse state.

The serving cache (``repro.serving``) sits *beside* the maintenance
pipeline: it observes invalidation streams and reads ``view_state()``
snapshots, but the consistency proofs (Appendix B, and the sharded
variants) only hold if every view write flows through
:func:`repro.kernel.dispatch.dispatch_event`.  A serving module that
calls ``apply_delta`` / ``replace`` / ``key_delete``, rebinds a
catalog's algorithm table, or pushes messages onto a channel is a second
writer the proofs know nothing about — reads would diverge from the
event sequence in ways no staleness bound describes.

Scope: every module in the ``repro.serving`` package.
"""

from __future__ import annotations

import ast
from typing import Iterator, Tuple

from repro.analysis.effects import ProjectAnalysis
from repro.analysis.engine import FileContext, Rule, register
from repro.analysis.findings import Finding
from repro.analysis.rules.common import dotted_name, iter_calls, module_of

#: Mutating MaterializedView / catalog entry points.
_WRITE_METHODS = ("apply_delta", "key_delete")

#: ``.replace`` is also a (very common) str method; only flag it when the
#: receiver's dotted path mentions warehouse-state vocabulary.
_STATE_HINTS = (
    "mv",
    "warehouse",
    "catalog",
    "algorithm",
    "algorithms",
    "view",
    "state",
    "contents",
    "source",
)

#: Channel egress: the serving tier consumes snapshots and invalidation
#: streams, it never originates protocol traffic.
_SEND_METHODS = ("send", "send_nowait", "put", "put_nowait")

#: Attribute rebinds that would swap warehouse structure out from under
#: the maintenance pipeline.
_REBIND_ATTRS = ("algorithms", "mv")


def _receiver_parts(node: ast.Attribute) -> Tuple[str, ...]:
    name = dotted_name(node.value)
    return tuple(name.split(".")) if name else ()


@register
class ServingReadOnlyRule(Rule):
    rule_id = "RPR008"
    title = "serving-layer modules are read-only over warehouse state"

    def applies_to(self, path: str) -> bool:
        module = module_of(path)
        return len(module) >= 2 and module[1] == "serving"

    def check(self, analysis: ProjectAnalysis) -> Iterator[Finding]:
        for context in self.contexts(analysis):
            yield from self._check_tree(context)

    def _check_tree(self, context: FileContext) -> Iterator[Finding]:
        for call in iter_calls(context.tree):
            if not isinstance(call.func, ast.Attribute):
                continue
            attr = call.func.attr
            if attr in _WRITE_METHODS:
                yield context.finding(
                    call,
                    self.rule_id,
                    f".{attr}() writes materialized-view state; the serving "
                    f"tier is read-only — all view writes go through "
                    f"repro.kernel.dispatch",
                )
            elif attr == "replace" and any(
                part.lstrip("_") in _STATE_HINTS
                for part in _receiver_parts(call.func)
            ):
                yield context.finding(
                    call,
                    self.rule_id,
                    ".replace() on warehouse state installs a whole new "
                    "view from outside the maintenance pipeline",
                )
            elif attr in _SEND_METHODS:
                yield context.finding(
                    call,
                    self.rule_id,
                    f".{attr}() is channel egress; the serving tier "
                    f"observes the warehouse, it never sends",
                )
        for node in ast.walk(context.tree):
            if not isinstance(node, (ast.Assign, ast.AugAssign)):
                continue
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                if (
                    isinstance(target, ast.Attribute)
                    and target.attr in _REBIND_ATTRS
                ):
                    yield context.finding(
                        node,
                        self.rule_id,
                        f"rebinding .{target.attr} swaps warehouse "
                        f"structure out from under the maintenance "
                        f"pipeline; the serving tier must not own it",
                    )
