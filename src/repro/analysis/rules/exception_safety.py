"""RPR012 — exception-safety: handlers validate before mutating state.

A protocol handler (``on_update`` / ``on_answer`` / ``handle_*``) that
pops its pending-query bookkeeping *and then* raises on a validation
failure leaves the algorithm in a state no legal execution produces:
the UQS entry is gone but no routed return was built, so compensation
never fires and recovery replays into the same half-mutated shape.
Section 4's correctness argument assumes every event either completes
or leaves the state untouched — validate first, mutate after.

Scope: methods named ``on_update`` / ``on_update_batch`` / ``on_answer``
/ ``on_refresh`` or ``handle_*`` on classes in the algorithm layers
(``repro.core``, ``repro.multisource``, ``repro.warehouse``).

Mechanics: within one handler body (nested defs excluded), find the
first *mutation* — an assignment/``del`` targeting a ``self`` chain, a
container mutator (``.pop()``, ``.update()``, …) on a ``self`` chain,
or a ``self.method()`` call whose inferred effects include state or
self mutation (the whole-program part: ``self._retire(...)`` counts
even though the pops live two files away).  Every ``raise`` statement
lexically after it is flagged — *except* raises inside ``except``
handlers, which are the legitimate translate-and-reraise idiom
(``try: pop / except KeyError: raise ProtocolError``): the pop that
failed did not mutate anything.
"""

from __future__ import annotations

import ast
from typing import Iterator, List

from repro.analysis.effects import (
    MUTATES_SELF,
    STATE,
    ProjectAnalysis,
    self_mutations,
)
from repro.analysis.engine import FileContext, Rule, register
from repro.analysis.findings import Finding
from repro.analysis.project import FunctionInfo, dotted_name
from repro.analysis.rules.common import (
    ALGORITHM_PACKAGES,
    in_packages,
    pos,
    walk_body,
)

_HANDLER_NAMES = frozenset(
    {"on_update", "on_update_batch", "on_answer", "on_refresh"}
)


def _is_handler(name: str) -> bool:
    return name in _HANDLER_NAMES or name.startswith("handle_")


def _raises_outside_handlers(
    body: List[ast.stmt],
) -> List[ast.Raise]:
    """Every ``raise`` in execution position, skipping except-handler
    bodies and nested function/class definitions."""
    found: List[ast.Raise] = []

    def visit(statements: List[ast.stmt]) -> None:
        for stmt in statements:
            if isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue
            if isinstance(stmt, ast.Raise):
                found.append(stmt)
                continue
            if isinstance(stmt, ast.Try):
                visit(stmt.body)
                visit(stmt.orelse)
                visit(stmt.finalbody)
                continue  # handler bodies are the legal reraise idiom
            for attr in ("body", "orelse", "finalbody"):
                nested = getattr(stmt, attr, None)
                if isinstance(nested, list):
                    visit(nested)

    visit(body)
    found.sort(key=pos)
    return found


def _raised_name(node: ast.Raise) -> str:
    exc = node.exc
    if isinstance(exc, ast.Call):
        name = dotted_name(exc.func)
    else:
        name = dotted_name(exc) if exc is not None else None
    return name or "an exception"


@register
class ExceptionSafetyRule(Rule):
    rule_id = "RPR012"
    title = "protocol handlers validate before mutating algorithm state"

    def applies_to(self, path: str) -> bool:
        return in_packages(path, ALGORITHM_PACKAGES)

    def check(self, analysis: ProjectAnalysis) -> Iterator[Finding]:
        for context in self.contexts(analysis):
            for function in analysis.functions_in(context):
                if function.class_name is None:
                    continue
                if not _is_handler(function.name):
                    continue
                yield from self._check_handler(analysis, context, function)

    def _check_handler(
        self,
        analysis: ProjectAnalysis,
        context: FileContext,
        function: FunctionInfo,
    ) -> Iterator[Finding]:
        mutations = [
            (pos(node), what)
            for node, what in self_mutations(walk_body(function.node))
        ]
        for site in analysis.sites_of(function):
            if not site.self_receiver or site.target is None:
                continue
            if analysis.call_effects(site) & {STATE, MUTATES_SELF}:
                mutations.append((pos(site.node), f"mutates via {site.raw}()"))
        if not mutations:
            return
        mutated_at, what = min(mutations)
        mutation_line = mutated_at[0]
        for raised in _raises_outside_handlers(function.node.body):
            if pos(raised) <= mutated_at:
                continue
            yield context.finding(
                raised,
                self.rule_id,
                f"{function.display} raises {_raised_name(raised)} after "
                f"it {what} at line {mutation_line}: a handler that "
                f"mutates and then raises leaves UQS/pending state "
                f"half-applied for compensation and recovery — validate "
                f"before mutating",
            )
