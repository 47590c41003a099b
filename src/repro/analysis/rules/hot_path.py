"""RPR009 — hot-path: no per-tuple wrapper objects inside operator loops.

The columnar refactor's whole performance story is that the relational
hot path (``repro.relational.engine``, ``.columns``, ``.batch_ops``)
moves data as parallel column lists driven by C-speed ``map``/
``compress`` passes.  One ``SignedTuple(...)`` or ``BoundOperand(...)``
constructed inside a join or filter loop quietly reintroduces a Python
object allocation per candidate row — the exact overhead the refactor
removed, and invisible in tests because the results stay correct.

Banned inside loop bodies (``for``/``while`` and comprehensions) of the
hot-path modules: constructing ``SignedTuple``, ``BoundOperand``,
``RelationOperand``, ``Term``, or ``Query``.  Constructing them *outside*
a loop (planning, batch boundaries) is fine — plans are built once per
term, not once per row.  ``repro.relational.bag`` is deliberately out of
scope: ``SignedBag.signed_tuples()`` is the documented per-tuple
*interface*, not the operator hot path.
"""

from __future__ import annotations

import ast
from typing import Iterator, Tuple

from repro.analysis.effects import ProjectAnalysis
from repro.analysis.engine import FileContext, Rule, register
from repro.analysis.findings import Finding
from repro.analysis.rules.common import call_name, module_of

#: Modules whose operator loops must stay wrapper-free.
_HOT_PATH_MODULES = (
    ("repro", "relational", "engine"),
    ("repro", "relational", "columns"),
    ("repro", "relational", "batch_ops"),
)

#: Per-tuple wrapper constructors (by class name, however imported).
_WRAPPERS = ("SignedTuple", "BoundOperand", "RelationOperand", "Term", "Query")

_LOOPS = (ast.For, ast.AsyncFor, ast.While)
_COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _loop_bodies(tree: ast.AST) -> Iterator[Tuple[str, ast.AST]]:
    """Every AST region that executes once per iteration.

    Yields ``(kind, node)`` where walking ``node`` covers exactly the
    per-iteration code: the statements of a ``for``/``while`` body, or a
    whole comprehension (its element and condition expressions all run
    per item).
    """
    for node in ast.walk(tree):
        if isinstance(node, _LOOPS):
            for statement in node.body + node.orelse:
                yield type(node).__name__.lower(), statement
        elif isinstance(node, _COMPREHENSIONS):
            yield "comprehension", node


@register
class HotPathRule(Rule):
    rule_id = "RPR009"
    title = "no per-tuple wrapper construction in relational hot-path loops"

    def applies_to(self, path: str) -> bool:
        return module_of(path) in _HOT_PATH_MODULES

    def check(self, analysis: ProjectAnalysis) -> Iterator[Finding]:
        for context in self.contexts(analysis):
            yield from self._check_tree(context)

    def _check_tree(self, context: FileContext) -> Iterator[Finding]:
        seen = set()
        for kind, region in _loop_bodies(context.tree):
            for node in ast.walk(region):
                if not isinstance(node, ast.Call):
                    continue
                name = call_name(node)
                if name is None:
                    continue
                leaf = name.split(".")[-1]
                if leaf not in _WRAPPERS:
                    continue
                key = (node.lineno, node.col_offset)
                if key in seen:
                    # Nested loops walk overlapping regions; report the
                    # allocation once.
                    continue
                seen.add(key)
                yield context.finding(
                    node,
                    self.rule_id,
                    f"{leaf}(...) constructed inside a {kind} body: the "
                    f"relational hot path must move data as column "
                    f"batches, not per-tuple wrapper objects — hoist the "
                    f"construction out of the loop or use the batch "
                    f"operators",
                )
