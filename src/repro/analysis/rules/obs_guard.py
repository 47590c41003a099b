"""RPR005 — obs-guard: observability access dominated by None checks.

The observability layer's contract (PR 3) is that ``obs=None`` costs one
``is None`` check per hook site — which is only true if *every* hook
site performs that check.  An unguarded ``obs.hook(...)`` works in every
instrumented test and then raises ``AttributeError`` on the first
uninstrumented production run; worse, it raises mid-atomic-event,
leaving the warehouse in a half-dispatched state the WAL has already
logged.  This rule proves the guard discipline statically.

An *obs expression* is a name or attribute matching ``obs`` / ``_obs``
/ ``self.obs`` / ``self._obs``.  Dereferencing one (accessing any
attribute of it) is legal only where a dominating check proves it is not
None:

- inside ``if OBS is not None:`` (including ``and`` chains);
- after an early exit: ``if OBS is None: return`` (or raise/continue);
- in the true arm of ``X if OBS is not None else Y``;
- after ``assert OBS is not None`` or ``OBS = <constructor call>``.

Aliases propagate (``obs = self._obs`` starts unguarded; guarding the
alias guards the alias).  The ``repro.obs`` package itself is exempt —
it is the *implementation*, not a call site.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Sequence, Set

from repro.analysis.effects import ProjectAnalysis
from repro.analysis.engine import Rule, register
from repro.analysis.findings import Finding
from repro.analysis.rules.common import dotted_name, in_repro_package, module_of

#: Leaf identifiers that mark an observability handle.
_OBS_NAMES = ("obs", "_obs")


def _obs_key(node: ast.AST) -> Optional[str]:
    """Canonical key for an obs expression, None for anything else."""
    if isinstance(node, ast.Name) and node.id in _OBS_NAMES:
        return node.id
    if isinstance(node, ast.Attribute) and node.attr in _OBS_NAMES:
        base = dotted_name(node.value)
        if base is not None:
            return f"{base}.{node.attr}"
    return None


def _compare_key(test: ast.AST, op_type: type) -> Optional[str]:
    """The obs key of ``KEY is [not] None`` comparisons, else None."""
    if not isinstance(test, ast.Compare) or len(test.ops) != 1:
        return None
    if not isinstance(test.ops[0], op_type):
        return None
    right = test.comparators[0]
    if not (isinstance(right, ast.Constant) and right.value is None):
        return None
    return _obs_key(test.left)


def _not_none_keys(test: ast.AST) -> Set[str]:
    """Keys proven non-None when ``test`` is true."""
    key = _compare_key(test, ast.IsNot)
    if key is not None:
        return {key}
    if isinstance(test, ast.BoolOp) and isinstance(test.op, ast.And):
        keys: Set[str] = set()
        for value in test.values:
            keys |= _not_none_keys(value)
        return keys
    return set()


def _is_none_keys(test: ast.AST) -> Set[str]:
    """Keys proven non-None when ``test`` is FALSE (``KEY is None`` tests)."""
    key = _compare_key(test, ast.Is)
    if key is not None:
        return {key}
    if isinstance(test, ast.BoolOp) and isinstance(test.op, ast.Or):
        keys: Set[str] = set()
        for value in test.values:
            keys |= _is_none_keys(value)
        return keys
    return set()


def _terminates(body: Sequence[ast.stmt]) -> bool:
    return bool(body) and isinstance(
        body[-1], (ast.Return, ast.Raise, ast.Continue, ast.Break)
    )


@register
class ObsGuardRule(Rule):
    rule_id = "RPR005"
    title = "obs hook sites are dominated by `is not None` checks"

    def applies_to(self, path: str) -> bool:
        module = module_of(path)
        if not in_repro_package(path):
            return False
        return not (len(module) >= 2 and module[1] == "obs")

    def check(self, analysis: ProjectAnalysis) -> Iterator[Finding]:
        for context in self.contexts(analysis):
            self._context = context
            self._findings: List[Finding] = []
            self._block(context.tree.body, set())
            yield from self._findings

    # ------------------------------------------------------------------ #
    # Statement-level dominance walk
    # ------------------------------------------------------------------ #

    def _block(self, body: Sequence[ast.stmt], guarded: Set[str]) -> None:
        guarded = set(guarded)
        for stmt in body:
            if isinstance(stmt, ast.If):
                self._expr(stmt.test, guarded)
                self._block(stmt.body, guarded | _not_none_keys(stmt.test))
                none_keys = _is_none_keys(stmt.test)
                self._block(stmt.orelse, guarded | none_keys)
                if none_keys and _terminates(stmt.body) and not stmt.orelse:
                    guarded |= none_keys
            elif isinstance(stmt, ast.Assert):
                self._expr(stmt.test, guarded)
                guarded |= _not_none_keys(stmt.test)
            elif isinstance(stmt, ast.Assign):
                self._expr(stmt.value, guarded)
                self._track_assign(stmt.targets, stmt.value, guarded)
            elif isinstance(stmt, ast.AnnAssign):
                if stmt.value is not None:
                    self._expr(stmt.value, guarded)
                    self._track_assign([stmt.target], stmt.value, guarded)
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # New scope: parameters and closures start unproven.
                self._block(stmt.body, set())
            elif isinstance(stmt, ast.ClassDef):
                self._block(stmt.body, set())
            elif isinstance(stmt, (ast.For, ast.AsyncFor)):
                self._expr(stmt.iter, guarded)
                self._block(stmt.body, guarded)
                self._block(stmt.orelse, guarded)
            elif isinstance(stmt, ast.While):
                self._expr(stmt.test, guarded)
                self._block(stmt.body, guarded | _not_none_keys(stmt.test))
                self._block(stmt.orelse, guarded)
            elif isinstance(stmt, (ast.With, ast.AsyncWith)):
                for item in stmt.items:
                    self._expr(item.context_expr, guarded)
                self._block(stmt.body, guarded)
            elif isinstance(stmt, ast.Try):
                self._block(stmt.body, guarded)
                for handler in stmt.handlers:
                    self._block(handler.body, guarded)
                self._block(stmt.orelse, guarded)
                self._block(stmt.finalbody, guarded)
            else:
                for child in ast.iter_child_nodes(stmt):
                    if isinstance(child, ast.expr):
                        self._expr(child, guarded)

    def _track_assign(
        self,
        targets: Sequence[ast.expr],
        value: ast.expr,
        guarded: Set[str],
    ) -> None:
        """Propagate proof through ``alias = OBS`` / ``obs = Ctor()``."""
        source_key = _obs_key(value)
        proven = (
            source_key in guarded
            if source_key is not None
            else isinstance(value, ast.Call)
        )
        for target in targets:
            key = _obs_key(target)
            if key is None:
                continue
            if proven:
                guarded.add(key)
            else:
                guarded.discard(key)

    # ------------------------------------------------------------------ #
    # Expression-level checks (BoolOp / IfExp short-circuit guards)
    # ------------------------------------------------------------------ #

    def _expr(self, node: ast.expr, guarded: Set[str]) -> None:
        if isinstance(node, ast.BoolOp):
            local = set(guarded)
            for value in node.values:
                self._expr(value, local)
                if isinstance(node.op, ast.And):
                    local |= _not_none_keys(value)
                else:
                    local |= _is_none_keys(value)
            return
        if isinstance(node, ast.IfExp):
            self._expr(node.test, guarded)
            self._expr(node.body, guarded | _not_none_keys(node.test))
            self._expr(node.orelse, guarded | _is_none_keys(node.test))
            return
        if isinstance(node, ast.Attribute):
            key = _obs_key(node.value)
            if key is not None and key not in guarded:
                self._findings.append(
                    self._context.finding(
                        node,
                        self.rule_id,
                        f"{key}.{node.attr} is not dominated by an "
                        f"`{key} is not None` check; every obs hook site "
                        f"must guard (obs=None is the uninstrumented "
                        f"fast path)",
                    )
                )
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                self._expr(child, guarded)
