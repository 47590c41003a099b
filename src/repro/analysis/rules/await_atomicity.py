"""RPR011 — await-atomicity: no yield between mutation and WAL append.

The warehouse's durability story (PR 4, ``docs/DURABILITY.md``) treats
one dispatched event as *atomic*: :func:`repro.kernel.dispatch.
dispatch_event` advances the algorithm state machine, and the actor then
appends the matching WAL record.  Between those two points the actor
must not ``await``: a yield hands the scheduler to another coroutine,
which can observe (or worse, crash) a warehouse whose in-memory state
has advanced past its durable log.  Recovery then replays the WAL into
a state that never existed — the silent-divergence failure mode the
whole conformance suite exists to rule out.

Scope: async methods of classes whose name ends with ``Actor`` inside
``repro.runtime`` and ``repro.sharding`` (shard actors reuse
``WarehouseActor``, so both layers are covered).

Mechanics: using the whole-program effect inference, collect every call
whose effects include ``state-mutation`` (directly — ``dispatch_event``,
``on_update`` and friends — or transitively through a resolved helper),
every call whose effects include ``wal-append`` (and not
``state-mutation``: a call that does both is internally consistent),
and every ``await`` expression.  An ``await`` lexically between a
mutation and the *next* WAL append after it is the violation.

The ``logged-before-dispatched`` direction (RECV appended before
``dispatch_event`` runs) is already safe by construction: the append
precedes the mutation, so no window exists.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Tuple

from repro.analysis.effects import STATE, WAL, ProjectAnalysis
from repro.analysis.engine import Rule, register
from repro.analysis.findings import Finding
from repro.analysis.rules.common import in_packages, pos, walk_body

#: The actor layers: everything that owns a WAL handle.
_ACTOR_PACKAGES = ("runtime", "sharding")


def _end_pos(node: ast.AST) -> Tuple[int, int]:
    return (
        getattr(node, "end_lineno", None) or getattr(node, "lineno", 0),
        getattr(node, "end_col_offset", None) or 0,
    )


def _awaits_in(node: ast.AST) -> List[ast.Await]:
    found = [
        child for child in walk_body(node) if isinstance(child, ast.Await)
    ]
    found.sort(key=pos)
    return found


@register
class AwaitAtomicityRule(Rule):
    rule_id = "RPR011"
    title = "actors never await between a state mutation and its WAL append"

    def applies_to(self, path: str) -> bool:
        return in_packages(path, _ACTOR_PACKAGES)

    def check(self, analysis: ProjectAnalysis) -> Iterator[Finding]:
        for context in self.contexts(analysis):
            for function in analysis.functions_in(context):
                if not function.is_async or function.class_name is None:
                    continue
                if not function.class_name.endswith("Actor"):
                    continue
                sites = analysis.sites_of(function)
                mutations = []
                appends = []
                for site in sites:
                    effects = analysis.call_effects(site)
                    if STATE in effects:
                        mutations.append(site)
                    elif WAL in effects:
                        appends.append(site)
                if not mutations or not appends:
                    continue
                awaits = _awaits_in(function.node)
                flagged = set()
                for mutation in mutations:
                    start = _end_pos(mutation.node)
                    following = [
                        append
                        for append in appends
                        if pos(append.node) > start
                    ]
                    if not following:
                        continue
                    stop = min(pos(append.node) for append in following)
                    append_line = min(
                        append.line
                        for append in following
                        if pos(append.node) == stop
                    )
                    for awaited in awaits:
                        where = pos(awaited)
                        if not (start < where < stop):
                            continue
                        if id(awaited) in flagged:
                            continue
                        flagged.add(id(awaited))
                        yield context.finding(
                            awaited,
                            self.rule_id,
                            f"{function.display} awaits between the state "
                            f"mutation at line {mutation.line} "
                            f"({mutation.raw}) and its WAL append at line "
                            f"{append_line}: a yield here lets other "
                            f"coroutines observe state the log does not "
                            f"hold yet — append the WAL record before "
                            f"awaiting",
                        )
