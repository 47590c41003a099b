"""RPR010 — planner purity: shared-compensation planning is deterministic.

The shared-compensation engine's byte-identity guarantee (``docs/
MULTIVIEW.md``) rests on two static properties.  First, canonical term
signatures (:mod:`repro.relational.signature`) must be pure functions of
the query expression — the WAL replays planning after a crash and the
conformance suite replays action logs, and both must regroup members
into the *identical* shared queries.  Second, the
:class:`~repro.warehouse.planner.CompensationPlanner` is a bookkeeping
component behind the catalog, not an actor: it must never touch a
channel, a clock, or a random number, because its decisions are part of
the algorithm state the codec persists and recovery reconstructs.

Checked inside any class whose name (or base class) ends with
``Planner`` and in every function of a ``signature`` module:

- no wall-clock or randomness calls (``time.*``, ``datetime.now`` and
  friends, ``random.*`` — *including* seeded RNGs, whose output depends
  on call order — and ``os.urandom``);
- no builtin ``hash()``: Python salts string hashing per process, so the
  same query would group differently on every run (signatures are
  structural tuples compared by value instead);
- no channel I/O (``FifoChannel`` construction or ``.send()`` /
  ``.receive()`` calls): the planner returns routed pairs and the
  kernels ship them, exactly like every algorithm (cf. RPR004).

Unlike RPR007, mutating ``self`` is *allowed*: the planner legitimately
owns mutable route state (``plan`` installs routes, ``retire`` pops
them); what must be pure is the mapping from queries to groups, not the
bookkeeping around it.

One loop over every call site in scope: a banned name called directly
and a resolved helper whose inferred effects include a clock,
randomness, or channel I/O are the same finding — the transitive
fixture's message carries the witness chain down to the seeded name.
"""

from __future__ import annotations

from typing import Iterator

from repro.analysis.effects import CHANNEL, CLOCK, RANDOMNESS, ProjectAnalysis
from repro.analysis.engine import Rule, register
from repro.analysis.findings import Finding
from repro.analysis.rules.common import (
    impure_calls,
    in_repro_package,
    module_of,
    named_like,
)

_REASONS = {
    CLOCK: "a clock",
    RANDOMNESS: "randomness (even seeded: its output depends on call "
    "order) or process-salted hash()",
    CHANNEL: "channel I/O (the kernels' job, never planning code's)",
}


@register
class PlannerPurityRule(Rule):
    rule_id = "RPR010"
    title = "CompensationPlanner and signature code plan deterministically"

    def applies_to(self, path: str) -> bool:
        return in_repro_package(path)

    def check(self, analysis: ProjectAnalysis) -> Iterator[Finding]:
        for context in self.contexts(analysis):
            # Signature modules are checked whole: every function is part
            # of the canonical-form computation.
            signature_module = module_of(context.path)[-1:] == ("signature",)
            for function in analysis.functions_in(context):
                klass = analysis.project.class_of(function)
                if not signature_module and (
                    klass is None or not named_like(klass.node, "Planner")
                ):
                    continue
                yield from impure_calls(
                    self,
                    analysis,
                    context,
                    function,
                    _REASONS,
                    "planning must be a pure function of the query so WAL "
                    "replay regroups identically",
                )
