"""RPR007 — partitioner purity: ``shard_of`` is a pure function of the key.

Sharding correctness leans on one static property: a partitioner maps a
view key to the same shard every time it is asked, in every process.
The plan is computed once per run, but *recovery re-plans from the same
catalog* and must land every view on the shard whose WAL holds its
history, and the conformance suite replays merged shard logs against a
baseline that assumes stable ownership.  A partitioner that consults a
clock, an RNG, process-salted ``hash()``, or its own mutable state
breaks all of that silently — the run still completes, just with views
maintained against the wrong shard's log.

Checked inside any class whose name (or base class) ends with
``Partitioner``, in the body of ``shard_of``:

- no wall-clock or randomness calls (``time.*``, ``datetime.now`` and
  friends, ``random.*`` — *including* seeded RNGs, whose output depends
  on call order, and ``os.urandom``);
- no builtin ``hash()``: Python salts string hashing per process, so the
  same catalog scatters differently on every run (use a content hash
  such as ``zlib.crc32`` over a canonical encoding);
- no mutation of ``self`` state — assignments, ``del`` or container
  mutators through a ``self`` chain (a ``shard_of`` that mutates its
  partitioner is a function of history, not of the key);
- no ``global`` / ``nonlocal`` declarations (captured mutable state).

The call checks run over the whole-program model: a ``shard_of`` that
calls a banned name, or a resolved helper whose inferred effects include
a clock, randomness, or mutation of the partitioner's own state, is one
finding either way (the message carries the witness chain).  The
``self``-mutation and ``global`` checks are plain syntax of the method
body (the same ``self_mutations`` walk that seeds the inferred effect).
"""

from __future__ import annotations

import ast
from itertools import chain
from typing import Iterator

from repro.analysis.effects import (
    CLOCK,
    MUTATES_SELF,
    RANDOMNESS,
    ProjectAnalysis,
    self_mutations,
)
from repro.analysis.engine import FileContext, Rule, register
from repro.analysis.findings import Finding
from repro.analysis.project import FunctionInfo
from repro.analysis.rules.common import (
    impure_calls,
    in_repro_package,
    named_like,
)

_METHOD = "shard_of"

_REASONS = {
    CLOCK: "a clock",
    RANDOMNESS: "randomness (even seeded: its output depends on call "
    "order) or process-salted hash()",
    MUTATES_SELF: "mutation of the partitioner's own state",
}


@register
class PartitionerPurityRule(Rule):
    rule_id = "RPR007"
    title = "Partitioner.shard_of is a deterministic pure function of the key"

    def applies_to(self, path: str) -> bool:
        return in_repro_package(path)

    def check(self, analysis: ProjectAnalysis) -> Iterator[Finding]:
        for context in self.contexts(analysis):
            for function in analysis.functions_in(context):
                klass = analysis.project.class_of(function)
                if (
                    function.name != _METHOD
                    or klass is None
                    or not named_like(klass.node, "Partitioner")
                ):
                    continue
                calls = impure_calls(
                    self,
                    analysis,
                    context,
                    function,
                    _REASONS,
                    "recovery re-plans from the same catalog and must "
                    "reproduce the identical assignment",
                )
                # ``self.index.add(key)`` on a project class is both an
                # impure call and a container mutator: report it once.
                seen = set()
                for finding in chain(calls, self._check_state(context, function)):
                    if (finding.line, finding.col) not in seen:
                        seen.add((finding.line, finding.col))
                        yield finding

    def _check_state(
        self, context: FileContext, function: FunctionInfo
    ) -> Iterator[Finding]:
        where = function.display
        for node, what in self_mutations(ast.walk(function.node)):
            yield context.finding(
                node,
                self.rule_id,
                f"{where} {what}: a partitioner that mutates its own state "
                f"places keys by history, not by value",
            )
        for node in ast.walk(function.node):
            if isinstance(node, (ast.Global, ast.Nonlocal)):
                kind = "global" if isinstance(node, ast.Global) else "nonlocal"
                yield context.finding(
                    node,
                    self.rule_id,
                    f"{where} declares {kind} {', '.join(node.names)}: "
                    f"captured mutable state makes placement call-order "
                    f"dependent",
                )
