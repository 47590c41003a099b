"""RPR002 — determinism: no wall clock, no unseeded randomness.

The whole reproduction rests on runs being replayable: virtual-time
transports, ``conformance.replay_concurrent``, and WAL recovery all
assume that the same seeds and inputs reproduce the identical event
sequence.  One ``time.time()`` in a scheduling decision or one
module-level ``random.random()`` breaks all three at once — and does so
silently, which is precisely the anomaly shape the paper warns about.

Banned inside ``src/repro/`` (outside the CLI surface):

- ``time.time`` / ``time.time_ns`` / ``time.monotonic`` /
  ``time.monotonic_ns`` (``time.perf_counter`` stays legal: the harness
  uses it for the wall-seconds *metric*, which never feeds scheduling);
- ``datetime.now`` / ``datetime.utcnow`` / ``datetime.today`` /
  ``date.today``;
- the module-level ``random.*`` functions (shared, unseeded state) —
  construct a seeded ``random.Random(seed)`` instead; ``SystemRandom``
  and ``os.urandom`` are banned for the same reason.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.effects import (
    CLOCK,
    RANDOMNESS,
    ProjectAnalysis,
    seed_effects,
)
from repro.analysis.engine import FileContext, Rule, register
from repro.analysis.findings import Finding
from repro.analysis.rules.common import (
    call_name,
    in_repro_package,
    is_cli_module,
    iter_calls,
)

_WHY = {
    CLOCK: "reads the wall clock; deterministic code takes timestamps "
    "from the virtual clock or its caller",
    RANDOMNESS: "draws unseedable or shared unseeded randomness; derive "
    "a private random.Random(seed) from the run seed instead",
}


@register
class DeterminismRule(Rule):
    rule_id = "RPR002"
    title = "no wall-clock or unseeded randomness inside src/repro"

    def applies_to(self, path: str) -> bool:
        return in_repro_package(path) and not is_cli_module(path)

    def check(self, analysis: ProjectAnalysis) -> Iterator[Finding]:
        for context in self.contexts(analysis):
            yield from self._check_imports(context)
            for call in iter_calls(context.tree):
                name = call_name(call)
                if name is None:
                    continue
                for effect in sorted(_WHY.keys() & seed_effects(name)):
                    yield context.finding(
                        call,
                        self.rule_id,
                        f"{name}() {_WHY[effect]} — virtual-time runs, "
                        f"replay_concurrent, and WAL recovery all require "
                        f"seeded determinism",
                    )

    def _check_imports(self, context: FileContext) -> Iterator[Finding]:
        for node in ast.walk(context.tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.module == "random":
                for alias in node.names:
                    if alias.name != "Random":
                        yield context.finding(
                            node,
                            self.rule_id,
                            f"from random import {alias.name} pulls in the "
                            f"shared unseeded RNG; import random.Random and "
                            f"seed it",
                        )
            elif node.module == "os":
                for alias in node.names:
                    if alias.name == "urandom":
                        yield context.finding(
                            node,
                            self.rule_id,
                            "from os import urandom is unseedable OS "
                            "entropy; derive randomness from the run seed",
                        )
