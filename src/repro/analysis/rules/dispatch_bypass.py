"""RPR004 — dispatch-bypass: algorithms never touch channels directly.

PR 4's contract is that :func:`repro.kernel.dispatch.dispatch_event` is
the *one* place messages meet algorithms, and the kernels own all
channel I/O.  An algorithm that constructs a ``FifoChannel`` or calls
``.send()`` / ``.receive()`` itself bypasses the per-source FIFO
bookkeeping, the WAL's logged-before-dispatched ordering, and the trace
records every checker consumes — the resulting run *looks* fine and
replays differently, the exact silent-divergence failure mode the
conformance suite exists to rule out.

Scope: the algorithm-implementation layers ``repro.core``,
``repro.multisource``, and ``repro.warehouse``.  (The kernels, the
transports, and the messaging package itself are the channel owners and
stay out of scope.)

One loop over every call site in scope: ``analysis.call_effects(site)``
joins the by-name seed (``FifoChannel`` construction, ``.send()`` /
``.receive()``) with the inferred effects of the resolved target, so a
direct bypass and one laundered through a helper are reported alike —
the message names the seeded call or the witness chain down to it.
"""

from __future__ import annotations

from typing import Iterator

from repro.analysis.effects import CHANNEL, ProjectAnalysis
from repro.analysis.engine import Rule, register
from repro.analysis.findings import Finding
from repro.analysis.rules.common import ALGORITHM_PACKAGES, in_packages


@register
class DispatchBypassRule(Rule):
    rule_id = "RPR004"
    title = "algorithm modules route all I/O through repro.kernel.dispatch"

    def applies_to(self, path: str) -> bool:
        return in_packages(path, ALGORITHM_PACKAGES)

    def check(self, analysis: ProjectAnalysis) -> Iterator[Finding]:
        for context in self.contexts(analysis):
            for function in analysis.functions_in(context):
                for site in analysis.sites_of(function):
                    if CHANNEL not in analysis.call_effects(site):
                        continue
                    yield context.finding(
                        site.node,
                        self.rule_id,
                        f"{function.display} performs channel I/O through "
                        f"{analysis.explain(site, CHANNEL)}; algorithms "
                        f"return routed (destination, request) pairs and "
                        f"let repro.kernel.dispatch ship them",
                    )
