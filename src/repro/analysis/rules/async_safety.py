"""RPR003 — async-safety: no blocking calls inside actor coroutines.

The runtime's determinism depends on the event loop never stalling: a
``time.sleep`` inside an actor coroutine blocks *every* actor (the
paper's atomic-event interleavings are produced by cooperative yields,
not threads), and synchronous file or subprocess I/O does the same with
an OS-dependent duration — which turns a reproducible interleaving into
a machine-dependent one.  Anything slow belongs either outside the event
loop (the harness measures wall time around ``asyncio.run``) or behind
the transport's virtual clock.

Flagged inside any ``async def`` in ``src/repro/``: ``time.sleep``,
built-in ``open`` (and ``io.open``), every ``subprocess.*`` call, and
``os.system``.  The WAL's buffered appends are invoked through
synchronous helper *methods* and stay out of scope by design — the rule
polices the coroutine bodies the event loop actually runs.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.effects import ProjectAnalysis
from repro.analysis.engine import FileContext, Rule, register
from repro.analysis.findings import Finding
from repro.analysis.rules.common import call_name, in_repro_package, iter_calls

_BLOCKING = {
    "time.sleep": "blocks the entire event loop; await asyncio.sleep "
    "or route delays through the virtual-time transport",
    "open": "synchronous file I/O stalls every actor; do it outside "
    "the event loop or behind a synchronous helper method",
    "io.open": "synchronous file I/O stalls every actor; do it outside "
    "the event loop or behind a synchronous helper method",
    "os.system": "spawning processes from a coroutine blocks the loop "
    "for an OS-dependent duration",
}


@register
class AsyncSafetyRule(Rule):
    rule_id = "RPR003"
    title = "no blocking calls inside async def bodies"

    def applies_to(self, path: str) -> bool:
        return in_repro_package(path)

    def check(self, analysis: ProjectAnalysis) -> Iterator[Finding]:
        for context in self.contexts(analysis):
            for node in ast.walk(context.tree):
                if isinstance(node, ast.AsyncFunctionDef):
                    yield from self._check_coroutine(context, node)

    def _check_coroutine(
        self, context: FileContext, func: ast.AsyncFunctionDef
    ) -> Iterator[Finding]:
        for call in iter_calls(func):
            name = call_name(call)
            if name is None:
                continue
            reason = _BLOCKING.get(name)
            if reason is None and name.startswith("subprocess."):
                reason = (
                    "spawning processes from a coroutine blocks the loop "
                    "for an OS-dependent duration"
                )
            if reason is not None:
                yield context.finding(
                    call,
                    self.rule_id,
                    f"{name}() inside async {func.name}: {reason}",
                )
