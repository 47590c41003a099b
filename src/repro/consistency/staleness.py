"""View staleness: how far the warehouse lags behind the source.

The correctness hierarchy says nothing about *freshness*: RV with a large
period and DeferredECA are strongly consistent while serving arbitrarily
old data.  The timing-policy literature the paper builds on (Hanson;
Segev & Fang's currency-based updates) studies exactly this trade-off, so
we expose it as a measurement:

Walking the trace's global event order, after every event the warehouse
view equals ``V[ss_j]`` for some source state ``j`` (any consistent
algorithm guarantees one exists); the *lag* at that moment is ``i - j``
where ``i`` is the current source state.  The profile aggregates:

- ``in_sync_fraction`` — share of event-steps with lag 0;
- ``mean_lag`` / ``max_lag`` — in units of "source updates behind".

Freshness costs messages: the staleness benchmark plots this against the
``M`` metric across ECA, RV(s), and BatchECA(b).
"""

from __future__ import annotations

from typing import List, Optional

from repro.relational.engine import evaluate_view
from repro.simulation.trace import S_UP, W_CRASH, Trace


class LiveStaleness:
    """Staleness as a *live* observable (feeds the obs gauge).

    :func:`staleness_profile` is exact but post-hoc: it re-evaluates the
    view over every recorded source state.  Stale View Cleaning (Krishnan
    et al., VLDB 2015) argues staleness must also be observable *while*
    the system runs, so this tracker maintains a cheap lower bound from
    the update serials alone:

    - ``executed(serial)`` — a source finished update ``serial``;
    - ``processed(serial)`` — the warehouse dispatched the notification;
    - ``pending(n)`` — the UQS size after the last warehouse event.

    ``lag()`` is then *executed − processed*, plus one when queries are
    still in flight (the view cannot yet reflect the dispatched updates
    either).  Exported live as the ``repro_staleness_lag_updates`` gauge
    by :class:`repro.obs.instrument.Observability`.
    """

    __slots__ = ("_executed", "_processed", "_pending")

    def __init__(self) -> None:
        self._executed = 0
        self._processed = 0
        self._pending = 0

    def executed(self, serial: int) -> None:
        """A source executed update ``serial`` (global serials ascend)."""
        self._executed = max(self._executed, serial)

    def processed(self, serial: int) -> None:
        """The warehouse processed the notification for ``serial``."""
        self._processed = max(self._processed, serial)

    def pending(self, count: int) -> None:
        """UQS size after the latest warehouse event."""
        self._pending = count

    def lag(self) -> int:
        """Source updates executed but not yet reflected (lower bound)."""
        lag = self._executed - self._processed
        if self._pending:
            lag += 1
        return lag

    def __repr__(self) -> str:
        return (
            f"LiveStaleness(executed={self._executed}, "
            f"processed={self._processed}, pending={self._pending})"
        )


class StalenessReport:
    """Aggregated lag profile of one run."""

    def __init__(self, lags: List[int], unmatched: int) -> None:
        #: Lag (in source updates) after each global event.
        self.lags = lags
        #: Event-steps where the view matched no source state at all
        #: (only anomalous algorithms produce these).
        self.unmatched = unmatched

    @property
    def in_sync_fraction(self) -> float:
        if not self.lags:
            return 1.0
        return sum(1 for lag in self.lags if lag == 0) / len(self.lags)

    @property
    def mean_lag(self) -> float:
        if not self.lags:
            return 0.0
        return sum(self.lags) / len(self.lags)

    @property
    def max_lag(self) -> int:
        return max(self.lags) if self.lags else 0

    def __repr__(self) -> str:
        return (
            f"StalenessReport(in_sync={self.in_sync_fraction:.2f}, "
            f"mean_lag={self.mean_lag:.2f}, max_lag={self.max_lag}, "
            f"unmatched={self.unmatched})"
        )


def staleness_profile(view, trace: Trace) -> StalenessReport:
    """Compute the lag profile of a recorded run.

    After every event, the view is matched against the *latest possible*
    source state (ties resolve optimistically, favoring freshness), and
    the distance to the current source state is recorded.
    """
    oracle = [evaluate_view(view, state) for state in trace.source_states]
    lags: List[int] = []
    unmatched = 0
    source_index = 0
    view_index = 0
    for event in trace.events:
        if event.kind == S_UP:
            source_index += 1
        elif event.kind.startswith("W_") and event.kind != W_CRASH:
            # Every warehouse event but W_crash (W_up / W_ans / W_ref /
            # W_rec) recorded the next view state; S_qu and C_ref do not.
            view_index += 1
        current_view = trace.view_states[view_index]
        best: Optional[int] = None
        for j in range(source_index, -1, -1):
            if oracle[j] == current_view:
                best = j
                break
        if best is None:
            unmatched += 1
        else:
            lags.append(source_index - best)
    return StalenessReport(lags, unmatched)
