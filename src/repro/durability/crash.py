"""Deterministic process-fault injection: when to kill the warehouse.

A transport ``FaultPlan`` perturbs *messages*; a :class:`CrashPolicy`
perturbs the *process*.  The harness consults the policy after every
atomic warehouse event (message received → logged → dispatched → requests
routed) and, when it fires, raises
:class:`~repro.errors.WarehouseCrashed` out of the warehouse actor.  The
actor's memory is gone; only the WAL directory survives, and the harness
rebuilds the warehouse from it while sources and clients keep running.

Crash points are chosen as a pure function of the policy's parameters
and the event stream — no randomness at decision time — so the same seed
reproduces the identical crash point, recovery, and trace.

Modes:

- ``"mid-uqs"`` — fire at an event boundary where queries are in flight
  (the UQS is non-empty): the state ECA's strong-consistency argument
  depends on is exactly what must survive.
- ``"after-answer"`` — fire right after an answer was absorbed while
  more queries remain pending: between the answer and the install, the
  COLLECT buffer holds uninstalled deltas.
- ``"event"`` — fire at a fixed global event index (``at=``), for
  pinning an exact boundary in tests.

``drop_sends=True`` models a crash *before* the event's outgoing
requests reached the transport (they are suppressed, then the crash
fires).  The WAL logged the received message, so replay reconstructs the
UQS and recovery re-issues the never-sent queries — the scenario that
distinguishes logging-before-send from logging-after.
"""

from __future__ import annotations

from typing import Optional

from repro.simulation.trace import W_ANS

MODES = ("mid-uqs", "after-answer", "event")


class CrashPolicy:
    """Immutable description of when the warehouse should die.

    The default modes aim at the boundaries where Section 5.2's
    in-flight state (the UQS, the COLLECT buffer — what Appendix B's
    consistency proof depends on) is non-trivial, so surviving them is
    the strongest durability evidence a run can produce.

    Parameters
    ----------
    mode:
        One of :data:`MODES` (see module docstring).
    at:
        For ``mode="event"``: the 1-based global warehouse event index
        to crash after.
    skip:
        For the eligibility modes: how many eligible boundaries to let
        pass before firing.  ``None`` derives a small skip from ``seed``
        so different seeds crash at different (but reproducible) points.
    max_crashes:
        Total crashes over one run; after each crash the skip counter
        restarts, so crash *n+1* happens ``skip`` eligible boundaries
        after recovery *n*.
    drop_sends:
        Suppress the crashing event's outgoing requests first (crash
        before send).
    seed:
        Only used to derive ``skip`` when it is ``None``.
    """

    __slots__ = ("mode", "at", "skip", "max_crashes", "drop_sends", "seed")

    def __init__(
        self,
        mode: str = "mid-uqs",
        at: Optional[int] = None,
        skip: Optional[int] = None,
        max_crashes: int = 1,
        drop_sends: bool = False,
        seed: int = 0,
    ) -> None:
        if mode not in MODES:
            raise ValueError(f"unknown crash mode {mode!r}; expected one of {MODES}")
        if mode == "event" and at is None:
            raise ValueError('mode="event" requires at=<event index>')
        if skip is not None and skip < 0:
            raise ValueError(f"skip must be >= 0, got {skip}")
        if max_crashes < 1:
            raise ValueError(f"max_crashes must be >= 1, got {max_crashes}")
        self.mode = mode
        self.at = at
        self.skip = skip
        self.max_crashes = max_crashes
        self.drop_sends = drop_sends
        self.seed = seed

    def start(self) -> "CrashRun":
        """Fresh mutable per-run state (one per ``run_concurrent`` call)."""
        return CrashRun(self)

    def __repr__(self) -> str:
        return (
            f"CrashPolicy(mode={self.mode!r}, at={self.at}, skip={self.skip}, "
            f"max_crashes={self.max_crashes}, drop_sends={self.drop_sends}, "
            f"seed={self.seed})"
        )


class CrashRun:
    """Decision state threaded through one run (and its restarts)."""

    __slots__ = ("policy", "crashes", "_eligible", "_skip")

    def __init__(self, policy: CrashPolicy) -> None:
        self.policy = policy
        self.crashes = 0
        self._eligible = 0
        # A pure function of the seed: small enough to fire on short
        # paper workloads, varied enough that seeds pick different points.
        self._skip = policy.skip if policy.skip is not None else policy.seed % 3

    def decide(self, event_index: int, kind: str, pending: int) -> bool:
        """Should the warehouse die after this event?

        ``event_index`` counts warehouse events across the whole run
        (surviving restarts), ``kind`` is the trace event kind just
        recorded, ``pending`` is ``len(pending_query_ids())`` after the
        event.
        """
        policy = self.policy
        if self.crashes >= policy.max_crashes:
            return False
        if policy.mode == "event":
            fire = event_index == policy.at
        elif policy.mode == "mid-uqs":
            fire = pending > 0 and self._consume()
        else:  # after-answer
            fire = kind == W_ANS and pending > 0 and self._consume()
        if fire:
            self.crashes += 1
            self._eligible = 0
        return fire

    def _consume(self) -> bool:
        if self._eligible < self._skip:
            self._eligible += 1
            return False
        return True
