"""Exception hierarchy for the ``repro`` package.

Every error raised by this library derives from :class:`ReproError`, so a
downstream application can catch one type to handle anything the warehouse
machinery raises while still letting programming errors (``TypeError`` and
friends) propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class SchemaError(ReproError):
    """A relation schema is malformed or violated.

    Raised for duplicate attribute names, arity mismatches between a schema
    and a tuple, references to unknown attributes, and key declarations that
    do not name schema attributes.
    """


class ExpressionError(ReproError):
    """A relational expression (term, query, or view) is malformed.

    Raised for projections onto attributes the product does not produce,
    conditions referencing unknown attributes, and substitutions that name
    relations not used by the expression.
    """


class SignError(ReproError):
    """A signed-tuple operation received an invalid sign value."""


class UpdateError(ReproError):
    """A base-relation update could not be applied.

    Raised when deleting a tuple that is not present, when an update names a
    relation the source does not store, or when the updated tuple does not
    match the relation's schema.
    """


class ViewStateError(ReproError):
    """Applying a delta would drive a materialized view inconsistent.

    In a correct run, ``MV + COLLECT`` never produces a tuple with negative
    multiplicity; this error surfaces algorithm bugs instead of silently
    clamping counts.
    """


class ProtocolError(ReproError):
    """The source/warehouse messaging protocol was violated.

    Raised for out-of-order message consumption, answers to unknown queries,
    and attempts to process events after a simulation has quiesced.
    """


class ChannelEmpty(ProtocolError):
    """A receive was attempted on a channel with no deliverable message.

    Distinct from other :class:`ProtocolError` cases so that callers which
    poll (the concurrent runtime's transports) can treat "nothing there
    yet" as a wait condition while still surfacing genuine violations.
    """


class TransportClosed(ReproError):
    """An actor tried to use a transport after the runtime shut it down.

    The concurrent runtime raises this out of pending receives to unwind
    source, warehouse, and client actors once a run has quiesced.
    """


class SimulationError(ReproError):
    """A simulation schedule requested an impossible step.

    Raised when a schedule asks the source to answer with no pending query,
    asks for an update when the workload is exhausted, or deadlocks before
    quiescence.
    """


class DurabilityError(ReproError):
    """Base class for persistence (codec / WAL / recovery) failures."""


class CodecError(DurabilityError):
    """A value could not be encoded to, or decoded from, durable form.

    Raised for unknown tags, version mismatches, and payloads that fail
    round-trip validation.
    """


class WalCorruption(DurabilityError):
    """A write-ahead log or snapshot record failed its CRC or framing check.

    A torn *tail* (the last record cut short by a crash) is expected and
    silently truncated during recovery; this error is reserved for
    corruption that cannot be explained by a torn write — e.g. a bad
    record followed by valid ones, or an unreadable snapshot.
    """


class WalLocked(DurabilityError):
    """Another live process already owns this WAL directory.

    Two warehouse actors appending to the same log would interleave their
    records into an unreplayable history; the lock file makes the second
    opener fail fast instead.  A lock whose owning process is gone (a
    stale lock left by a crash) is stolen silently — crash recovery must
    be able to reopen its own directory.
    """


class RecoveryError(DurabilityError):
    """Crash recovery could not rebuild a live warehouse.

    Raised when no snapshot exists, when replay references state the
    snapshot does not contain, or when the rebuilt algorithm fails
    validation.
    """


class WarehouseCrashed(ReproError):
    """A :class:`CrashPolicy` killed the warehouse actor at this point.

    Carries where the crash fired so the harness can recover
    deterministically and the trace can record the exact crash point.
    """

    def __init__(self, event_index: int, mode: str, drop_sends: bool) -> None:
        super().__init__(
            f"warehouse crashed at event #{event_index} (mode={mode!r}, "
            f"drop_sends={drop_sends})"
        )
        self.event_index = event_index
        self.mode = mode
        self.drop_sends = drop_sends
