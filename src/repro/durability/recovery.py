"""Crash recovery: snapshot + WAL replay → a live warehouse algorithm.

Algorithms are deterministic state machines over their received messages
(Section 3's atomic-event model), so recovery is state-machine
replication:

1. decode the newest valid snapshot (the pre-crash algorithm, frozen as
   of some LSN);
2. replay every ``"recv"`` record with a later LSN, in order, feeding
   each logged message back through the same ``on_update`` /
   ``on_answer`` / ``on_refresh`` entry points — and *discarding* the
   requests those calls return, because the pre-crash warehouse already
   sent them (or crashed before sending, in which case step 3 covers it).
   A record of another type is skipped: the warehouse writes none, but
   older directories hold ``"send"`` / ``"event"`` records;
3. collect :meth:`pending_requests` — one request per query still in the
   UQS — for the harness to re-issue.  Sources answer re-asked queries
   against their *current* state; per-channel FIFO makes that exactly
   what a late original answer would have contained, so the algorithms'
   compensation reasoning survives the crash unchanged.

Re-issue can race a pre-crash answer already in flight, producing a
duplicate answer for the same query id; the recovered warehouse drops
answers whose id is no longer pending (see ``runtime/actors.py``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple, cast

from repro.durability.codec import decode_algorithm, decode_value
from repro.durability.wal import (
    RECV,
    _lsn_of,
    _snapshot_path,
    read_latest_snapshot,
    read_records,
)
from repro.errors import CodecError, ProtocolError, RecoveryError
from repro.kernel.dispatch import dispatch_event, event_kind
from repro.messaging.messages import Message, QueryRequest

if TYPE_CHECKING:
    from repro.core.protocol import WarehouseAlgorithm
    from repro.obs.instrument import Observability


class RecoveryResult:
    """What :func:`recover` reconstructed, plus how it got there."""

    __slots__ = (
        "algorithm",
        "snapshot_lsn",
        "last_lsn",
        "replayed",
        "torn_records",
        "reissue",
    )

    def __init__(
        self,
        algorithm: WarehouseAlgorithm,
        snapshot_lsn: int,
        last_lsn: int,
        replayed: int,
        torn_records: int,
        reissue: List[Tuple[Optional[str], QueryRequest]],
    ) -> None:
        self.algorithm = algorithm
        self.snapshot_lsn = snapshot_lsn
        self.last_lsn = last_lsn
        self.replayed = replayed
        self.torn_records = torn_records
        self.reissue = reissue

    def __repr__(self) -> str:
        return (
            f"RecoveryResult(snapshot_lsn={self.snapshot_lsn}, "
            f"last_lsn={self.last_lsn}, replayed={self.replayed}, "
            f"reissue={len(self.reissue)})"
        )


def _replay_one(
    algorithm: WarehouseAlgorithm, origin: Optional[str], message: Message
) -> None:
    """Feed one logged message through the algorithm, discarding requests.

    Replay goes through the same :func:`dispatch_event` the live kernels
    use — routed protocol, no per-family dispatch — because the pre-crash
    warehouse already sent whatever the call returns (or crashed before
    sending, in which case the re-issue pass covers it).
    """
    try:
        event_kind(message)
    except ProtocolError:
        raise RecoveryError(f"cannot replay message {message!r}") from None
    dispatch_event(algorithm, origin, message)


def recover(
    directory: str, obs: Optional[Observability] = None
) -> RecoveryResult:
    """Rebuild the warehouse algorithm persisted in ``directory``.

    ``obs`` (an :class:`repro.obs.instrument.Observability`) records the
    recovery as a ``wh.recovery`` span linked to the crash that caused it
    plus the ``repro_warehouse_recoveries_total`` /
    ``repro_recovery_replayed_total`` counters.
    """
    snapshot_lsn, payload = read_latest_snapshot(directory)
    try:
        algorithm = decode_algorithm(payload)
    except CodecError as exc:
        raise RecoveryError(
            f"snapshot {_snapshot_path(directory, snapshot_lsn)!r} passed its "
            f"CRC but does not decode: {exc}"
        ) from exc
    records, torn = read_records(directory)
    replayed = 0
    last_lsn = snapshot_lsn
    for record in records:
        last_lsn = max(last_lsn, _lsn_of(record))
        if _lsn_of(record) <= snapshot_lsn or record["type"] != RECV:
            continue
        data = cast(Dict[str, Any], record["data"])
        try:
            origin = cast(Optional[str], data["origin"])
            message = cast(Message, decode_value(data["message"]))
        except (TypeError, KeyError, CodecError) as exc:
            raise RecoveryError(
                f"malformed recv record at LSN {record['lsn']}: {exc}"
            ) from exc
        _replay_one(algorithm, origin, message)
        replayed += 1
    reissue = list(algorithm.pending_requests())
    if obs is not None:
        obs.recovery(snapshot_lsn, replayed, len(reissue), torn)
    return RecoveryResult(
        algorithm=algorithm,
        snapshot_lsn=snapshot_lsn,
        last_lsn=last_lsn,
        replayed=replayed,
        torn_records=torn,
        reissue=reissue,
    )
