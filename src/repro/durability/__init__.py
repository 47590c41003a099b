"""Durability for the warehouse: codec + WAL + snapshots + recovery.

The paper's warehouse carries critical in-flight state — the unanswered
query set and COLLECT buffer that make ECA strongly consistent (Sections
5.2, Appendix B) — all of it, until this package, in process memory.
``repro.durability`` logs every message the warehouse receives to an
append-only CRC-checked log with periodic compacting snapshots, and
rebuilds a live algorithm (view contents *and* pending protocol state)
by snapshot + replay.  :class:`CrashPolicy` plugs into the concurrent
runtime to kill and restart the warehouse at deterministic points,
proving the Section 3.1 guarantees survive process faults.
"""

from repro.durability.codec import (
    CODEC_VERSION,
    canonical_json,
    decode_algorithm,
    decode_value,
    dumps_algorithm,
    encode_algorithm,
    encode_text,
    encode_value,
    loads_algorithm,
)
from repro.durability.crash import CrashPolicy, CrashRun
from repro.durability.recovery import RecoveryResult, recover
from repro.durability.wal import (
    RECV,
    WriteAheadLog,
    read_latest_snapshot,
    read_records,
)

__all__ = [
    "CODEC_VERSION",
    "CrashPolicy",
    "CrashRun",
    "RECV",
    "RecoveryResult",
    "WriteAheadLog",
    "canonical_json",
    "decode_algorithm",
    "decode_value",
    "dumps_algorithm",
    "encode_algorithm",
    "encode_text",
    "encode_value",
    "loads_algorithm",
    "read_latest_snapshot",
    "read_records",
    "recover",
]
