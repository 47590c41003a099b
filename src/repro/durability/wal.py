"""Append-only, CRC-checked write-ahead log with compacting snapshots.

Layout of a WAL directory:

- ``wal.jsonl`` — one record per line, in LSN order.  Each line is the
  canonical JSON of ``{"lsn", "type", "data", "crc"}``, where ``crc`` is
  the CRC-32 of the canonical JSON of the record *without* the crc field.
  The writer renders every field once and takes the CRC over the very
  text it then writes, ``crc`` spliced in at its sorted position; the
  reader cuts the field back out of the bytes it read and checks those,
  so the checksum vouches for the file, not for a re-encoding of what
  was parsed from it.  A line that parses but is not laid out this way
  (reformatted, reordered, padded) is as invalid as one whose CRC fails.
- ``snapshot-<lsn>.json`` — an algorithm snapshot taken after the
  record with that LSN, same CRC scheme, written atomically (temp file +
  rename) so a crash mid-snapshot can never leave a half-written file
  under the final name.  Once it is in place the log is emptied in
  place; a crash before that leaves records the snapshot covers, which
  recovery skips by LSN.  The snapshots form one chain: a *root* holding
  the algorithm whole, then *deltas*, each naming the one before as its
  ``base`` and holding only what changed since.  A handle's first
  snapshot is a root, and so is one whose delta would take the chain's
  delta bytes past its root's, so recovery reads at most about twice one
  full snapshot; installing a root removes every other snapshot.  Each
  snapshot's ``v`` is the codec version that wrote it — and the version
  of every record behind it; recovery refuses another version's before
  decoding anything.
- ``wal.lock`` — exclusive-ownership marker holding the writer's pid.
  Opening a directory another live process has open raises
  :class:`~repro.errors.WalLocked`; stale locks (owner dead) are stolen.

The warehouse writes one record type (see ``runtime/actors.py``):
``"recv"``, a message it received, with its channel and origin, one per
atomic event.  Algorithms are deterministic state machines, so replaying
received messages in order reconstructs the exact pre-crash state
(state-machine replication); the log holds exactly what that replay
needs, and ``snapshot_every`` therefore bounds it.  Recovery refuses a
record of any other type as :class:`WalCorruption`.

Durability/recovery contract: a record is logged *before* the message is
dispatched to the algorithm, and crash injection only fires at event
boundaries after both, so the log never lags the in-memory state.  A torn
final line (crash mid-append) fails its CRC and is truncated on read;
corruption anywhere *else* — including a line that passes its CRC but
lacks a field or carries a non-integer LSN — raises
:class:`WalCorruption`.
"""

from __future__ import annotations

import json
import os
import re
import zlib
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple, cast

from repro.durability.codec import (
    CODEC_VERSION,
    Marks,
    canonical_json,
    encode_algorithm,
    encode_text,
    fold_delta,
    splice,
)
from repro.errors import CodecError, RecoveryError, WalCorruption, WalLocked
from repro.messaging.messages import Message

if TYPE_CHECKING:
    from repro.core.protocol import WarehouseAlgorithm
    from repro.obs.instrument import Observability

WAL_FILENAME = "wal.jsonl"
LOCK_FILENAME = "wal.lock"
SNAPSHOT_PREFIX = "snapshot-"
SNAPSHOT_SUFFIX = ".json"
TEMP_SUFFIX = ".tmp"

#: The record type the warehouse appends, and the one recovery replays.
RECV = "recv"


def _seal(fields: Dict[str, str]) -> str:
    """The canonical line/file body of a record whose fields are already
    canonical text, with the CRC of that text spliced in as ``crc``."""
    crc = zlib.crc32(splice(fields).encode("utf-8"))
    return splice({**fields, "crc": str(crc)})


#: Where ``crc`` sorts among a sealed payload's keys: first in a log
#: record (``crc`` < ``data``), before the short tail of a snapshot
#: (``algo`` < ``base`` < ``crc`` < ``lsn`` < ``v``; no ``v`` before
#: codec v4, no ``base`` in a root).
_CRC_AT_HEAD = re.compile(r'\{"crc":([0-9]+),')
_CRC_AT_TAIL = re.compile(r',"crc":([0-9]+)(,"lsn":[0-9]+(?:,"v":[0-9]+)?\})')


def _unseal(text: str) -> Optional[Dict[str, object]]:
    """CRC-check one sealed payload as read, then parse it; None when
    invalid."""
    found = _CRC_AT_HEAD.match(text)
    if found is not None:
        unsigned = "{" + text[found.end() :]
    else:
        cut = text.rfind(',"crc":')
        found = _CRC_AT_TAIL.fullmatch(text, cut) if cut >= 0 else None
        if found is None:
            return None
        unsigned = text[:cut] + found.group(2)
    if zlib.crc32(unsigned.encode("utf-8")) != int(found.group(1)):
        return None
    try:
        record = json.loads(text)
    except json.JSONDecodeError:
        return None
    if not isinstance(record, dict):
        return None
    del record["crc"]
    return record


def _record_line(lsn: object, record_type: object, data: str) -> str:
    """A sealed log line; ``data`` is already canonical text."""
    return _seal(
        {"lsn": canonical_json(lsn), "type": canonical_json(record_type), "data": data}
    )


def _value_text(value: object) -> str:
    """A record field's text: a live message's own rendering, or the
    canonical JSON of already-encoded data."""
    if isinstance(value, Message):
        return encode_text(value)
    return canonical_json(value)


def _lsn_of(record: Dict[str, object]) -> int:
    """The record's LSN (:func:`read_records` lets none through without
    an int ``lsn``)."""
    return cast(int, record["lsn"])


def _malformed(record: Dict[str, object]) -> Optional[str]:
    """Why a record that passed its CRC is still no log record, or None."""
    missing = [field for field in ("data", "lsn", "type") if field not in record]
    if missing:
        return f"lacks {', '.join(missing)}"
    if type(record["lsn"]) is not int:
        return f"has a non-integer LSN {record['lsn']!r}"
    return None


def _body(lsn: int, algo: str, base: Optional[int] = None) -> str:
    """A snapshot file's text: a root without ``base``, a delta with."""
    fields = {"lsn": canonical_json(lsn), "algo": algo, "v": canonical_json(CODEC_VERSION)}
    if base is not None:
        fields["base"] = canonical_json(base)
    return _seal(fields) + "\n"


def _pid_alive(pid: int) -> bool:
    """Best-effort liveness probe for a lock-holding process."""
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        # Alive, owned by someone else — we may not signal it, but it runs.
        return True
    except OSError:
        return False
    return True


def _snapshot_name(lsn: int) -> str:
    return f"{SNAPSHOT_PREFIX}{lsn:010d}{SNAPSHOT_SUFFIX}"


def _snapshot_path(directory: str, lsn: int) -> str:
    return os.path.join(directory, _snapshot_name(lsn))


def _snapshot_lsns(directory: str) -> List[int]:
    """LSNs of snapshot files present, ascending."""
    lsns = []
    for name in os.listdir(directory):
        if name.startswith(SNAPSHOT_PREFIX) and name.endswith(SNAPSHOT_SUFFIX):
            stem = name[len(SNAPSHOT_PREFIX) : -len(SNAPSHOT_SUFFIX)]
            try:
                lsns.append(int(stem))
            except ValueError:
                continue
    return sorted(lsns)


class WriteAheadLog:
    """The warehouse's durable log.

    Parameters
    ----------
    directory:
        Where ``wal.jsonl`` and snapshots live; created if missing.
        Reopening a directory with an existing log resumes its LSN
        sequence (this is how the recovered warehouse continues logging).
    fsync:
        ``True`` forces ``os.fsync`` after every append, and of the
        directory after every rename — real crash safety at real cost
        (the WAL-overhead benchmark quantifies it).
        The default flushes to the OS only, which is what the in-process
        crash injection needs.
    snapshot_every:
        Take a compacting snapshot every N appended records (via
        :meth:`maybe_snapshot`); ``None`` disables automatic snapshots.
        Every record the warehouse appends is a replayed ``recv``, so N
        bounds the replay a recovery performs.
    obs:
        Optional :class:`repro.obs.instrument.Observability`; appends
        bump ``repro_wal_append_total{type=...}`` and snapshots emit a
        ``wal.snapshot`` span.
    """

    def __init__(
        self,
        directory: str,
        fsync: bool = False,
        snapshot_every: Optional[int] = None,
        obs: Optional[Observability] = None,
    ) -> None:
        if snapshot_every is not None and snapshot_every < 1:
            raise ValueError(f"snapshot_every must be >= 1, got {snapshot_every}")
        self.directory = directory
        self.fsync = fsync
        self.snapshot_every = snapshot_every
        self.obs = obs
        # Parent directories included: sharded runs hand each shard a
        # nested ``wal_dir/shard-<i>`` that does not exist yet.
        os.makedirs(directory, exist_ok=True)
        self._lock_path = os.path.join(directory, LOCK_FILENAME)
        self._locked = False
        self._acquire_lock()
        self._path = os.path.join(directory, WAL_FILENAME)
        self._lsn = 0
        self._since_snapshot = 0
        #: The chain this handle writes: its marks, its newest link's LSN
        #: and the bytes of its root and of its deltas.
        self._marks: Optional[Marks] = None
        self._tip = 0
        self._root_bytes = 0
        self._delta_bytes = 0
        self.appended = 0  # records written by this handle (for metrics)
        self.snapshots_taken = 0
        try:
            # A crash between writing a temp file and renaming it leaves
            # the temp behind; nothing reads it, so nothing else would
            # ever delete it.
            for name in os.listdir(directory):
                if name.endswith(TEMP_SUFFIX):
                    os.remove(os.path.join(directory, name))
            if os.path.exists(self._path):
                records, torn = read_records(directory)
                if records:
                    self._lsn = _lsn_of(records[-1])
                if torn:
                    # Drop the torn tail now: appending after a partial line
                    # would weld the new record onto the damaged bytes.
                    self._rewrite(records)
            lsns = _snapshot_lsns(directory)
            if lsns:
                self._lsn = max(self._lsn, lsns[-1])
            self._file = open(self._path, "a", encoding="utf-8")
        except BaseException:
            # No handle exists to close(): a corrupt log must not leave
            # the directory locked against the next open in this process.
            self._release_lock()
            raise

    # ------------------------------------------------------------------ #
    # Locking
    # ------------------------------------------------------------------ #

    def _acquire_lock(self) -> None:
        """Take exclusive ownership of the directory, or raise WalLocked.

        ``O_CREAT | O_EXCL`` makes creation the atomic test-and-set; the
        file body records the owner's pid.  A lock whose owner is no
        longer alive is stale (the process died without :meth:`close`)
        and is stolen — recovery after a real crash must be able to
        reopen the directory it owns.
        """
        for _ in range(2):
            try:
                fd = os.open(self._lock_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                owner = self._lock_owner()
                if owner is not None and _pid_alive(owner):
                    raise WalLocked(
                        f"WAL directory {self.directory!r} is already open "
                        f"in live process {owner} — two writers would "
                        f"interleave an unreplayable log"
                    )
                try:  # Stale: the owner is gone. Remove and retry once.
                    os.remove(self._lock_path)
                except FileNotFoundError:
                    pass
                continue
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(str(os.getpid()))
            self._locked = True
            return
        raise WalLocked(f"could not acquire {self._lock_path!r} after stale steal")

    def _lock_owner(self) -> Optional[int]:
        try:
            with open(self._lock_path, "r", encoding="utf-8") as handle:
                return int(handle.read().strip())
        except (OSError, ValueError):
            return None

    def _release_lock(self) -> None:
        if self._locked:
            self._locked = False
            try:
                os.remove(self._lock_path)
            except FileNotFoundError:
                pass

    # ------------------------------------------------------------------ #
    # Appending
    # ------------------------------------------------------------------ #

    def append(self, record_type: str, data: object) -> int:
        """Append one record.  ``data`` is tagged JSON data, except that a
        live :class:`~repro.messaging.messages.Message` among the values
        of a ``data`` dict is written as its rendering: a received message
        is rendered once, for its wire frame and its ``recv`` record."""
        if isinstance(data, dict):
            text = splice({key: _value_text(value) for key, value in data.items()})
        else:
            text = canonical_json(data)
        self._lsn += 1
        line = _record_line(self._lsn, record_type, text)
        self._file.write(line + "\n")
        self._file.flush()
        if self.fsync:
            os.fsync(self._file.fileno())
        self.appended += 1
        self._since_snapshot += 1
        if self.obs is not None:
            self.obs.wal_append(record_type)
        return self._lsn

    @property
    def last_lsn(self) -> int:
        return self._lsn

    # ------------------------------------------------------------------ #
    # Snapshots + compaction
    # ------------------------------------------------------------------ #

    def snapshot(self, algorithm: WarehouseAlgorithm) -> int:
        """Snapshot the algorithm as of the current LSN, then compact.

        A delta over this handle's last snapshot when that was of the same
        algorithm at an older LSN and the chain's delta bytes stay within
        its root's; otherwise a root, and once that is renamed into place
        every other snapshot is removed.  Either way the snapshot covers
        every WAL record, so the log is emptied (:meth:`_compact`).
        """
        lsn = self._lsn
        marks = self._marks
        body = None
        if marks is not None and marks.algorithm is algorithm and lsn > self._tip:
            delta = _body(lsn, encode_algorithm(algorithm, marks), self._tip)
            if self._delta_bytes + len(delta) <= self._root_bytes:
                body = delta
        if body is not None:
            self._install(_snapshot_path(self.directory, lsn), body)
            self._delta_bytes += len(body)
        else:
            if marks is not None:
                marks.release()
            self._marks = Marks(algorithm)
            body = _body(lsn, encode_algorithm(algorithm, self._marks))
            self._install(_snapshot_path(self.directory, lsn), body)
            for old in _snapshot_lsns(self.directory):
                if old != lsn:
                    os.remove(_snapshot_path(self.directory, old))
            self._root_bytes, self._delta_bytes = len(body), 0
        self._tip = lsn
        self._compact()
        self._since_snapshot = 0
        self.snapshots_taken += 1
        if self.obs is not None:
            self.obs.wal_snapshot(lsn)
        return lsn

    def maybe_snapshot(self, algorithm: WarehouseAlgorithm) -> Optional[int]:
        """Snapshot when ``snapshot_every`` appends have accumulated."""
        if self.snapshot_every is None:
            return None
        if self._since_snapshot < self.snapshot_every:
            return None
        return self.snapshot(algorithm)

    def _compact(self) -> None:
        """Empty the log in place: the snapshot just taken covers every
        record.  A crash before the truncation reaches the disk leaves
        records at or below the snapshot's LSN, which recovery skips."""
        self._file.seek(0)  # flushes; appends still go to the end
        self._file.truncate()
        if self.fsync:
            os.fsync(self._file.fileno())

    def _rewrite(self, records: List[Dict[str, object]]) -> None:
        """Atomically replace ``wal.jsonl`` with exactly these records."""
        lines = [
            _record_line(record["lsn"], record["type"], canonical_json(record["data"]))
            + "\n"
            for record in records
        ]
        self._install(self._path, "".join(lines))

    def _install(self, final: str, text: str) -> None:
        """Make ``final`` hold exactly ``text``, atomically (temp file +
        rename).  Under ``fsync`` the directory is flushed too, so the
        rename is on disk before whatever the caller does next on the
        strength of it (removing the older snapshot, truncating the log).
        """
        temp = final + TEMP_SUFFIX
        with open(temp, "w", encoding="utf-8") as handle:
            handle.write(text)
            handle.flush()
            if self.fsync:
                os.fsync(handle.fileno())
        os.replace(temp, final)
        if self.fsync:
            fd = os.open(self.directory, os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)

    def close(self) -> None:
        if self._marks is not None:
            self._marks.release()
            self._marks = None
        if not self._file.closed:
            self._file.flush()
            self._file.close()
        self._release_lock()


# --------------------------------------------------------------------- #
# Reading (used by recovery)
# --------------------------------------------------------------------- #


def read_records(directory: str) -> Tuple[List[Dict[str, object]], int]:
    """All valid WAL records in LSN order, plus the torn-tail line count.

    A run of invalid lines at the *end* of the file is a torn tail (the
    crash hit mid-append) and is silently dropped — the count of dropped
    lines is returned for reporting.  An invalid line *followed by* a
    valid one cannot be explained by a torn write and raises
    :class:`WalCorruption`, as does a valid line missing a field or
    carrying a non-integer LSN, and any LSN that fails to increase.
    """
    path = os.path.join(directory, WAL_FILENAME)
    if not os.path.exists(path):
        return [], 0
    records: List[Dict[str, object]] = []
    torn = 0
    with open(path, "r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            record = _unseal(line)
            if record is None:
                torn += 1
                continue
            if torn:
                raise WalCorruption(
                    f"{path}:{line_number}: valid record after {torn} "
                    f"corrupt line(s) — log is damaged beyond a torn tail"
                )
            problem = _malformed(record)
            if problem is not None:
                raise WalCorruption(
                    f"{path}:{line_number}: record passes its CRC but {problem}"
                )
            if records and _lsn_of(record) <= _lsn_of(records[-1]):
                raise WalCorruption(
                    f"{path}:{line_number}: LSN {record['lsn']} does not "
                    f"advance past {records[-1]['lsn']}"
                )
            records.append(record)
    return records, torn


def _read_snapshot(directory: str, lsn: int) -> Dict[str, object]:
    """One snapshot file's fields, checked on their own: CRC, layout,
    LSN and codec version."""
    path = _snapshot_path(directory, lsn)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError):
        text = ""
    body = _unseal(text[:-1] if text.endswith("\n") else text)
    if body is None or body.get("lsn") != lsn:
        raise WalCorruption(f"snapshot {path!r} failed validation")
    if "algo" not in body:
        raise WalCorruption(f"snapshot {path!r} passes its CRC but lacks algo")
    if body.get("v") != CODEC_VERSION:
        # Snapshots are stamped since v4: an unstamped one is older.
        written = f"v{body['v']}" if "v" in body else "a version before v4"
        raise RecoveryError(
            f"snapshot {path!r} was written by codec {written}; this tree "
            f"reads only v{CODEC_VERSION} — regenerate the directory"
        )
    if "base" in body:
        base = body["base"]
        if type(base) is not int or not 0 <= base < lsn:
            raise WalCorruption(
                f"snapshot {path!r} names base {base!r}, which is not an LSN "
                f"below its own ({lsn}): the chain would not end at a root"
            )
    return body


def read_latest_snapshot(directory: str) -> Tuple[int, Dict[str, object]]:
    """The newest snapshot as ``(lsn, algorithm payload)``: its chain,
    root first, folded into the one payload
    :func:`~repro.durability.codec.decode_algorithm` takes.

    Raises :class:`RecoveryError` when no snapshot exists or a link is
    intact but written by another codec version (or by one that did not
    say), and :class:`WalCorruption` when a link fails validation, names
    a base that is not an older snapshot present, or does not fold onto
    it — each naming the offending file.  There is no older chain to fall
    back to: the log records that would bring one forward are gone.
    """
    lsns = _snapshot_lsns(directory)
    if not lsns:
        raise RecoveryError(f"no snapshot found in {directory!r}")
    present = set(lsns)
    links = [(lsns[-1], _read_snapshot(directory, lsns[-1]))]
    while "base" in links[-1][1]:
        lsn, body = links[-1]
        base = cast(int, body["base"])
        if base not in present:
            raise WalCorruption(
                f"snapshot {_snapshot_path(directory, lsn)!r} names base "
                f"{_snapshot_name(base)!r}, which does not exist"
            )
        links.append((base, _read_snapshot(directory, base)))
    _, root = links.pop()
    payload = cast(Dict[str, Any], root["algo"])
    for lsn, body in reversed(links):
        try:
            payload = fold_delta(payload, cast(Dict[str, Any], body["algo"]))
        except (CodecError, KeyError, TypeError, ValueError, AttributeError) as exc:
            raise WalCorruption(
                f"snapshot {_snapshot_path(directory, lsn)!r} does not fold "
                f"onto its base: {exc}"
            ) from exc
    return lsns[-1], payload
