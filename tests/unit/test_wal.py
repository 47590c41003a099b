"""Unit tests for the write-ahead log (``repro.durability.wal``)."""

import json
import os
import re

import pytest

from repro.durability import (
    CODEC_VERSION,
    RECV,
    WriteAheadLog,
    read_latest_snapshot,
    read_records,
    recover,
)
from repro.durability.codec import canonical_json
from repro.durability.wal import (
    LOCK_FILENAME,
    SNAPSHOT_PREFIX,
    WAL_FILENAME,
    _seal,
    _snapshot_name,
)
from repro.errors import CodecError, RecoveryError, WalCorruption, WalLocked
from repro.messaging.messages import UpdateNotification
from repro.relational.engine import evaluate_view
from repro.relational.schema import RelationSchema
from repro.relational.views import View
from repro.source.memory import MemorySource
from repro.source.updates import insert

SCHEMAS = [RelationSchema("r1", ("W", "X")), RelationSchema("r2", ("X", "Y"))]
INITIAL = {"r1": [(1, 2), (2, 3)], "r2": [(2, 5), (3, 6)]}


def fresh_eca():
    from repro.core.eca import ECA

    view = View.natural_join("V", SCHEMAS, ["W", "Y"])
    source = MemorySource(SCHEMAS, INITIAL)
    return source, ECA(view, evaluate_view(view, source.snapshot()))


def wal_path(directory):
    return os.path.join(str(directory), WAL_FILENAME)


#: The file the tree before codec v4 wrote at LSN 1 for the catalog of
#: ``test_a_snapshot_holding_no_query_differs_from_v3_only_by_the_stamp``.
V3_CATALOG_SNAPSHOT = (
    '{"algo":{"$":"algo.catalog","members":[["V",{"$":"algo","config":{"$":"dict",'
    '"items":[["buffer_answers",true]]},"mv":{"$":"bag","pairs":[[{"$":"tuple",'
    '"items":[1,5]},1],[{"$":"tuple","items":[2,6]},1]]},"name":"eca","pending":'
    '{"$":"dict","items":[["next_query_id",1],["uqs",{"$":"dict","items":[]}],'
    '["collect",{"$":"bag","pairs":[]}]]},"view":{"$":"view","condition":{"$":"cmp",'
    '"left":{"$":"attr","name":"r1.X"},"op":"=","right":{"$":"attr","name":"r2.X"}},'
    '"name":"V","projection":["W","Y"],"relations":[{"$":"schema","attributes":'
    '["W","X"],"base":"r1","key":null,"name":"r1"},{"$":"schema","attributes":'
    '["X","Y"],"base":"r2","key":null,"name":"r2"}]}}],["P",{"$":"algo","config":'
    '{"$":"dict","items":[["buffer_answers",true]]},"mv":{"$":"bag","pairs":'
    '[[{"$":"tuple","items":[5]},1],[{"$":"tuple","items":[6]},1]]},"name":"eca",'
    '"pending":{"$":"dict","items":[["next_query_id",1],["uqs",{"$":"dict","items":'
    '[]}],["collect",{"$":"bag","pairs":[]}]]},"view":{"$":"view","condition":'
    '{"$":"cmp","left":{"$":"attr","name":"r1.X"},"op":"=","right":{"$":"attr",'
    '"name":"r2.X"}},"name":"P","projection":["Y"],"relations":[{"$":"schema",'
    '"attributes":["W","X"],"base":"r1","key":null,"name":"r1"},{"$":"schema",'
    '"attributes":["X","Y"],"base":"r2","key":null,"name":"r2"}]}}]],"pending":'
    '{"$":"dict","items":[["next_query_id",1],["routes",{"$":"dict","items":[]}]]},'
    '"share":true},"crc":2532083287,"lsn":1}\n'
)


class TestAppendAndRead:
    def test_lsns_advance_and_records_read_back(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path))
        assert wal.append(RECV, {"n": 1}) == 1
        assert wal.append("event", {"n": 2}) == 2
        wal.close()
        records, torn = read_records(str(tmp_path))
        assert torn == 0
        assert [(r["lsn"], r["type"]) for r in records] == [(1, RECV), (2, "event")]
        assert records[0]["data"] == {"n": 1}

    def test_reopen_resumes_lsn_sequence(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path))
        wal.append(RECV, {})
        wal.close()
        wal = WriteAheadLog(str(tmp_path))
        assert wal.append(RECV, {}) == 2
        wal.close()

    def test_missing_file_reads_empty(self, tmp_path):
        assert read_records(str(tmp_path)) == ([], 0)


class TestCorruption:
    def write_two(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path))
        wal.append(RECV, {"n": 1})
        wal.append(RECV, {"n": 2})
        wal.close()

    def test_torn_tail_is_dropped_silently(self, tmp_path):
        self.write_two(tmp_path)
        with open(wal_path(tmp_path), "a", encoding="utf-8") as handle:
            handle.write('{"lsn":3,"type":"recv","da')  # crash mid-append
        records, torn = read_records(str(tmp_path))
        assert torn == 1
        assert [r["lsn"] for r in records] == [1, 2]

    def test_corruption_mid_file_raises(self, tmp_path):
        self.write_two(tmp_path)
        lines = open(wal_path(tmp_path), encoding="utf-8").readlines()
        lines[0] = lines[0][:20] + "\n"  # damage a non-final record
        with open(wal_path(tmp_path), "w", encoding="utf-8") as handle:
            handle.writelines(lines)
        with pytest.raises(WalCorruption):
            read_records(str(tmp_path))

    def test_crc_catches_bit_flips(self, tmp_path):
        self.write_two(tmp_path)
        text = open(wal_path(tmp_path), encoding="utf-8").read()
        with open(wal_path(tmp_path), "w", encoding="utf-8") as handle:
            handle.write(text.replace('"n":2', '"n":7'))
        records, torn = read_records(str(tmp_path))
        assert torn == 1  # the flipped record fails its CRC
        assert [r["data"]["n"] for r in records] == [1]

    def test_reformatted_record_is_rejected(self, tmp_path):
        """The CRC is over the bytes on disk, not over a re-encoding of
        what they parse to: the same JSON value laid out differently —
        padded, or with ``crc`` moved — is not a record this log wrote."""
        self.write_two(tmp_path)
        first, second = open(wal_path(tmp_path), encoding="utf-8").read().splitlines()
        crc, rest = second[1:].split(",", 1)
        variants = [
            second.replace(",", ", "),
            second.replace('"n":2', '"n": 2'),
            " " + second[:-1] + " }",
            "{" + rest[:-1] + "," + crc + "}",
        ]
        for variant in variants:
            assert json.loads(variant) == json.loads(second)
            with open(wal_path(tmp_path), "w", encoding="utf-8") as handle:
                handle.write(first + "\n" + variant + "\n")
            records, torn = read_records(str(tmp_path))
            assert torn == 1, variant
            assert [r["lsn"] for r in records] == [1]
            # ... and ahead of a valid record it is damage, not a torn tail.
            with open(wal_path(tmp_path), "w", encoding="utf-8") as handle:
                handle.write(variant.replace('"lsn":2', '"lsn":0') + "\n")
                handle.write(first + "\n")
            with pytest.raises(WalCorruption):
                read_records(str(tmp_path))

    def test_reformatted_snapshot_is_rejected(self, tmp_path):
        _, algorithm = fresh_eca()
        wal = WriteAheadLog(str(tmp_path))
        wal.append("event", {})
        lsn = wal.snapshot(algorithm)
        wal.close()
        path = os.path.join(str(tmp_path), _snapshot_name(lsn))
        body = open(path, encoding="utf-8").read()
        assert read_latest_snapshot(str(tmp_path))[0] == lsn
        padded = body.replace(',"lsn":', ', "lsn":')
        assert json.loads(padded) == json.loads(body)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(padded)
        with pytest.raises(WalCorruption, match=_snapshot_name(lsn)):
            read_latest_snapshot(str(tmp_path))

    def test_non_advancing_lsn_raises(self, tmp_path):
        self.write_two(tmp_path)
        lines = open(wal_path(tmp_path), encoding="utf-8").readlines()
        with open(wal_path(tmp_path), "w", encoding="utf-8") as handle:
            handle.writelines([lines[0], lines[0]])
        with pytest.raises(WalCorruption):
            read_records(str(tmp_path))

    def test_reopen_truncates_torn_tail(self, tmp_path):
        self.write_two(tmp_path)
        with open(wal_path(tmp_path), "a", encoding="utf-8") as handle:
            handle.write('{"half')
        wal = WriteAheadLog(str(tmp_path))
        wal.append(RECV, {"n": 3})  # must not weld onto the partial line
        wal.close()
        records, torn = read_records(str(tmp_path))
        assert torn == 0
        assert [r["lsn"] for r in records] == [1, 2, 3]


class TestMalformedFields:
    """Regression: a line that passes its CRC but lacks a field, or
    carries a string LSN, escaped every reader as a ``KeyError`` or
    ``TypeError``.  Each is a :class:`WalCorruption` naming the file, and
    the line for a log record."""

    def seal_second_line(self, tmp_path, fields):
        """A genesis snapshot, one good record, then ``fields`` sealed as
        line 2 (its CRC holds); the ``path:line`` the error must name."""
        _, algorithm = fresh_eca()
        wal = WriteAheadLog(str(tmp_path))
        wal.snapshot(algorithm)
        wal.append("event", {})
        wal.close()
        sealed = _seal({key: canonical_json(value) for key, value in fields.items()})
        with open(wal_path(tmp_path), "a", encoding="utf-8") as handle:
            handle.write(sealed + "\n")
        return f"{wal_path(tmp_path)}:2"

    def assert_every_reader_refuses(self, tmp_path, where):
        for read in (read_records, recover, WriteAheadLog):
            with pytest.raises(WalCorruption, match=re.escape(where)):
                read(str(tmp_path))
        assert not os.path.exists(os.path.join(str(tmp_path), LOCK_FILENAME))

    def test_a_record_without_an_lsn(self, tmp_path):
        where = self.seal_second_line(tmp_path, {"type": RECV, "data": {}})
        self.assert_every_reader_refuses(tmp_path, where)

    def test_a_record_with_a_string_lsn(self, tmp_path):
        where = self.seal_second_line(tmp_path, {"lsn": "2", "type": RECV, "data": {}})
        self.assert_every_reader_refuses(tmp_path, where)

    def test_a_record_without_a_type(self, tmp_path):
        where = self.seal_second_line(tmp_path, {"lsn": 2, "data": {}})
        self.assert_every_reader_refuses(tmp_path, where)

    def test_a_snapshot_without_algo(self, tmp_path):
        _, algorithm = fresh_eca()
        wal = WriteAheadLog(str(tmp_path))
        lsn = wal.snapshot(algorithm)
        wal.close()
        path = os.path.join(str(tmp_path), _snapshot_name(lsn))
        fields = {"lsn": canonical_json(lsn), "v": canonical_json(CODEC_VERSION)}
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(_seal(fields) + "\n")
        for read in (read_latest_snapshot, recover):
            with pytest.raises(WalCorruption, match=re.escape(path)):
                read(str(tmp_path))


class TestSnapshots:
    def test_snapshot_compacts_log_and_is_readable(self, tmp_path):
        _, algorithm = fresh_eca()
        wal = WriteAheadLog(str(tmp_path))
        for n in range(5):
            wal.append("event", {"n": n})
        lsn = wal.snapshot(algorithm)
        assert lsn == 5
        # Compaction removed records covered by the snapshot.
        assert read_records(str(tmp_path))[0] == []
        got_lsn, payload = read_latest_snapshot(str(tmp_path))
        assert got_lsn == 5 and payload["$"] == "algo"
        wal.close()

    def test_maybe_snapshot_honours_cadence(self, tmp_path):
        _, algorithm = fresh_eca()
        wal = WriteAheadLog(str(tmp_path), snapshot_every=3)
        for _ in range(2):
            wal.append("event", {})
            assert wal.maybe_snapshot(algorithm) is None
        wal.append("event", {})
        assert wal.maybe_snapshot(algorithm) == 3
        assert wal.snapshots_taken == 1
        wal.close()

    def test_old_snapshots_pruned(self, tmp_path):
        """Exactly one snapshot survives: a snapshot truncates the log, so
        nothing could bring an older one forward."""
        _, algorithm = fresh_eca()
        wal = WriteAheadLog(str(tmp_path))
        for _ in range(4):
            wal.append("event", {})
            lsn = wal.snapshot(algorithm)
            names = [
                n for n in os.listdir(str(tmp_path)) if n.startswith(SNAPSHOT_PREFIX)
            ]
            assert names == [_snapshot_name(lsn)]
            assert os.path.getsize(wal_path(tmp_path)) == 0
        wal.close()

    def test_a_snapshot_holding_no_query_differs_from_v3_only_by_the_stamp(
        self, tmp_path
    ):
        """Codec v4 changed the ``query`` form and nothing else: ``algo``,
        ``algo.catalog``, ``view``, ``bag``, the pending dicts are
        byte for byte what they were."""
        from repro.core.eca import ECA
        from repro.warehouse.catalog import WarehouseCatalog

        source = MemorySource(SCHEMAS, INITIAL)
        members = {}
        for name, projection in (("V", ["W", "Y"]), ("P", ["Y"])):
            view = View.natural_join(name, SCHEMAS, projection)
            members[name] = ECA(view, evaluate_view(view, source.snapshot()))
        wal = WriteAheadLog(str(tmp_path))
        wal.append("event", {})
        lsn = wal.snapshot(WarehouseCatalog(members, share_compensation=True))
        wal.close()
        with open(os.path.join(str(tmp_path), _snapshot_name(lsn))) as handle:
            text = handle.read()
        assert text.endswith(f',"lsn":1,"v":{CODEC_VERSION}}}\n')
        crc = re.compile(',"crc":[0-9]+')  # covers the stamp, so it moved too
        assert crc.sub("", text).replace(f',"v":{CODEC_VERSION}}}', "}") == crc.sub(
            "", V3_CATALOG_SNAPSHOT
        )

    def test_no_snapshot_raises_recovery_error(self, tmp_path):
        with pytest.raises(RecoveryError):
            read_latest_snapshot(str(tmp_path))

    def test_all_snapshots_invalid_raises_corruption(self, tmp_path):
        _, algorithm = fresh_eca()
        wal = WriteAheadLog(str(tmp_path))
        wal.append("event", {})
        lsn = wal.snapshot(algorithm)
        wal.close()
        with open(
            os.path.join(str(tmp_path), _snapshot_name(lsn)), "w", encoding="utf-8"
        ) as handle:
            handle.write("garbage")
        with pytest.raises(WalCorruption, match=_snapshot_name(lsn)):
            read_latest_snapshot(str(tmp_path))

    def test_parameter_validation(self, tmp_path):
        with pytest.raises(ValueError):
            WriteAheadLog(str(tmp_path), snapshot_every=0)
        with pytest.raises(TypeError):
            WriteAheadLog(str(tmp_path), keep_snapshots=1)


class TestAtomicInstall:
    """Temp file + rename: what a crash between the two leaves behind,
    and what ``fsync=True`` orders on disk."""

    def test_orphaned_temp_files_are_removed_on_open(self, tmp_path):
        source, algorithm = fresh_eca()
        wal = WriteAheadLog(str(tmp_path))
        wal.append("event", {"n": 1})
        lsn = wal.snapshot(algorithm)
        wal.append("event", {"n": 2})
        wal.close()
        # A crash mid-snapshot and one mid-rewrite: half a body each.
        orphans = [_snapshot_name(lsn + 1) + ".tmp", WAL_FILENAME + ".tmp"]
        for name in orphans:
            with open(os.path.join(str(tmp_path), name), "w") as handle:
                handle.write('{"algo":{"$":"al')
        before = recover(str(tmp_path))
        wal = WriteAheadLog(str(tmp_path))
        assert not [n for n in os.listdir(str(tmp_path)) if n.endswith(".tmp")]
        assert wal.last_lsn == 2
        wal.close()
        after = recover(str(tmp_path))
        assert (after.snapshot_lsn, after.last_lsn) == (lsn, 2)
        assert after.algorithm.view_state() == before.algorithm.view_state()

    def test_a_locked_directory_keeps_its_temp_files(self, tmp_path):
        """The sweep runs under the lock: the temp file of a live
        writer's snapshot in progress is not an orphan."""
        wal = WriteAheadLog(str(tmp_path))
        temp = os.path.join(str(tmp_path), _snapshot_name(1) + ".tmp")
        open(temp, "w").close()
        with pytest.raises(WalLocked):
            WriteAheadLog(str(tmp_path))
        assert os.path.exists(temp)
        wal.close()

    def trace_calls(self, monkeypatch):
        """Record ``fsync``/``replace``/``remove``, naming what each
        descriptor was opened on."""
        calls = []
        opened = {}
        real_open, real_fsync = os.open, os.fsync
        real_replace, real_remove = os.replace, os.remove

        def traced_open(path, flags, *args, **kwargs):
            fd = real_open(path, flags, *args, **kwargs)
            opened[fd] = os.path.basename(str(path))
            return fd

        def traced_fsync(fd):
            calls.append(("fsync", opened.get(fd, "file")))
            return real_fsync(fd)

        def traced_replace(src, dst):
            calls.append(("replace", os.path.basename(dst)))
            return real_replace(src, dst)

        def traced_remove(path):
            calls.append(("remove", os.path.basename(path)))
            return real_remove(path)

        monkeypatch.setattr(os, "open", traced_open)
        monkeypatch.setattr(os, "fsync", traced_fsync)
        monkeypatch.setattr(os, "replace", traced_replace)
        monkeypatch.setattr(os, "remove", traced_remove)
        return calls

    def test_fsync_orders_the_rename_before_what_depends_on_it(
        self, tmp_path, monkeypatch
    ):
        _, algorithm = fresh_eca()
        directory = os.path.join(str(tmp_path), "wal")
        wal = WriteAheadLog(directory, fsync=True)
        wal.append("event", {})
        first = wal.snapshot(algorithm)
        wal.append("event", {})
        calls = self.trace_calls(monkeypatch)
        second = wal.snapshot(algorithm)
        monkeypatch.undo()
        wal.close()
        assert calls == [
            ("fsync", "file"),  # the snapshot's temp file
            ("replace", _snapshot_name(second)),
            ("fsync", "wal"),  # the directory: the rename is on disk ...
            ("remove", _snapshot_name(first)),  # ... before the old one goes
            ("fsync", "file"),  # the emptied log's temp file
            ("replace", WAL_FILENAME),
            ("fsync", "wal"),
        ]

    def test_without_fsync_no_new_system_call(self, tmp_path, monkeypatch):
        _, algorithm = fresh_eca()
        directory = os.path.join(str(tmp_path), "wal")
        wal = WriteAheadLog(directory)
        wal.append("event", {})
        first = wal.snapshot(algorithm)
        wal.append("event", {})
        calls = self.trace_calls(monkeypatch)
        second = wal.snapshot(algorithm)
        monkeypatch.undo()
        wal.close()
        assert calls == [
            ("replace", _snapshot_name(second)),
            ("remove", _snapshot_name(first)),
            ("replace", WAL_FILENAME),
        ]


class TestLocking:
    """One WAL directory, one writer: ``wal.lock`` enforces exclusivity."""

    def lock_path(self, tmp_path):
        return os.path.join(str(tmp_path), LOCK_FILENAME)

    def test_lock_file_holds_owner_pid(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path))
        with open(self.lock_path(tmp_path), encoding="utf-8") as handle:
            assert int(handle.read()) == os.getpid()
        wal.close()

    def test_second_writer_is_rejected(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path))
        with pytest.raises(WalLocked):
            WriteAheadLog(str(tmp_path))
        wal.close()

    def test_close_releases_the_lock(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path))
        wal.append(RECV, {"n": 1})
        wal.close()
        assert not os.path.exists(self.lock_path(tmp_path))
        second = WriteAheadLog(str(tmp_path))
        assert second.append(RECV, {"n": 2}) == 2
        second.close()

    def test_stale_lock_from_dead_process_is_stolen(self, tmp_path):
        # A pid far above any live process: the holder crashed without
        # releasing, so a new writer may steal the lock.
        with open(self.lock_path(tmp_path), "w", encoding="utf-8") as handle:
            handle.write("999999999")
        wal = WriteAheadLog(str(tmp_path))
        with open(self.lock_path(tmp_path), encoding="utf-8") as handle:
            assert int(handle.read()) == os.getpid()
        wal.close()

    def test_unreadable_lock_body_counts_as_stale(self, tmp_path):
        with open(self.lock_path(tmp_path), "w", encoding="utf-8") as handle:
            handle.write("not-a-pid")
        wal = WriteAheadLog(str(tmp_path))
        wal.append(RECV, {})
        wal.close()

    def test_corrupt_log_does_not_leave_the_lock_behind(self, tmp_path):
        """A constructor that fails after taking the lock releases it:
        the second open reports the corruption again, not WalLocked."""
        wal = WriteAheadLog(str(tmp_path))
        for n in range(3):
            wal.append(RECV, {"n": n})
        wal.close()
        path = os.path.join(str(tmp_path), WAL_FILENAME)
        data = bytearray(open(path, "rb").read())
        data[len(data) // 2] ^= 0x01  # flip one byte mid-log
        with open(path, "wb") as handle:
            handle.write(bytes(data))
        for _ in range(2):
            with pytest.raises(WalCorruption):
                WriteAheadLog(str(tmp_path))
            assert not os.path.exists(self.lock_path(tmp_path))

    def test_wal_locked_is_a_durability_error(self):
        from repro.errors import DurabilityError

        assert issubclass(WalLocked, DurabilityError)

    def test_missing_parent_directories_are_created(self, tmp_path):
        nested = os.path.join(str(tmp_path), "a", "b", "shard-0")
        wal = WriteAheadLog(nested)
        wal.append(RECV, {"n": 1})
        wal.close()
        records, torn = read_records(nested)
        assert torn == 0 and [r["lsn"] for r in records] == [1]


class TestRecoverFromWal:
    def test_snapshot_plus_replay_rebuilds_pending_state(self, tmp_path):
        from repro.durability import encode_value

        source, algorithm = fresh_eca()
        wal = WriteAheadLog(str(tmp_path))
        wal.snapshot(algorithm)  # genesis
        update = insert("r1", (7, 2))
        source.apply_update(update)
        notification = UpdateNotification(update, 1)
        wal.append(
            RECV,
            {"channel": "source->wh", "origin": "source", "message": encode_value(notification)},
        )
        algorithm.handle_update(notification)
        wal.close()

        result = recover(str(tmp_path))
        assert result.replayed == 1
        assert result.snapshot_lsn == 0
        twin = result.algorithm
        assert twin.view_state() == algorithm.view_state()
        assert twin.pending_query_ids() == algorithm.pending_query_ids()
        assert [req for _, req in result.reissue] == [
            req for _, req in algorithm.pending_requests()
        ]

    def test_corrupt_newest_snapshot_is_an_error_not_a_stale_view(self, tmp_path):
        """Regression: a snapshot compacts the log away, so recovering from
        an *older* snapshot replays only the suffix after the newer one —
        a view silently missing everything in between.  A newest snapshot
        that fails its CRC must raise, naming the file."""
        from repro.durability import encode_value

        source, algorithm = fresh_eca()
        wal = WriteAheadLog(str(tmp_path))
        wal.snapshot(algorithm)  # genesis, lsn 0
        serial = 0

        def receive(row):
            nonlocal serial
            serial += 1
            update = insert("r1", row)
            source.apply_update(update)
            notification = UpdateNotification(update, serial)
            wal.append(
                RECV,
                {
                    "channel": "source->wh",
                    "origin": "source",
                    "message": encode_value(notification),
                },
            )
            algorithm.handle_update(notification)

        receive((7, 2))
        newest = wal.snapshot(algorithm)  # holds U1; the log is now empty
        receive((8, 3))
        wal.close()

        path = os.path.join(str(tmp_path), _snapshot_name(newest))
        body = bytearray(open(path, "rb").read())
        body[len(body) // 2] ^= 0x01
        open(path, "wb").write(bytes(body))

        with pytest.raises(WalCorruption, match=_snapshot_name(newest)):
            recover(str(tmp_path))

    def test_a_record_that_does_not_decode_is_reported_with_its_lsn(self, tmp_path):
        """Regression: ``decode_value`` raises ``CodecError``, which the
        handler for ``TypeError`` / ``KeyError`` let through unaddressed."""
        from repro.durability import encode_value

        _, algorithm = fresh_eca()
        wal = WriteAheadLog(str(tmp_path))
        wal.snapshot(algorithm)
        good = encode_value(UpdateNotification(insert("r1", (7, 2)), 1))
        bad = {"$": "msg.update", "update": {"$": "nope"}, "serial": 2}
        for message in (good, bad):  # sealed by the log itself: the CRCs hold
            wal.append(
                RECV, {"channel": "source->wh", "origin": "source", "message": message}
            )
        wal.close()
        with pytest.raises(RecoveryError, match="recv record at LSN 2") as caught:
            recover(str(tmp_path))
        assert isinstance(caught.value.__cause__, CodecError)
        assert "nope" in str(caught.value)

    def test_a_snapshot_that_does_not_decode_is_reported_with_its_file(self, tmp_path):
        from repro.durability.codec import canonical_json
        from repro.durability.wal import _seal

        _, algorithm = fresh_eca()
        wal = WriteAheadLog(str(tmp_path))
        wal.append("event", {})
        lsn = wal.snapshot(algorithm)
        wal.close()
        path = os.path.join(str(tmp_path), _snapshot_name(lsn))
        _, payload = read_latest_snapshot(str(tmp_path))
        payload["view"] = {"$": "nope"}
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(
                _seal(
                    {
                        "lsn": canonical_json(lsn),
                        "algo": canonical_json(payload),
                        "v": canonical_json(CODEC_VERSION),
                    }
                )
            )
        assert read_latest_snapshot(str(tmp_path))[0] == lsn  # the CRC holds
        with pytest.raises(RecoveryError, match=_snapshot_name(lsn)) as caught:
            recover(str(tmp_path))
        assert isinstance(caught.value.__cause__, CodecError)
        assert "nope" in str(caught.value)
