"""Unit tests for the write-ahead log (``repro.durability.wal``)."""

import json
import os
import re

import pytest

from repro.durability import (
    CODEC_VERSION,
    RECV,
    WriteAheadLog,
    dumps_algorithm,
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
from repro.relational.bag import SignedBag
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
        assert wal.append({"n": 1}) == 1
        assert wal.append({"n": 2}) == 2
        wal.close()
        records, torn = read_records(str(tmp_path))
        assert torn == 0
        assert [(r["lsn"], r["type"]) for r in records] == [(1, RECV), (2, RECV)]
        assert [r["data"] for r in records] == [{"n": 1}, {"n": 2}]

    def test_reopen_resumes_lsn_sequence(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path))
        wal.append({})
        wal.close()
        wal = WriteAheadLog(str(tmp_path))
        assert wal.append({}) == 2
        wal.close()

    def test_missing_file_reads_empty(self, tmp_path):
        assert read_records(str(tmp_path)) == ([], 0)


class TestCorruption:
    def write_two(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path))
        wal.append({"n": 1})
        wal.append({"n": 2})
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
        wal.append({})
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
        wal.append({"n": 3})  # must not weld onto the partial line
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
        wal.append({})
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
            wal.append({"n": n})
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
            wal.append({})
            assert wal.maybe_snapshot(algorithm) is None
        wal.append({})
        assert wal.maybe_snapshot(algorithm) == 3
        assert wal.snapshots_taken == 1
        wal.close()

    def test_old_snapshots_pruned(self, tmp_path):
        """The directory holds one chain: a root, then deltas, each naming
        the link before it, whose bytes stay within the root's.  The
        snapshot that would take them past it is a new root, and
        installing it removes every other snapshot.  Every snapshot
        empties the log, and the chain recovers the live algorithm."""
        _, algorithm = fresh_eca()
        wal = WriteAheadLog(str(tmp_path))
        roots = []
        for n in range(40):
            algorithm.mv.apply_delta(SignedBag({(100 + n, n): 1}))
            wal.append({})
            lsn = wal.snapshot(algorithm)
            lsns = sorted(
                int(name[len(SNAPSHOT_PREFIX) : -len(".json")])
                for name in os.listdir(str(tmp_path))
                if name.startswith(SNAPSHOT_PREFIX)
            )
            bodies = [
                json.loads(open(os.path.join(str(tmp_path), _snapshot_name(at))).read())
                for at in lsns
            ]
            sizes = [
                os.path.getsize(os.path.join(str(tmp_path), _snapshot_name(at)))
                for at in lsns
            ]
            assert lsns[-1] == lsn and "base" not in bodies[0]
            assert [body["base"] for body in bodies[1:]] == lsns[:-1]
            assert sum(sizes[1:]) <= sizes[0]
            if len(lsns) == 1:
                roots.append(lsn)
            assert os.path.getsize(wal_path(tmp_path)) == 0
            assert dumps_algorithm(recover(str(tmp_path)).algorithm) == dumps_algorithm(
                algorithm
            )
        wal.close()
        assert len(roots) >= 3 and roots[0] == 1

    def test_a_snapshot_holding_no_query_differs_from_v3_only_by_the_stamp(
        self, tmp_path
    ):
        """Codec v4 changed the ``query`` form, v5 added the planner's
        ``issued`` / ``saved`` counts, v6 wrote bags of scalar rows as
        columns and v7 deleted forms an ECA catalog never wrote, and
        nothing else: ``algo``, ``algo.catalog``, ``view``, the pending
        dicts are byte for byte what they were, and a bag is the same
        rows and counts."""
        from repro.core.eca import ECA
        from repro.warehouse.catalog import WarehouseCatalog

        source = MemorySource(SCHEMAS, INITIAL)
        members = {}
        for name, projection in (("V", ["W", "Y"]), ("P", ["Y"])):
            view = View.natural_join(name, SCHEMAS, projection)
            members[name] = ECA(view, evaluate_view(view, source.snapshot()))
        wal = WriteAheadLog(str(tmp_path))
        wal.append({})
        lsn = wal.snapshot(WarehouseCatalog(members, share_compensation=True))
        wal.close()
        with open(os.path.join(str(tmp_path), _snapshot_name(lsn))) as handle:
            text = handle.read()
        assert text.endswith(f',"lsn":1,"v":{CODEC_VERSION}}}\n')

        def as_pairs(node):
            """Column bags rewritten as the ``pairs`` form v3 wrote."""
            if isinstance(node, list):
                return [as_pairs(item) for item in node]
            if not isinstance(node, dict):
                return node
            if "columns" in node:
                rows = zip(*node["columns"])
                pairs = [
                    [{"$": "tuple", "items": list(row)}, count]
                    for row, count in zip(rows, node["counts"])
                ]
                return {"$": node["$"], "pairs": pairs}
            return {key: as_pairs(value) for key, value in node.items()}

        body, v3 = json.loads(text), json.loads(V3_CATALOG_SNAPSHOT)
        del body["crc"], v3["crc"]  # the CRC covers the stamp, so it moved too
        assert body.pop("v") == CODEC_VERSION
        assert canonical_json(as_pairs(body)).replace(
            ',["issued",0],["saved",0]', ""
        ) == canonical_json(v3)

    def test_no_snapshot_raises_recovery_error(self, tmp_path):
        with pytest.raises(RecoveryError):
            read_latest_snapshot(str(tmp_path))

    def test_all_snapshots_invalid_raises_corruption(self, tmp_path):
        _, algorithm = fresh_eca()
        wal = WriteAheadLog(str(tmp_path))
        wal.append({})
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
        wal.append({"n": 1})
        lsn = wal.snapshot(algorithm)
        update = UpdateNotification(insert("r1", (9, 9)), 1)
        wal.append({"channel": "source->wh", "origin": "source", "message": update})
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
        wal.append({})
        first = wal.snapshot(algorithm)
        wal.append({})
        calls = self.trace_calls(monkeypatch)
        second = wal.snapshot(algorithm)  # a delta: nothing to remove
        monkeypatch.undo()
        assert calls == [
            ("fsync", "file"),  # the snapshot's temp file
            ("replace", _snapshot_name(second)),
            ("fsync", "wal"),  # the directory: the rename is on disk ...
            ("fsync", "file"),  # ... before the log is emptied in place
        ]
        wal.close()
        wal = WriteAheadLog(directory, fsync=True)
        wal.append({})
        calls = self.trace_calls(monkeypatch)
        third = wal.snapshot(algorithm)  # a handle's first: a root
        monkeypatch.undo()
        wal.close()
        assert calls == [
            ("fsync", "file"),  # the snapshot's temp file
            ("replace", _snapshot_name(third)),
            ("fsync", "wal"),  # the directory: the rename is on disk ...
            ("remove", _snapshot_name(first)),  # ... before the old chain goes
            ("remove", _snapshot_name(second)),
            ("fsync", "file"),  # the log, emptied in place
        ]

    def test_without_fsync_no_new_system_call(self, tmp_path, monkeypatch):
        _, algorithm = fresh_eca()
        directory = os.path.join(str(tmp_path), "wal")
        wal = WriteAheadLog(directory)
        wal.append({})
        first = wal.snapshot(algorithm)
        wal.append({})
        calls = self.trace_calls(monkeypatch)
        second = wal.snapshot(algorithm)
        monkeypatch.undo()
        wal.close()
        wal = WriteAheadLog(directory)
        wal.append({})
        more = self.trace_calls(monkeypatch)
        third = wal.snapshot(algorithm)
        monkeypatch.undo()
        wal.close()
        assert calls == [("replace", _snapshot_name(second))]
        assert more == [
            ("replace", _snapshot_name(third)),
            ("remove", _snapshot_name(first)),
            ("remove", _snapshot_name(second)),
        ]


class TestCompactionByTruncation:
    """A snapshot empties ``wal.jsonl`` in place once the snapshot is
    renamed into place.  A crash in between leaves records the snapshot
    covers: recovery skips them by LSN, and a reopened log appends after
    them."""

    def log(self, wal, algorithm, source, serial, row):
        update = insert("r1", row)
        source.apply_update(update)
        message = UpdateNotification(update, serial)
        wal.append({"channel": "source->wh", "origin": "source", "message": message})
        algorithm.on_update("source", message)

    @pytest.mark.parametrize("fsync", [False, True], ids=["flush", "fsync"])
    def test_a_crash_between_the_rename_and_the_truncation_recovers(
        self, tmp_path, monkeypatch, fsync
    ):
        directory = str(tmp_path)
        source, algorithm = fresh_eca()
        wal = WriteAheadLog(directory, fsync=fsync)
        wal.snapshot(algorithm)
        self.log(wal, algorithm, source, 1, (7, 2))
        self.log(wal, algorithm, source, 2, (8, 3))
        monkeypatch.setattr(WriteAheadLog, "_compact", lambda self: None)
        lsn = wal.snapshot(algorithm)  # renamed into place, log not emptied
        wal.close()
        monkeypatch.undo()
        records, torn = read_records(directory)
        assert (lsn, [r["lsn"] for r in records], torn) == (2, [1, 2], 0)
        result = recover(directory)
        assert (result.snapshot_lsn, result.last_lsn, result.replayed) == (2, 2, 0)
        assert dumps_algorithm(result.algorithm) == dumps_algorithm(algorithm)

        recovered = result.algorithm
        wal = WriteAheadLog(directory, fsync=fsync)
        self.log(wal, recovered, source, 3, (9, 2))
        wal.close()
        result = recover(directory)
        assert (result.snapshot_lsn, result.last_lsn, result.replayed) == (2, 3, 1)
        assert dumps_algorithm(result.algorithm) == dumps_algorithm(recovered)

    def test_the_log_is_emptied_in_place(self, tmp_path):
        source, algorithm = fresh_eca()
        wal = WriteAheadLog(str(tmp_path))
        self.log(wal, algorithm, source, 1, (7, 2))
        inode = os.stat(wal_path(tmp_path)).st_ino
        wal.snapshot(algorithm)
        assert os.path.getsize(wal_path(tmp_path)) == 0
        self.log(wal, algorithm, source, 2, (8, 3))
        wal.close()
        assert os.stat(wal_path(tmp_path)).st_ino == inode
        assert [r["lsn"] for r in read_records(str(tmp_path))[0]] == [2]


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
        wal.append({"n": 1})
        wal.close()
        assert not os.path.exists(self.lock_path(tmp_path))
        second = WriteAheadLog(str(tmp_path))
        assert second.append({"n": 2}) == 2
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
        wal.append({})
        wal.close()

    def test_corrupt_log_does_not_leave_the_lock_behind(self, tmp_path):
        """A constructor that fails after taking the lock releases it:
        the second open reports the corruption again, not WalLocked."""
        wal = WriteAheadLog(str(tmp_path))
        for n in range(3):
            wal.append({"n": n})
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
        wal.append({"n": 1})
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
            {"channel": "source->wh", "origin": "source", "message": encode_value(notification)}
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

    @pytest.mark.parametrize("depth", [4, 16, 48])
    def test_a_replayed_suffix_rebuilds_the_live_view(self, tmp_path, depth):
        """Snapshot at genesis only, then ``depth`` updates and their
        answers logged: recovery replays them all to the live view."""
        from repro.durability import encode_value
        from repro.messaging.messages import QueryAnswer
        from repro.workloads.random_gen import random_workload

        source, algorithm = fresh_eca()
        wal = WriteAheadLog(str(tmp_path))
        wal.snapshot(algorithm)

        def log(message):
            body = {"channel": "source->wh", "origin": "source"}
            wal.append(dict(body, message=encode_value(message)))

        for serial, update in enumerate(
            random_workload(SCHEMAS, depth, seed=7, initial=INITIAL), start=1
        ):
            source.apply_update(update)
            notification = UpdateNotification(update, serial)
            log(notification)
            for request in algorithm.handle_update(notification):
                answer = QueryAnswer(request.query_id, source.evaluate(request.query))
                log(answer)
                algorithm.handle_answer(answer)
        wal.close()
        assert recover(str(tmp_path)).algorithm.view_state() == algorithm.view_state()

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
                {
                    "channel": "source->wh",
                    "origin": "source",
                    "message": encode_value(notification),
                }
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
                {"channel": "source->wh", "origin": "source", "message": message}
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
        wal.append({})
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


class TestMalformedChain:
    """A snapshot chain that does not lead from the newest snapshot back
    to a root of this codec version, link by link, is refused with one
    typed error naming the offending file — never an untyped exception,
    never a silently older view."""

    def eca(self, name="V", projection=("W", "Y")):
        """ECA over a view of 200 rows, so a root outweighs a few deltas
        (a row costs a root about 8 bytes as columns)."""
        from repro.core.eca import ECA

        view = View.natural_join(name, SCHEMAS, list(projection))
        initial = {"r1": [(w, w % 3) for w in range(300)], "r2": [(0, 5), (1, 6)]}
        source = MemorySource(SCHEMAS, initial)
        return ECA(view, evaluate_view(view, source.snapshot()))

    def chain(self, tmp_path, algorithm=None, rows=((70, 2), (71, 1), (72, 0))):
        """A root at LSN 0, deltas at LSNs 1 and 2, and one ``recv``
        record behind the last: ``(directory, the three file names)``."""
        from repro.durability import encode_value

        directory = str(tmp_path)
        algorithm = algorithm or self.eca()
        wal = WriteAheadLog(directory)
        wal.snapshot(algorithm)
        for serial, row in enumerate(rows, start=1):
            notification = UpdateNotification(insert("r1", row), serial)
            data = {"origin": "source", "message": encode_value(notification)}
            wal.append({"channel": "source->wh", **data})
            algorithm.on_update("source", notification)
            if serial < len(rows):
                wal.snapshot(algorithm)
        wal.close()
        names = sorted(n for n in os.listdir(directory) if n.startswith(SNAPSHOT_PREFIX))
        assert names == [_snapshot_name(lsn) for lsn in range(3)]
        return directory, names

    def reseal(self, directory, name, change):
        """Rewrite one snapshot with ``change`` applied to its fields,
        sealed again so that its CRC holds."""
        path = os.path.join(directory, name)
        fields = json.loads(open(path, encoding="utf-8").read())
        del fields["crc"]
        change(fields)
        sealed = _seal({key: canonical_json(value) for key, value in fields.items()})
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(sealed + "\n")

    def refused(self, directory, name):
        with pytest.raises((RecoveryError, WalCorruption)) as caught:
            recover(directory)
        assert name in str(caught.value)
        return str(caught.value)

    def test_the_chain_recovers_the_live_algorithm(self, tmp_path):
        algorithm = self.eca()
        directory, _ = self.chain(tmp_path, algorithm)
        result = recover(directory)
        assert (result.snapshot_lsn, result.replayed) == (2, 1)
        assert dumps_algorithm(result.algorithm) == dumps_algorithm(algorithm)

    def test_a_missing_base(self, tmp_path):
        directory, names = self.chain(tmp_path)
        os.remove(os.path.join(directory, names[1]))
        assert "does not exist" in self.refused(directory, names[1])

    def test_a_missing_newest_link_is_not_a_shorter_chain(self, tmp_path):
        directory, names = self.chain(tmp_path)
        os.remove(os.path.join(directory, names[2]))
        assert "missing" in self.refused(directory, names[2])

    @pytest.mark.parametrize("base", [2, 5, -1, "1", None])
    def test_a_base_not_below_the_links_own_lsn(self, tmp_path, base):
        directory, names = self.chain(tmp_path)
        self.reseal(directory, names[2], lambda fields: fields.update(base=base))
        self.refused(directory, names[2])

    def test_a_base_that_names_no_file(self, tmp_path):
        directory, names = self.chain(tmp_path)
        os.rename(os.path.join(directory, names[0]), os.path.join(directory, "kept"))
        self.reseal(directory, names[1], lambda fields: fields.update(base=0))
        assert "does not exist" in self.refused(directory, names[1])

    def test_a_cycle(self, tmp_path):
        """The root names the newest link as its base: no walk from the
        newest snapshot ends at a root."""
        directory, names = self.chain(tmp_path)
        self.reseal(directory, names[0], lambda fields: fields.update(base=2))
        self.refused(directory, names[0])

    @pytest.mark.parametrize("stamp", [4, 5, 6, 8])
    def test_a_link_of_another_codec_version(self, tmp_path, stamp):
        directory, names = self.chain(tmp_path)
        self.reseal(directory, names[1], lambda fields: fields.update(v=stamp))
        message = self.refused(directory, names[1])
        assert f"v{stamp}" in message and f"v{CODEC_VERSION}" in message

    def test_a_v4_directory_is_refused_by_version(self, tmp_path):
        directory, names = self.chain(tmp_path)
        for name in names[1:]:
            os.remove(os.path.join(directory, name))
        os.remove(wal_path(tmp_path))
        self.reseal(directory, names[0], lambda fields: fields.update(v=4))
        assert "v4" in self.refused(directory, names[0])

    def test_a_v5_directory_is_refused_by_version(self, tmp_path):
        """Codec v6 writes bags as columns and quotes a root's UQS: a
        directory of the v5 tree is refused by its stamp, before any of
        it is decoded."""
        directory, names = self.chain(tmp_path)
        for name in names[1:]:
            os.remove(os.path.join(directory, name))
        os.remove(wal_path(tmp_path))
        self.reseal(directory, names[0], lambda fields: fields.update(v=5))
        with pytest.raises(RecoveryError) as caught:
            recover(directory)
        message = str(caught.value)
        assert names[0] in message and "v5" in message
        assert f"v{CODEC_VERSION}" in message

    def test_a_v6_directory_is_refused_by_version(self, tmp_path):
        """Codec v7 writes a lone term as a one-term query and an
        algorithm's pending bag as a bag: a chain the v6 tree wrote is
        refused by its stamps, before any of it is decoded."""
        directory, names = self.chain(tmp_path)
        for name in names:
            self.reseal(directory, name, lambda fields: fields.update(v=6))
        with pytest.raises(RecoveryError) as caught:
            recover(directory)
        message = str(caught.value)
        assert names[-1] in message and "v6" in message and "v7" in message

    def test_a_malformed_column_bag_in_a_link(self, tmp_path):
        directory, names = self.chain(tmp_path)
        ragged = {"$": "bag.delta", "columns": [[80, 81], [5]], "counts": [1, 1]}
        self.reseal(directory, names[2], lambda fields: fields["algo"].update(mv=ragged))
        assert "ragged columns" in self.refused(directory, names[2])

    def test_a_catalog_delta_naming_a_member_its_base_lacks(self, tmp_path):
        from repro.warehouse.catalog import WarehouseCatalog

        members = {"V": self.eca(), "P": self.eca("P", ("W",))}
        directory, names = self.chain(tmp_path, WarehouseCatalog(members))

        def rename_member(fields):
            (member,) = [m for m in fields["algo"]["members"] if m[0] == "P"]
            member[0] = "Q"

        self.reseal(directory, names[1], rename_member)
        assert "'Q'" in self.refused(directory, names[1])

    def test_damage_anywhere_in_any_link_is_refused(self, tmp_path):
        """Each link deleted, every 97th byte flipped, cut at every 64th
        byte.  The one cut that is no damage — the final newline alone —
        must recover what the intact chain does."""
        directory, names = self.chain(tmp_path)
        intact = dumps_algorithm(recover(directory).algorithm)
        for name in names:
            path = os.path.join(directory, name)
            data = open(path, "rb").read()
            damaged = [None]
            damaged += [
                data[:at] + bytes([data[at] ^ 0x01]) + data[at + 1 :]
                for at in range(0, len(data), 97)
            ]
            damaged += [data[:at] for at in range(0, len(data), 64)]
            for variant in damaged:
                if variant is None:
                    os.remove(path)
                else:
                    with open(path, "wb") as handle:
                        handle.write(variant)
                if variant == data[:-1]:
                    assert dumps_algorithm(recover(directory).algorithm) == intact
                else:
                    self.refused(directory, name)
            with open(path, "wb") as handle:
                handle.write(data)
        assert dumps_algorithm(recover(directory).algorithm) == intact
