"""Integration: crash-fault injection + WAL recovery in the runtime.

The acceptance bar for the durability subsystem: a seeded
``run_concurrent`` run that kills and restarts the warehouse mid-UQS
under ECA on the paper's Example 2/3 workloads must recover via
snapshot + WAL replay and remain strongly consistent, and the same seed
must reproduce the identical crash point and trace.
"""

from __future__ import annotations

import os

import pytest

from repro.consistency import check_trace
from repro.core.eca import ECA
from repro.durability import (
    CODEC_VERSION,
    RECV,
    WriteAheadLog,
    canonical_json,
    decode_value,
    dumps_algorithm,
    encode_value,
    read_latest_snapshot,
    read_records,
    recover,
)
from repro.durability.wal import WAL_FILENAME, _seal, _snapshot_name
from repro.errors import RecoveryError, SimulationError
from repro.kernel.dispatch import dispatch_event
from repro.messaging.messages import QueryAnswer, UpdateNotification
from repro.relational.engine import evaluate_view
from repro.relational.schema import RelationSchema
from repro.relational.views import View
from repro.runtime import CrashPolicy, run_concurrent
from repro.simulation.trace import W_CRASH, W_REC
from repro.source.memory import MemorySource
from repro.warehouse.catalog import WarehouseCatalog
from repro.workloads.paper_examples import PAPER_EXAMPLES
from repro.workloads.random_gen import random_workload


def build_eca(scenario_name):
    scenario = PAPER_EXAMPLES[scenario_name]
    source = MemorySource(scenario.schemas, scenario.initial)
    warehouse = ECA(scenario.view, evaluate_view(scenario.view, source.snapshot()))
    return scenario, source, warehouse


def crash_run(scenario_name, seed, tmp_path, **crash_kwargs):
    scenario, source, warehouse = build_eca(scenario_name)
    crash_kwargs.setdefault("mode", "mid-uqs")
    crash_kwargs.setdefault("seed", seed)
    result = run_concurrent(
        source,
        warehouse,
        scenario.updates,
        clients=2,
        seed=seed,
        wal_dir=str(tmp_path),
        snapshot_every=4,
        crash=CrashPolicy(**crash_kwargs),
    )
    return scenario, result


class TestAcceptance:
    """Mid-UQS crash on the paper examples: recover + stay strong."""

    @pytest.mark.parametrize("scenario_name", ["example-2", "example-3"])
    @pytest.mark.parametrize("seed", range(4))
    def test_eca_survives_mid_uqs_crash(self, scenario_name, seed, tmp_path):
        scenario, result = crash_run(scenario_name, seed, tmp_path)
        assert len(result.crashes) == 1, "crash policy never fired"
        report = check_trace(scenario.view, result.trace)
        assert report.strongly_consistent, report.detail
        correct = evaluate_view(scenario.view, result.trace.final_source_state)
        assert result.final_view == correct

    def test_trace_records_crash_and_recovery(self, tmp_path):
        _, result = crash_run("example-2", 0, tmp_path)
        kinds = [event.kind for event in result.trace.events]
        assert kinds.count(W_CRASH) == 1
        assert kinds.count(W_REC) == 1
        assert kinds.index(W_CRASH) < kinds.index(W_REC)

    @pytest.mark.parametrize("scenario_name", ["example-2", "example-3"])
    def test_drop_sends_crash_reissues_lost_queries(
        self, scenario_name, tmp_path
    ):
        scenario, result = crash_run(
            scenario_name, 2, tmp_path, drop_sends=True
        )
        assert len(result.crashes) == 1
        assert result.crashes[0]["reissued"] >= 1
        report = check_trace(scenario.view, result.trace)
        assert report.strongly_consistent, report.detail

    def test_multiple_crashes_in_one_run(self, tmp_path):
        scenario, result = crash_run(
            "example-2", 1, tmp_path, max_crashes=2, skip=0
        )
        assert len(result.crashes) == 2
        report = check_trace(scenario.view, result.trace)
        assert report.strongly_consistent, report.detail

    def test_event_mode_pins_exact_boundary(self, tmp_path):
        scenario, result = crash_run(
            "example-2", 0, tmp_path, mode="event", at=2
        )
        assert [c["event_index"] for c in result.crashes] == [2]
        assert check_trace(scenario.view, result.trace).strongly_consistent


class TestDeterminism:
    def test_same_seed_same_crash_point_and_trace(self, tmp_path):
        runs = []
        for sub in ("a", "b"):
            directory = tmp_path / sub
            directory.mkdir()
            runs.append(crash_run("example-2", 3, directory)[1])
        first, second = runs
        assert first.crashes == second.crashes
        assert [repr(e) for e in first.trace.events] == [
            repr(e) for e in second.trace.events
        ]
        assert first.trace.view_states == second.trace.view_states

    def test_different_seeds_pick_different_points(self, tmp_path):
        points = set()
        for seed in range(4):
            directory = tmp_path / str(seed)
            directory.mkdir()
            _, result = crash_run("example-2", seed, directory)
            points.add(result.crashes[0]["event_index"])
        assert len(points) > 1


class TestReadersSurviveTheSwap:
    def test_client_holding_the_unit_reads_the_recovered_incarnation(self, tmp_path):
        schemas = [RelationSchema("r1", ("W", "X")), RelationSchema("r2", ("X", "Y"))]
        initial = {"r1": [(1, 2), (2, 3)], "r2": [(2, 5), (3, 6)]}
        view = View.natural_join("V", schemas, ["W", "Y"])
        source = MemorySource(schemas, initial)
        warehouse = ECA(view, evaluate_view(view, source.snapshot()))
        result = run_concurrent(
            source,
            warehouse,
            random_workload(schemas, 12, seed=1, initial=initial),
            clients=1,
            client_reads=30,
            max_burst=1,
            seed=1,
            wal_dir=str(tmp_path),
            crash=CrashPolicy(mode="mid-uqs", skip=0, seed=1),
        )
        assert len(result.crashes) == 1
        # The incarnation the run started with died mid-UQS: its view
        # froze at the crash point and never reached the final state.
        assert warehouse.view_state() != result.final_view
        observed = [state for _, state in result.observations["client-0"]]
        assert all(state in result.trace.view_states for state in observed)
        # The client read through the one object it was handed at start-up
        # and kept up with the recovered incarnation all the way.
        assert observed[-1] == result.final_view
        assert result.final_view == evaluate_view(
            view, result.trace.final_source_state
        )


class TestWiderTopologies:
    def test_catalog_over_two_sources_recovers(self, tmp_path):
        a = [RelationSchema("a1", ("W", "X")), RelationSchema("a2", ("X", "Y"))]
        b = [RelationSchema("b1", ("P", "Q")), RelationSchema("b2", ("Q", "R"))]
        ia = {"a1": [(1, 2)], "a2": [(2, 4)]}
        ib = {"b1": [(7, 8)], "b2": [(8, 9)]}
        va = View.natural_join("VA", a, ["W"])
        vb = View.natural_join("VB", b, ["P"])
        sa, sb = MemorySource(a, ia), MemorySource(b, ib)
        catalog = WarehouseCatalog(
            {
                "VA": ECA(va, evaluate_view(va, sa.snapshot())),
                "VB": ECA(vb, evaluate_view(vb, sb.snapshot())),
            }
        )
        workload = random_workload(a, 5, seed=1, initial=ia) + random_workload(
            b, 5, seed=2, initial=ib
        )
        result = run_concurrent(
            {"alpha": sa, "beta": sb},
            catalog,
            workload,
            clients=2,
            seed=6,
            wal_dir=str(tmp_path),
            snapshot_every=4,
            crash=CrashPolicy(mode="mid-uqs", seed=6),
        )
        assert len(result.crashes) == 1
        assert check_trace(catalog, result.trace).convergent

    def test_wal_without_crash_changes_nothing(self, tmp_path):
        scenario, source, warehouse = build_eca("example-2")
        logged = run_concurrent(
            source,
            warehouse,
            scenario.updates,
            clients=2,
            seed=5,
            wal_dir=str(tmp_path),
        )
        scenario, source, warehouse = build_eca("example-2")
        plain = run_concurrent(
            source, warehouse, scenario.updates, clients=2, seed=5
        )
        assert [repr(e) for e in logged.trace.events] == [
            repr(e) for e in plain.trace.events
        ]
        assert logged.final_view == plain.final_view
        assert logged.wal_stats is not None
        assert logged.wal_stats["records"] > 0
        assert plain.wal_stats is None

    def test_crash_without_wal_dir_is_refused(self):
        scenario, source, warehouse = build_eca("example-2")
        with pytest.raises(SimulationError, match="wal_dir"):
            run_concurrent(
                source,
                warehouse,
                scenario.updates,
                seed=0,
                crash=CrashPolicy(),
            )

    def test_crash_shard_without_shards_is_refused(self, tmp_path):
        scenario, source, warehouse = build_eca("example-2")
        with pytest.raises(SimulationError, match="crash_shard=1 requires shards="):
            run_concurrent(
                source,
                warehouse,
                scenario.updates,
                seed=0,
                wal_dir=str(tmp_path),
                crash=CrashPolicy(),
                crash_shard=1,
            )

    def test_failed_run_releases_its_wal_lock(self, tmp_path, monkeypatch):
        """An actor exception must not leave ``wal.lock`` behind.

        The lock names this live pid, so a leaked one makes the directory
        unopenable for the rest of the process (``WalLocked``).
        """

        def explode(self, source, answer):
            raise RuntimeError("algorithm blew up mid-run")

        monkeypatch.setattr(ECA, "on_answer", explode)
        scenario, source, warehouse = build_eca("example-2")
        with pytest.raises(RuntimeError, match="blew up"):
            run_concurrent(
                source, warehouse, scenario.updates, seed=0, wal_dir=str(tmp_path)
            )
        reopened = WriteAheadLog(str(tmp_path))
        assert reopened.last_lsn > 0, "the failed run's records were flushed"
        reopened.close()

    def test_fault_counters_surface_in_metrics_table(self, tmp_path):
        from repro.runtime import FaultPlan

        scenario, source, warehouse = build_eca("example-2")
        result = run_concurrent(
            source,
            warehouse,
            scenario.updates,
            clients=1,
            faults=FaultPlan(latency=1.0, jitter=4.0, drop_rate=0.4),
            seed=3,
        )
        rows = {row["actor"]: row for row in result.metrics_table()}
        channel_rows = [r for r in rows.values() if r["role"] == "channel"]
        assert channel_rows, "metrics_table must include channel rows"
        assert any(r["dropped"] > 0 for r in channel_rows)
        for row in channel_rows:
            assert {"dropped", "retries", "reordered"} <= set(row)


class TestTheLogHoldsWhatRecoveryReplays:
    """The warehouse appends one ``recv`` record per atomic event and
    nothing else, so a replay is shorter than ``snapshot_every``; a directory
    whose log also holds the ``send`` / ``event`` records older writers
    appended still recovers, with those records skipped."""

    def test_a_directory_with_send_and_event_records_recovers_the_same(
        self, tmp_path
    ):
        scenario, source, live = build_eca("example-2")
        directories = {
            "older": str(tmp_path / "older"),
            "recv-only": str(tmp_path / "recv-only"),
        }
        wals = {name: WriteAheadLog(path) for name, path in directories.items()}
        for wal in wals.values():
            wal.snapshot(live)

        requests = []

        def receive(message):
            record = {"channel": "source->wh", "origin": "source"}
            record["message"] = encode_value(message)
            for wal in wals.values():
                wal.append(RECV, record)
            kind, detail, routed, _ = dispatch_event(live, "source", message)
            older = wals["older"]
            for destination, request in routed:
                older.append(
                    "send",
                    {
                        "destination": destination or "source",
                        "query_id": request.query_id,
                        "reissued": False,
                    },
                )
            older.append("event", {"index": len(requests), "kind": kind, "detail": detail})
            requests.extend(request for _, request in routed)

        # U1 and U2 ship Q1 and Q2; A1, evaluated after U2, lands in
        # COLLECT while Q2 is still pending.
        for serial, update in enumerate(scenario.updates, start=1):
            source.apply_update(update)
            receive(UpdateNotification(update, serial))
        first = requests[0]
        receive(QueryAnswer(first.query_id, source.evaluate(first.query)))
        for wal in wals.values():
            wal.close()
        assert live.pending_query_ids() and live.pending_state()["collect"]
        types = [r["type"] for r in read_records(directories["older"])[0]]
        assert {"send", "event"} <= set(types)

        for path in directories.values():
            recovered = recover(path)
            assert recovered.replayed == 3
            algorithm = recovered.algorithm
            assert algorithm.view_state() == live.view_state()
            assert algorithm.pending_state()["collect"] == live.pending_state()["collect"]
            assert algorithm.pending_query_ids() == live.pending_query_ids()
            assert dumps_algorithm(algorithm) == dumps_algorithm(live)
            assert [
                (destination, request.query_id, request.query)
                for destination, request in recovered.reissue
            ] == [
                (destination, request.query_id, request.query)
                for destination, request in live.pending_requests()
            ]

    @pytest.mark.parametrize("batch_k", [1, 4])
    @pytest.mark.parametrize(
        "mode, at", [("mid-uqs", None), ("after-answer", None), ("event", 5)]
    )
    def test_every_record_is_a_recv_and_every_replay_is_bounded(
        self, tmp_path, mode, at, batch_k
    ):
        snapshot_every = 3
        schemas = [RelationSchema("r1", ("W", "X")), RelationSchema("r2", ("X", "Y"))]
        initial = {"r1": [(1, 2), (2, 3)], "r2": [(2, 5), (3, 6)]}
        view = View.natural_join("V", schemas, ["W", "Y"])
        crashed = 0
        for seed in range(3):
            directory = str(tmp_path / str(seed))
            source = MemorySource(schemas, initial)
            result = run_concurrent(
                source,
                ECA(view, evaluate_view(view, source.snapshot())),
                random_workload(schemas, 12, seed=seed, initial=initial),
                clients=1,
                seed=seed,
                batch_k=batch_k,
                wal_dir=directory,
                snapshot_every=snapshot_every,
                crash=CrashPolicy(mode=mode, at=at, max_crashes=2, seed=seed),
            )
            crashed += len(result.crashes)
            records, torn = read_records(directory)
            assert torn == 0
            assert all(record["type"] == RECV for record in records)
            with open(os.path.join(directory, WAL_FILENAME), encoding="utf-8") as log:
                assert all('"type":"recv"' in line for line in log)
            # One append per atomic warehouse event.
            events = [
                event.kind
                for event in result.trace.events
                if event.kind.startswith("W_") and event.kind not in (W_CRASH, W_REC)
            ]
            assert result.wal_stats["records"] == len(events)
            replays = [crash["replayed"] for crash in result.crashes]
            replays.append(recover(directory).replayed)
            assert max(replays) < snapshot_every
        assert crashed > 0


class TestOtherCodecVersions:
    """Regression: only ``dumps`` envelopes carried the codec version, so
    a WAL directory written before codec v4 was not refused — it died
    inside the query decoder (``malformed 'query' payload: 'shapes'``)."""

    def v3_directory(self, tmp_path, stamp):
        """A directory as the v3 tree left it mid-UQS: the pending query
        in the v3 form (a list of self-contained ``term`` objects), the
        snapshot sealed with ``stamp`` as its ``v``, or with none."""
        scenario, _, warehouse = build_eca("example-2")
        warehouse.on_update("source", UpdateNotification(scenario.updates[0], 1))
        wal = WriteAheadLog(str(tmp_path))
        lsn = wal.snapshot(warehouse)
        wal.close()
        _, payload = read_latest_snapshot(str(tmp_path))

        def to_v3(node):
            if isinstance(node, list):
                return [to_v3(item) for item in node]
            if not isinstance(node, dict):
                return node
            if node.get("$") == "query":
                terms = decode_value(node).terms
                return {"$": "query", "terms": [encode_value(term) for term in terms]}
            return {key: to_v3(value) for key, value in node.items()}

        downgraded = to_v3(payload)
        assert downgraded != payload, "the snapshot holds a pending query"
        fields = {"lsn": canonical_json(lsn), "algo": canonical_json(downgraded)}
        if stamp is not None:
            fields["v"] = canonical_json(stamp)
        path = os.path.join(str(tmp_path), _snapshot_name(lsn))
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(_seal(fields) + "\n")
        return path

    def contents(self, tmp_path):
        return {
            name: open(os.path.join(str(tmp_path), name), "rb").read()
            for name in sorted(os.listdir(str(tmp_path)))
        }

    @pytest.mark.parametrize("stamp, written", [(3, "v3"), (None, "before v4")])
    def test_another_versions_directory_is_refused_by_version(
        self, tmp_path, stamp, written
    ):
        path = self.v3_directory(tmp_path, stamp)
        before = self.contents(tmp_path)
        with pytest.raises(RecoveryError) as caught:
            recover(str(tmp_path))
        message = str(caught.value)
        assert os.path.basename(path) in message
        assert written in message and f"v{CODEC_VERSION}" in message
        assert "\n" not in message and "malformed" not in message
        assert self.contents(tmp_path) == before

    def test_this_versions_stamp_is_what_lets_a_directory_in(self, tmp_path):
        self.v3_directory(tmp_path, CODEC_VERSION)  # the right stamp, v3 payload
        with pytest.raises(RecoveryError, match="malformed 'query' payload"):
            recover(str(tmp_path))
