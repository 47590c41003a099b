"""End-to-end sharding: a partitioned warehouse equals its unsharded twin.

The cross-shard consistency proofs for ``repro.sharding``:

- **Equivalence** — the merged final view of an N-shard run equals the
  unsharded catalog's, for every partitioner and shard count.
- **Conformance** — a 2-shard run's merged action log replays on the
  single-shard :class:`~repro.kernel.sync.SyncKernel`, and every member
  view walks the identical (deduplicated) state sequence.
- **Cut consistency** — the merged trace follows a monotone path of
  consistent cuts (sources here are per-view disjoint, so the tagged
  union is exactly cut-consistent), and each member view is strongly
  consistent on its own shard's timeline.
- **Batching** — ``batch_k > 1`` coalesces per ``(origin, shard)``
  channel; the merged view equals recompute and the unsharded batched
  run's, also when the batching shard crashes.
- **Recovery** — one shard crashes and replays its own WAL while the
  others keep serving; the merged final view is unchanged.
- **Classes** — a class of equal views lives on one shard under every
  partitioner, and an explicit table that would split it is refused.
"""

from __future__ import annotations

import os

import pytest

from repro.core.eca import ECA
from repro.durability.crash import CrashPolicy
from repro.errors import ProtocolError, SimulationError, TransportClosed, WalLocked
from repro.kernel import replay_concurrent
from repro.kernel.dispatch import relation_owners
from repro.messaging.messages import QueryAnswer
from repro.multisource.consistency import check_cut_consistency, cut_report
from repro.obs import Observability
from repro.relational.bag import SignedBag
from repro.relational.engine import evaluate_view
from repro.relational.schema import RelationSchema
from repro.relational.views import View
from repro.runtime import FaultPlan, run_concurrent
from repro.sharding import ExplicitPartitioner, plan_shards, shard_channel
from repro.simulation.trace import S_QU, W_CRASH, project_view
from repro.warehouse.catalog import WarehouseCatalog
from repro.workloads.random_gen import random_workload


def build(n_views, updates=6, seed=0):
    """N per-view-disjoint sources, a catalog over their join views."""
    sources = {}
    algorithms = {}
    workloads = {}
    for index in range(n_views):
        prefix = f"s{index}"
        schemas = [
            RelationSchema(f"{prefix}r1", ("W", "X"), key=("W",)),
            RelationSchema(f"{prefix}r2", ("X", "Y"), key=("Y",)),
        ]
        initial = {
            f"{prefix}r1": [(1, 2), (2, 3)],
            f"{prefix}r2": [(2, 5), (3, 6)],
        }
        from repro.source.memory import MemorySource

        source = MemorySource(schemas, initial)
        sources[prefix] = source
        view = View.natural_join(f"V{index}", schemas, ["W", "Y"])
        algorithms[f"V{index}"] = ECA(
            view, evaluate_view(view, source.snapshot())
        )
        workloads[prefix] = random_workload(
            schemas, updates, seed=seed + index, initial=initial,
            respect_keys=True,
        )
    return sources, WarehouseCatalog(algorithms), workloads


def dedup(states):
    """Collapse consecutive duplicates: a view's *own* event timeline."""
    out = []
    for state in states:
        if not out or state != out[-1]:
            out.append(state)
    return out


class TestShardedMatchesUnsharded:
    @pytest.mark.parametrize("partitioner", ["hash", "range"])
    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_merged_final_view_equals_the_unsharded_catalog(
        self, shards, partitioner
    ):
        sources, catalog, workloads = build(4, seed=7)
        baseline_sources, baseline_catalog, _ = build(4, seed=7)
        sharded = run_concurrent(
            sources, catalog, workloads, clients=0, seed=7,
            shards=shards, partitioner=partitioner,
        )
        unsharded = run_concurrent(
            baseline_sources, baseline_catalog, workloads, clients=0, seed=7
        )
        assert sharded.final_view == unsharded.final_view
        assert sharded.updates == unsharded.updates
        info = sharded.shard_info
        assert info["shards"] == shards and info["partitioner"] == partitioner
        assert sorted(info["assignment"]) == [f"V{i}" for i in range(4)]
        assert unsharded.shard_info is None

    def test_256_keyed_views_route_each_update_to_one_shard(self):
        """Eight sources each own 32 keyed join views (256 members), and
        each update is a keyed delete ECA-Key handles locally.  On 1, 2, 4
        and 8 shards every count converges to the same merged view, and
        relation-level routing hands each update to exactly one shard."""
        from repro.core.registry import create_algorithm
        from repro.source.memory import MemorySource
        from repro.source.updates import delete

        names = [f"V{s}_{j}" for s in range(8) for j in range(32)]

        def catalog_of_256():
            sources, algorithms, updates = {}, {}, []
            for s in range(8):
                schemas, initial = [], {}
                for j in range(32):
                    r1, r2 = f"s{s}a{j}", f"s{s}b{j}"
                    schemas += [
                        RelationSchema(r1, ("W", "X"), key=("W",)),
                        RelationSchema(r2, ("X", "Y"), key=("Y",)),
                    ]
                    initial[r1] = [(i, i + 1) for i in range(24)]
                    initial[r2] = [(i + 1, i + 100) for i in range(24)]
                source = sources[f"s{s}"] = MemorySource(schemas, initial)
                for j in range(32):
                    view = View.natural_join(
                        f"V{s}_{j}", schemas[2 * j : 2 * j + 2], ["W", "Y"]
                    )
                    algorithms[view.name] = create_algorithm(
                        "eca-key", view, evaluate_view(view, source.snapshot())
                    )
                    updates.append(delete(f"s{s}a{j}", (0, 1)))
            return sources, WarehouseCatalog(algorithms), updates

        finals = []
        for shards in (1, 2, 4, 8):
            sources, catalog, updates = catalog_of_256()
            placement = ExplicitPartitioner(
                {(name,): i % shards for i, name in enumerate(names)},
                shards=shards,
            )
            result = run_concurrent(
                sources, catalog, updates, clients=0, seed=3,
                shards=shards, partitioner=placement, record_trace=False,
            )
            received = [
                result.metrics[f"shard{shard}"].received
                for shard in result.shard_info["shard_ids"]
            ]
            assert sum(received) == result.updates == len(updates), received
            finals.append(result.final_view)
        assert all(final == finals[0] for final in finals[1:])

    @pytest.mark.parametrize("n_views", [3, 4])
    @pytest.mark.parametrize("seed", range(3))
    def test_one_shard_is_the_unsharded_run(self, seed, n_views):
        """The one-unit case *is* the unsharded case."""
        sources, catalog, workloads = build(n_views, updates=5, seed=seed)
        twin_sources, twin_catalog, _ = build(n_views, updates=5, seed=seed)
        one = run_concurrent(
            sources, catalog, workloads, clients=0, seed=seed, shards=1
        )
        plain = run_concurrent(
            twin_sources, twin_catalog, workloads, clients=0, seed=seed
        )
        assert one.final_view == plain.final_view
        assert one.per_source_states == plain.per_source_states
        for name in twin_catalog.algorithms:
            assert dedup(project_view(one.trace, name).view_states) == dedup(
                project_view(plain.trace, name).view_states
            )

    def test_wire_codec_counts_framed_bytes_on_every_leg(self):
        sources, catalog, workloads = build(4, seed=7)
        baseline_sources, baseline_catalog, _ = build(4, seed=7)
        sharded = run_concurrent(
            sources, catalog, workloads, clients=0, seed=7, shards=2,
            wire_codec="frame",
        )
        unsharded = run_concurrent(
            baseline_sources, baseline_catalog, workloads, clients=0, seed=7
        )
        assert sharded.final_view == unsharded.final_view
        carried = {
            name: stats
            for name, stats in sharded.channel_stats.items()
            if stats.sent
        }
        # Exactly one leg each way per (source, shard) pair: what a source
        # sends lands on the shard's own inbox, and a shard's queries go
        # out on the unsharded runtime's own "wh->s<i>" channel.
        expected = set()
        for name, shard in sharded.shard_info["assignment"].items():
            source = name.replace("V", "s")
            expected |= {f"wh->{source}", f"{source}=>shard{shard}"}
        assert set(carried) == expected
        # The name the sources send under is an alias, not a channel.
        assert not any(name.endswith("->wh") for name in sharded.channel_stats)
        assert all(stats.sent_bytes > 0 for stats in carried.values()), carried

    def test_explicit_partitioner_instance_is_honored(self):
        sources, catalog, workloads = build(3, seed=2)
        placement = {("V0",): 1, ("V1",): 0, ("V2",): 1}
        result = run_concurrent(
            sources, catalog, workloads, clients=0, seed=2,
            shards=2, partitioner=ExplicitPartitioner(placement, shards=2),
        )
        assert result.shard_info["assignment"] == {
            "V0": 1, "V1": 0, "V2": 1
        }
        assert result.shard_info["partitioner"] == "explicit"

    def test_router_and_shard_rows_appear_in_metrics(self):
        sources, catalog, workloads = build(2, seed=3)
        result = run_concurrent(
            sources, catalog, workloads, clients=0, seed=3, shards=2
        )
        table = {row["actor"]: row for row in result.metrics_table()}
        # Nothing stands between a source and its shards: no actor row,
        # and what the sources sent is exactly what the shards received.
        assert "router" not in table and "router" not in result.metrics
        assert sum(table[name]["sent"] for name in sources) == sum(
            table[f"shard{shard}"]["received"]
            for shard in result.shard_info["shard_ids"]
        )
        for shard in result.shard_info["shard_ids"]:
            row = table[f"shard{shard}"]
            assert row["shard"] == str(shard)
            assert row["received"] > 0
        # Unsharded runs keep exactly the old columns: no shard anywhere.
        fresh_sources, fresh_catalog, _ = build(2, seed=3)
        baseline = run_concurrent(fresh_sources, fresh_catalog, workloads, clients=0)
        assert all("shard" not in row for row in baseline.metrics_table())


class TestShardedBatching:
    """``batch_k`` composes with ``shards``: each shard coalesces from its
    own per-``(origin, shard)`` FIFO channels (this was rejected)."""

    @pytest.mark.parametrize("seed", range(1, 5))
    def test_batched_shards_match_recompute_and_the_unsharded_batched_run(
        self, seed
    ):
        sources, catalog, workloads = build(3, updates=12, seed=seed)
        twin_sources, twin_catalog, _ = build(3, updates=12, seed=seed)
        faults = FaultPlan(latency=1.0, jitter=3.0, drop_rate=0.2)
        sharded = run_concurrent(
            sources, catalog, workloads, clients=1, seed=seed, shards=3,
            batch_k=4, faults=faults,
        )
        unsharded = run_concurrent(
            twin_sources, twin_catalog, workloads, clients=1, seed=seed,
            batch_k=4, faults=faults,
        )
        assert sharded.final_view == unsharded.final_view
        assert sharded.final_view == evaluate_view(
            catalog, sharded.trace.final_source_state
        )
        shard_rows = [
            row for row in sharded.metrics_table() if row["role"] == "shard"
        ]
        assert any(row["batched_updates"] > 0 for row in shard_rows)
        assert any("@" in action for action in sharded.action_log)
        report = cut_report(
            catalog,
            sharded.per_source_states,
            sharded.trace.view_states,
            sharded.final_view,
        )
        assert report.strongly_consistent, report.detail

    def test_a_batching_shard_crashes_and_recovers(self, tmp_path):
        sources, catalog, workloads = build(2, updates=8, seed=5)
        twin_sources, twin_catalog, _ = build(2, updates=8, seed=5)
        result = run_concurrent(
            sources, catalog, workloads, clients=2, seed=5, shards=2,
            batch_k=3, wal_dir=str(tmp_path), crash_shard=1,
            crash=CrashPolicy(mode="mid-uqs", max_crashes=1, seed=5),
        )
        unsharded = run_concurrent(
            twin_sources, twin_catalog, workloads, clients=2, seed=5, batch_k=3
        )
        assert [info["shard"] for info in result.crashes] == [1]
        assert result.final_view == unsharded.final_view
        assert result.final_view == evaluate_view(
            catalog, result.trace.final_source_state
        )
        table = {row["actor"]: row for row in result.metrics_table()}
        assert table["shard1"]["batched_updates"] > 0


class TestShardedConformance:
    """The merged 2-shard log replays on the single-shard sync kernel."""

    def test_merged_log_replays_to_the_same_views(self):
        sources, catalog, workloads = build(4, seed=11)
        result = run_concurrent(
            sources, catalog, workloads, clients=0, seed=11, shards=2
        )
        twin_sources, twin_catalog, _ = build(4, seed=11)
        kernel = replay_concurrent(
            result.action_log, twin_sources, twin_catalog, workloads
        )
        assert result.final_view == kernel.algorithm.view_state()
        assert result.per_source_states == kernel.per_source_states
        # Per-view proof: each member walks the identical state sequence
        # on its shard as it does on the unsharded kernel (query ids and
        # cross-shard interleaving may differ; per-view timelines do not).
        for name in twin_catalog.algorithms:
            sharded_history = project_view(result.trace, name).view_states
            baseline_history = project_view(kernel.trace, name).view_states
            assert dedup(sharded_history) == dedup(baseline_history)

    @pytest.mark.parametrize("seed", range(3))
    def test_replay_is_seed_robust(self, seed):
        sources, catalog, workloads = build(3, updates=5, seed=seed)
        result = run_concurrent(
            sources, catalog, workloads, clients=0, seed=seed, shards=3
        )
        twin_sources, twin_catalog, _ = build(3, updates=5, seed=seed)
        kernel = replay_concurrent(
            result.action_log, twin_sources, twin_catalog, workloads
        )
        assert result.final_view == kernel.algorithm.view_state()


class TestCrossShardCutConsistency:
    @pytest.mark.parametrize("faults", [False, True])
    def test_merged_trace_is_cut_consistent(self, faults):
        from repro.runtime import FaultPlan

        sources, catalog, workloads = build(4, seed=13)
        plan = FaultPlan(latency=1.0, jitter=2.0, drop_rate=0.15) if faults else None
        result = run_concurrent(
            sources, catalog, workloads, clients=0, seed=13, shards=2,
            faults=plan,
        )
        report = cut_report(
            catalog,
            result.per_source_states,
            result.trace.view_states,
            result.final_view,
        )
        assert report.consistent and report.convergent, report.detail

    def test_each_member_view_is_cut_consistent_on_its_shard(self):
        sources, catalog, workloads = build(4, seed=17)
        result = run_concurrent(
            sources, catalog, workloads, clients=0, seed=17, shards=2
        )
        shard_catalogs = result.shard_info["algorithms"]
        for name, shard in result.shard_info["assignment"].items():
            member = shard_catalogs[shard].algorithms[name]
            prefix = name.replace("V", "s")
            assert check_cut_consistency(
                member.view,
                {prefix: result.per_source_states[prefix]},
                project_view(result.trace, name).view_states,
            ), f"{name} on shard {shard} left its source-state prefix path"


class TestShardCrashRecovery:
    @pytest.mark.parametrize("crash_shard", [0, 1])
    def test_one_shard_recovers_to_the_same_merged_view(
        self, tmp_path, crash_shard
    ):
        sources, catalog, workloads = build(4, seed=5)
        baseline_sources, baseline_catalog, _ = build(4, seed=5)
        crash = CrashPolicy(mode="mid-uqs", max_crashes=1, seed=5)
        result = run_concurrent(
            sources, catalog, workloads, clients=0, seed=5, shards=2,
            wal_dir=str(tmp_path), crash=crash, crash_shard=crash_shard,
        )
        baseline = run_concurrent(
            baseline_sources, baseline_catalog, workloads, clients=0, seed=5,
            shards=2,
        )
        assert result.crashes, "crash policy never fired; pick another seed"
        assert all(info["shard"] == crash_shard for info in result.crashes)
        assert result.final_view == baseline.final_view
        # One WAL directory per shard, each with its own log + snapshots.
        assert sorted(os.listdir(str(tmp_path))) == ["shard-0", "shard-1"]
        table = {row["actor"]: row for row in result.metrics_table()}
        assert table[f"shard{crash_shard}"]["crashes"] == len(result.crashes)
        other = 1 - crash_shard
        assert table[f"shard{other}"]["crashes"] == 0

    @pytest.mark.parametrize("faults", [False, True])
    @pytest.mark.parametrize("drop_sends", [False, True])
    def test_a_late_pre_crash_answer_is_consumed_once(
        self, tmp_path, drop_sends, faults
    ):
        """Recovery is the unsharded protocol: a recovered shard re-issues
        under the ids its queries already had, so an answer a source sent
        before the crash still finds its query; the answer to the
        re-issued copy is the duplicate, and the shard drops it."""
        sources, catalog, workloads = build(4, seed=5)
        result = run_concurrent(
            sources, catalog, workloads, clients=0, seed=5, shards=2,
            wal_dir=str(tmp_path), crash_shard=1,
            crash=CrashPolicy(mode="event", at=4, drop_sends=drop_sends),
            faults=FaultPlan(latency=1.0, jitter=2.0, drop_rate=0.15)
            if faults
            else None,
        )
        (crash,) = result.crashes
        (crashed_at,) = (e.seq for e in result.trace.events_of_kind(W_CRASH))
        answered = {}
        for event in result.trace.events_of_kind(S_QU):
            answered.setdefault(event.detail.split(" ->")[0], []).append(event.seq)
        twice = [seqs for seqs in answered.values() if len(seqs) > 1]
        # The scenario: some source had already answered, before the crash,
        # a query the recovered shard found pending — that answer was still
        # queued on the shard's "s<k>=>shard1" inbox when it restarted.
        assert any(seqs[0] < crashed_at for seqs in twice)
        assert all(len(seqs) == 2 for seqs in twice)
        shard = {row["actor"]: row for row in result.metrics_table()}["shard1"]
        assert shard["duplicate_answers_dropped"] == len(twice)
        # With drop_sends the crashing event's own query first left the
        # shard as a re-issue, so it was answered only once.
        assert shard["reissued_queries"] == crash["reissued"] == len(twice) + drop_sends
        assert result.final_view == evaluate_view(
            catalog, result.trace.final_source_state
        )
        twin_sources, twin_catalog, _ = build(4, seed=5)
        unsharded = run_concurrent(
            twin_sources, twin_catalog, workloads, clients=0, seed=5
        )
        assert result.final_view == unsharded.final_view

    def test_crash_requires_a_wal_and_a_populated_shard(self, tmp_path):
        sources, catalog, workloads = build(2, seed=1)
        crash = CrashPolicy(mode="mid-uqs", max_crashes=1, seed=1)
        with pytest.raises(SimulationError, match="wal_dir"):
            run_concurrent(
                sources, catalog, workloads, clients=0, shards=2, crash=crash
            )
        with pytest.raises(SimulationError, match="not a populated shard"):
            run_concurrent(
                sources, catalog, workloads, clients=0, shards=2, crash=crash,
                wal_dir=str(tmp_path), crash_shard=9,
            )


class TestRouterOwnsNoQueryState:
    def test_an_answer_for_an_unpopulated_shard_is_a_protocol_error(self):
        sources, catalog, _ = build(2)
        plan = plan_shards(
            catalog, 3,
            ExplicitPartitioner({("V0",): 0, ("V1",): 2}, shards=3),
            relation_owners(sources),
        )
        assert plan.shard_ids == (0, 2)

        def sizes():
            return {
                name: len(getattr(plan, name))
                for name in plan.__slots__
                if hasattr(getattr(plan, name), "__len__")
            }

        before = sizes()
        # 8 = local id 2 in shard 2's slice; 7 = local id 2 in shard 1's.
        assert plan.route("s1", QueryAnswer(8, SignedBag())) == [
            (shard_channel("s1", 2), QueryAnswer(2, SignedBag()))
        ]
        with pytest.raises(ProtocolError, match=r"query id 7 .*shard 1\b"):
            plan.route("s1", QueryAnswer(7, SignedBag()))
        # Routing an answer left nothing behind: no container grew.
        assert sizes() == before


class TestShardWalExclusivity:
    def test_two_runs_cannot_share_a_shard_wal_directory(self, tmp_path):
        from repro.durability import WriteAheadLog

        holder = WriteAheadLog(os.path.join(str(tmp_path), "shard-0"))
        sources, catalog, workloads = build(2, seed=0)
        with pytest.raises(WalLocked):
            run_concurrent(
                sources, catalog, workloads, clients=0, shards=2,
                wal_dir=str(tmp_path),
            )
        holder.close()
        result = run_concurrent(
            sources, catalog, workloads, clients=0, shards=2,
            wal_dir=str(tmp_path),
        )
        assert result.wal_stats is not None

    def test_failed_sharded_run_releases_every_shard_lock(
        self, tmp_path, monkeypatch
    ):
        from repro.durability import WriteAheadLog

        def explode(self, source, answer):
            raise RuntimeError("algorithm blew up mid-run")

        monkeypatch.setattr(ECA, "on_answer", explode)
        sources, catalog, workloads = build(2, seed=0)
        with pytest.raises(RuntimeError, match="blew up mid-run"):
            run_concurrent(
                sources, catalog, workloads, clients=0, shards=2,
                wal_dir=str(tmp_path),
            )
        for shard in ("shard-0", "shard-1"):
            WriteAheadLog(os.path.join(str(tmp_path), shard)).close()


class TestShardFailureSurfacesItsRootCause:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_a_raising_shard_is_not_masked_by_the_shutdown_it_causes(
        self, seed, monkeypatch
    ):
        """The harness closes the transport once an actor dies; a
        source's TransportClosed is that shutdown's echo and is gathered
        first (sources → units), but the shard's own error is the one
        the caller must see."""

        class ShardFault(RuntimeError):
            pass

        handle = ECA.on_update

        def explode(self, source, notification):
            if self.view.name == "V1":
                raise ShardFault("V1's shard blew up")
            return handle(self, source, notification)

        monkeypatch.setattr(ECA, "on_update", explode)
        sources, catalog, workloads = build(2, seed=seed)
        with pytest.raises(ShardFault):
            run_concurrent(sources, catalog, workloads, clients=0, shards=2)

    def test_a_bare_transport_closed_still_surfaces(self, monkeypatch):
        def closed(self, source, notification):
            raise TransportClosed("only consequence available")

        monkeypatch.setattr(ECA, "on_update", closed)
        sources, catalog, workloads = build(2, seed=0)
        with pytest.raises(TransportClosed):
            run_concurrent(sources, catalog, workloads, clients=0, shards=2)


class TestShardedObservability:
    def test_sharded_series_carry_the_shard_label(self, tmp_path):
        sources, catalog, workloads = build(2, seed=9)
        obs = Observability(sharded=True)
        run_concurrent(
            sources, catalog, workloads, clients=0, seed=9, shards=2, obs=obs
        )
        rendered = obs.registry.render_prometheus()
        assert 'shard="0"' in rendered and 'shard="1"' in rendered

    def test_unsharded_obs_is_rejected_for_sharded_runs(self):
        sources, catalog, workloads = build(2, seed=9)
        with pytest.raises(SimulationError, match="sharded=True"):
            run_concurrent(
                sources, catalog, workloads, clients=0, shards=2,
                obs=Observability(),
            )

    def test_shard_view_requires_the_sharded_flag(self):
        with pytest.raises(ValueError):
            Observability().shard_view(0)


class TestUnionMemberIsPlaceable:
    """``plan_shards`` reads a member's relations through
    ``reactive_relations()``, which a ``UnionView`` has; it used to read
    ``view.relations``, which it has not."""

    SCHEMAS = [
        RelationSchema("r1", ("W", "X"), key=("W",)),
        RelationSchema("r2", ("X", "Y"), key=("Y",)),
        RelationSchema("r3", ("X", "Y"), key=("Y",)),
    ]
    INITIAL = {
        "r1": [(1, 2), (2, 3)],
        "r2": [(2, 5), (3, 6)],
        "r3": [(2, 7)],
    }

    def build(self):
        from repro.relational.unions import UnionView
        from repro.source.memory import MemorySource

        r1, r2, r3 = self.SCHEMAS
        v1 = View.natural_join("A", [r1, r2], ["W", "Y"])
        v2 = View.natural_join("B", [r1, r3], ["W", "Y"])
        union = UnionView("U", [v1, v2])
        source = MemorySource(self.SCHEMAS, self.INITIAL)
        state = source.snapshot()
        catalog = WarehouseCatalog(
            {
                "A": ECA(v1, evaluate_view(v1, state)),
                "U": ECA(union, evaluate_view(union, state)),
            }
        )
        return source, catalog

    def test_the_interest_map_covers_every_branch(self):
        source, catalog = self.build()
        owners = relation_owners({"source": source})
        plan = plan_shards(catalog, 2, "hash", owners)
        for relation in ("r1", "r2", "r3"):
            expected = sorted(
                {
                    plan.assignment[name]
                    for name, member in catalog.algorithms.items()
                    if member.view.involves(relation)
                }
            )
            assert list(plan.interest[relation]) == expected, relation
        assert plan.interest["r3"] == (plan.assignment["U"],)

    @pytest.mark.parametrize("seed", range(3))
    def test_a_sharded_run_over_it_is_strongly_consistent_per_view(self, seed):
        from repro.consistency import check_trace

        source, catalog = self.build()
        workload = random_workload(
            self.SCHEMAS, 10, seed=seed, initial=self.INITIAL, respect_keys=True
        )
        result = run_concurrent(
            {"source": source}, catalog, {"source": workload},
            clients=0, seed=seed, shards=2,
        )
        final = source.snapshot()
        for name, member in catalog.algorithms.items():
            assert member.view_state() == evaluate_view(member.view, final), name
            report = check_trace(member.view, project_view(result.trace, name))
            assert report.strongly_consistent, (name, report.detail)


class TestClassesSplitAcrossShards:
    """Eight equal views over one source, sharing on: one class, which
    every partitioner places whole, and which an explicit table may not
    split."""

    @staticmethod
    def fanin(share=True, classes=1):
        """Eight views over one source; with ``classes=2`` the odd ones
        project ``(Y, W)``, so they form a second class."""
        from repro.source.memory import MemorySource

        schemas = [
            RelationSchema("r1", ("W", "X"), key=("W",)),
            RelationSchema("r2", ("X", "Y"), key=("Y",)),
        ]
        initial = {"r1": [(1, 2), (2, 3)], "r2": [(2, 5), (3, 6)]}
        source = MemorySource(schemas, initial)
        algorithms = {}
        for index in range(8):
            projection = ["W", "Y"] if index % classes == 0 else ["Y", "W"]
            view = View.natural_join(f"V{index}", schemas, projection)
            algorithms[view.name] = ECA(view, evaluate_view(view, source.snapshot()))
        workload = random_workload(schemas, 8, seed=3, initial=initial, respect_keys=True)
        catalog = WarehouseCatalog(algorithms, share_compensation=share)
        return {"source": source}, catalog, {"source": workload}

    #: V0..V3 on shard 0, V4..V7 on shard 2: the class split in two.
    SPLIT = ExplicitPartitioner(
        {(f"V{index}",): 0 if index < 4 else 2 for index in range(8)}, shards=3
    )

    def test_no_algorithm_is_reachable_from_two_shards(self):
        sources, catalog, workloads = self.fanin()
        ((leader, members),) = catalog.classes()
        owners = relation_owners(sources)
        plan = plan_shards(catalog, 3, "hash", owners)
        (shard,) = plan.shard_ids
        assert set(plan.assignment.values()) == {shard}
        assert plan.algorithms[shard].classes() == [(leader, members)]
        assert plan.interest == {"r1": (shard,), "r2": (shard,)}
        # Range boundaries fall between classes: eight views, one class.
        with pytest.raises(SimulationError, match=r"1 class\(es\) over 3 shards"):
            plan_shards(catalog, 3, "range", owners)
        _, two, _ = self.fanin(classes=2)
        plan = plan_shards(two, 2, "range", owners)
        for shard, (algorithm, members) in enumerate(two.classes()):
            assert {plan.assignment[name] for name in members} == {shard}
            assert plan.algorithms[shard].classes() == [(algorithm, members)]
        with pytest.raises(SimulationError, match=r"splits the class .* shards \[0, 2\]"):
            plan_shards(catalog, 3, self.SPLIT, owners)
        _, independent, _ = self.fanin(share=False)
        plan = plan_shards(independent, 3, self.SPLIT, owners)
        assert plan.shard_ids == (0, 2)
        twin_sources, twin, _ = self.fanin()
        unsharded = run_concurrent(twin_sources, twin, workloads, seed=2)
        result = run_concurrent(sources, catalog, workloads, seed=2, shards=3)
        (part,) = result.shard_info["algorithms"].values()
        assert [algorithm for algorithm, _ in part.classes()] == [leader]
        assert result.final_view == unsharded.final_view
