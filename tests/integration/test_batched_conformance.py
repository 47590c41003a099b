"""Conformance of k-update batched runs: every ``batch_k`` replays exactly.

The kernel-level batching contract (`docs/RELATIONAL.md`): coalescing a
run of same-source notifications into one ``Q<U1,...,Uk>`` event changes
*how many* protocol round trips a run needs, never *what* the run
computes — and every coalescing decision is recorded in the action log
(``warehouse:<source>@<k>``), so the synchronous kernel can re-enact the
exact batched execution.  These tests pin that contract for every
registered single- and multi-source family at several ``batch_k``
values, and pin the consistency verdict across the live/replayed pair.

Workloads are insert-only: batching must hold on deletes too (the
algebra in :func:`repro.core.compensation.batch_delta_query` is
sign-agnostic), but the concurrent ECA family has a known pre-existing
deletion anomaly under some interleavings (see
``tests/integration/test_paper_examples.py``), and these tests pin
*batching*, not that anomaly.
"""

from __future__ import annotations

import pytest

from families import build
from repro.consistency import check_cuts, check_trace
from repro.runtime import run_concurrent
from repro.kernel import replay_concurrent
from repro.source.updates import insert

SINGLE_SOURCE = ["basic", "eca", "eca-local", "lca", "stored-copies"]
MULTI_SOURCE = ["strobe", "sweep", "fragmenting-incremental", "multi-stored-copies"]

K_VALUES = [1, 2, 4, 8]


def single_workload():
    return [
        insert("r1", (10, 2)),
        insert("r2", (2, 20)),
        insert("r1", (11, 3)),
        insert("r1", (12, 2)),
        insert("r2", (3, 21)),
        insert("r1", (13, 9)),
        insert("r2", (9, 22)),
        insert("r1", (14, 2)),
    ]


def assert_conforms(result, kernel):
    assert [(e.kind, e.detail) for e in result.trace.events] == [
        (e.kind, e.detail) for e in kernel.trace.events
    ]
    assert result.trace.source_states == kernel.trace.source_states
    assert result.trace.view_states == kernel.trace.view_states
    assert result.per_source_states == kernel.per_source_states
    assert result.final_view == kernel.algorithm.view_state()
    # One writer logs both kernels' actions: the replay logs what it replayed.
    assert result.action_log == kernel.action_log


class TestSingleSourceBatchedConformance:
    @pytest.mark.parametrize("k", K_VALUES)
    @pytest.mark.parametrize("name", SINGLE_SOURCE)
    @pytest.mark.parametrize("seed", range(2))
    def test_every_family_replays_identically_at_every_k(self, name, k, seed):
        workload = single_workload()
        made, algo, _ = build(name)
        result = run_concurrent(
            made, algo, workload, seed=seed, max_burst=4, batch_k=k
        )
        twin_sources, twin_algo, _ = build(name)
        kernel = replay_concurrent(
            result.action_log, twin_sources, twin_algo, {"source": workload}
        )
        assert_conforms(result, kernel)
        assert check_trace(algo.view, result.trace).level() == check_trace(
            twin_algo.view, kernel.trace
        ).level()

    def test_coalescing_actually_happens_and_is_logged(self):
        made, algo, _ = build("eca")
        result = run_concurrent(
            made, algo, single_workload(), seed=1, max_burst=8, batch_k=8
        )
        assert any("@" in action for action in result.action_log)
        assert any("(k=" in e.detail for e in result.trace.events)

    def test_batching_reduces_compensating_queries(self):
        def queries_sent(k):
            made, algo, _ = build("eca")
            result = run_concurrent(
                made, algo, single_workload(), seed=1, max_burst=8, batch_k=k
            )
            return result.metrics["warehouse"].sent, result.final_view

        unbatched_sent, unbatched_view = queries_sent(1)
        batched_sent, batched_view = queries_sent(8)
        assert batched_sent < unbatched_sent
        assert batched_view == unbatched_view

    @pytest.mark.parametrize("codec", ["frame", "zlib"])
    def test_wire_codec_changes_bytes_not_behavior(self, codec):
        def run(wire_codec):
            made, algo, _ = build("eca")
            return run_concurrent(
                made,
                algo,
                single_workload(),
                seed=2,
                batch_k=2,
                wire_codec=wire_codec,
            )

        plain = run(None)
        framed = run(codec)
        assert plain.action_log == framed.action_log
        assert plain.final_view == framed.final_view
        assert [(e.kind, e.detail) for e in plain.trace.events] == [
            (e.kind, e.detail) for e in framed.trace.events
        ]
        # Framed accounting counts real bytes; the default run has no
        # sizer, so its channels report zero.
        assert all(s.sent_bytes == 0 for s in plain.channel_stats.values())
        assert any(s.sent_bytes > 0 for s in framed.channel_stats.values())


#: Source s0 owns r1, s1 owns r2; V spans both (keys projected).
MULTI_WORKLOADS = {
    "s0": [insert("r1", (10, 2)), insert("r1", (11, 3)), insert("r1", (12, 2))],
    "s1": [insert("r2", (2, 20)), insert("r2", (3, 21)), insert("r2", (9, 22))],
}


class TestMultiSourceBatchedConformance:
    @pytest.mark.parametrize("k", [1, 2, 4])
    @pytest.mark.parametrize("name", MULTI_SOURCE)
    @pytest.mark.parametrize("seed", range(2))
    def test_spanning_view_replays_identically_at_every_k(self, name, k, seed):
        made, algo, _ = build(name)
        result = run_concurrent(
            made, algo, MULTI_WORKLOADS, seed=seed, max_burst=4, batch_k=k
        )
        twin_sources, twin_algo, _ = build(name)
        kernel = replay_concurrent(
            result.action_log, twin_sources, twin_algo, MULTI_WORKLOADS
        )
        assert_conforms(result, kernel)
        live = check_cuts(algo.view, result.per_source_states, result.trace.view_states)
        replayed = check_cuts(
            twin_algo.view, kernel.per_source_states, kernel.trace.view_states
        )
        assert live.level() == replayed.level()


#: The CLI's topology for a single-source family (``families``'
#: ``"fanout"``): one independent two-relation join view per source, all
#: behind one catalog.
CATALOG_WORKLOADS = {
    "s0": [insert("s0r1", (10, 2)), insert("s0r1", (11, 3)), insert("s0r2", (3, 20))],
    "s1": [insert("s1r2", (2, 21)), insert("s1r1", (12, 2)), insert("s1r1", (13, 3))],
}


class TestCatalogBatched:
    """Regression: the catalog must speak the k-update protocol.

    The catalog implements the routed event surface directly (it is not a
    ``WarehouseAlgorithm`` subclass), so it needs its own
    ``on_update_batch`` — without one, any ``--sources N`` run with
    ``--batch-k > 1`` died with an ``AttributeError`` inside dispatch.
    """

    @pytest.mark.parametrize("share", [False, True])
    @pytest.mark.parametrize("k", [2, 4])
    @pytest.mark.parametrize("seed", range(2))
    def test_batched_catalog_runs_converge_and_replay(self, k, seed, share):
        sources, catalog, _ = build("eca", topology="fanout", share=share)
        result = run_concurrent(
            sources, catalog, CATALOG_WORKLOADS, seed=seed, max_burst=4, batch_k=k
        )
        baseline_sources, baseline, _ = build("eca", topology="fanout", share=share)
        plain = run_concurrent(
            baseline_sources, baseline, CATALOG_WORKLOADS, seed=seed,
            max_burst=4, batch_k=1,
        )
        assert result.final_view == plain.final_view
        twin_sources, twin, _ = build("eca", topology="fanout", share=share)
        kernel = replay_concurrent(
            result.action_log, twin_sources, twin, CATALOG_WORKLOADS
        )
        assert_conforms(result, kernel)

    @pytest.mark.parametrize("k", [1, 2, 4])
    @pytest.mark.parametrize("seed", range(2))
    def test_shared_axis_is_byte_identical_per_view(self, k, seed):
        """The shared-vs-independent axis: on this disjoint topology the
        planner never finds a coincident query, so sharing must be a
        byte-level no-op — same action log, same trace, and every member
        view walking the identical state sequence."""
        runs = {}
        for share in (False, True):
            sources, catalog, _ = build("eca", topology="fanout", share=share)
            runs[share] = run_concurrent(
                sources, catalog, CATALOG_WORKLOADS, seed=seed,
                max_burst=4, batch_k=k,
            )
        assert runs[False].action_log == runs[True].action_log
        # Rows are tagged with their view, so equal tagged states are
        # equal per-view state sequences.
        assert runs[False].trace.view_states == runs[True].trace.view_states

    @pytest.mark.parametrize("share", [False, True])
    def test_catalog_batch_coalescing_is_logged(self, share):
        sources, catalog, _ = build("eca", topology="fanout", share=share)
        result = run_concurrent(
            sources, catalog, CATALOG_WORKLOADS, seed=1, max_burst=8, batch_k=8
        )
        assert any("@" in action for action in result.action_log)
        assert any("(k=" in e.detail for e in result.trace.events)
        assert catalog.is_quiescent()
