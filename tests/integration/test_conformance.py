"""Cross-kernel conformance: concurrent runs replay exactly on the sync kernel.

The tentpole guarantee of the routed-protocol unification: the asyncio
runtime and the synchronous :class:`~repro.kernel.sync.SyncKernel` are
the *same* execution semantics, differing only in who chooses the next
action.  For every registered algorithm we run ``run_concurrent``, then
replay its recorded ``action_log`` on a fresh kernel over twin sources,
and require the two executions to agree event-for-event: identical
``(kind, detail)`` trace events, identical source/view state sequences,
identical per-source histories, and the identical checker verdict.
"""

from __future__ import annotations

import pytest

from families import INITIAL, R1, R2, build
from repro.consistency import check_cuts, check_trace
from repro.core.registry import ALGORITHMS, build_algorithm
from repro.errors import ProtocolError, SimulationError
from repro.kernel import replay_concurrent
from repro.kernel.dispatch import dispatch_event
from repro.kernel.sync import SyncKernel
from repro.messaging.messages import UpdateNotification
from repro.relational.engine import evaluate_view
from repro.runtime import run_concurrent
from repro.source.memory import MemorySource
from repro.source.updates import delete, insert
from repro.workloads.paper_examples import PAPER_EXAMPLES
from repro.workloads.random_gen import random_workload

#: Single-source families exercised on the paper's Example 2/3 workloads
#: (keyless schemas — eca-key joins the keyed suite below instead).
SINGLE_SOURCE = ["basic", "eca", "eca-local", "lca", "stored-copies"]

#: Multi-source families exercised on the two-source spanning view.
MULTI_SOURCE = ["strobe", "sweep", "fragmenting-incremental", "multi-stored-copies"]


def assert_conforms(result, kernel):
    """The concurrent run and its synchronous replay agree exactly."""
    assert [(e.kind, e.detail) for e in result.trace.events] == [
        (e.kind, e.detail) for e in kernel.trace.events
    ]
    assert result.trace.source_states == kernel.trace.source_states
    assert result.trace.view_states == kernel.trace.view_states
    assert result.per_source_states == kernel.per_source_states
    assert result.final_view == kernel.algorithm.view_state()
    # One writer logs both kernels' actions: the replay logs what it replayed.
    assert result.action_log == kernel.action_log


class TestSingleSourceConformance:
    @pytest.mark.parametrize("scenario_name", ["example-2", "example-3"])
    @pytest.mark.parametrize("name", SINGLE_SOURCE + ["batch-eca", "recompute"])
    @pytest.mark.parametrize("seed", range(4))
    def test_paper_examples_replay_identically(self, scenario_name, name, seed):
        scenario = PAPER_EXAMPLES[scenario_name]

        options = {
            "recompute": {"period": 1},
            "batch-eca": {"batch_size": len(scenario.updates)},
        }.get(name, {})

        def setup():
            source = MemorySource(scenario.schemas, scenario.initial)
            return source, build_algorithm(name, scenario.view, source, **options)

        source, algo = setup()
        result = run_concurrent(
            source, algo, scenario.updates, clients=0, seed=seed
        )
        twin_source, twin_algo = setup()
        kernel = replay_concurrent(
            result.action_log,
            {"source": twin_source},
            twin_algo,
            {"source": scenario.updates},
        )
        assert_conforms(result, kernel)
        assert check_trace(scenario.view, result.trace).level() == check_trace(
            scenario.view, kernel.trace
        ).level()

    @pytest.mark.parametrize("scenario_name", ["example-2", "example-3"])
    @pytest.mark.parametrize("seed", range(4))
    def test_deferred_eca_with_client_refreshes(self, scenario_name, seed):
        # Client refreshes flush the deferred buffer; the replayed kernel
        # re-enacts them through its per-client channels.
        scenario = PAPER_EXAMPLES[scenario_name]

        def setup():
            source = MemorySource(scenario.schemas, scenario.initial)
            return source, build_algorithm("deferred-eca", scenario.view, source)

        source, algo = setup()
        result = run_concurrent(
            source, algo, scenario.updates, clients=2, client_reads=3, seed=seed
        )
        twin_source, twin_algo = setup()
        kernel = replay_concurrent(
            result.action_log,
            {"source": twin_source},
            twin_algo,
            {"source": scenario.updates},
        )
        assert_conforms(result, kernel)

    @pytest.mark.parametrize("seed", range(4))
    def test_eca_key_on_keyed_workload(self, seed):
        made, algo, workload = build("eca-key", seed, updates=8)
        result = run_concurrent(made, algo, workload, clients=2, seed=seed)
        twin_sources, twin_algo, _ = build("eca-key", seed, updates=8)
        kernel = replay_concurrent(
            result.action_log, twin_sources, twin_algo, {"source": workload}
        )
        assert_conforms(result, kernel)
        assert check_trace(algo.view, result.trace).strongly_consistent


class TestMultiSourceConformance:
    @pytest.mark.parametrize("name", MULTI_SOURCE)
    @pytest.mark.parametrize("seed", range(4))
    def test_spanning_view_replays_identically(self, name, seed):
        """Source s0 owns r1, source s1 owns r2; V spans both (keys projected)."""
        workloads = {
            "s0": random_workload(
                [R1], 5, seed=seed, initial={"r1": INITIAL["r1"]}, respect_keys=True
            ),
            "s1": random_workload(
                [R2], 5, seed=seed + 50, initial={"r2": INITIAL["r2"]}, respect_keys=True
            ),
        }
        made, algo, _ = build(name)
        result = run_concurrent(made, algo, workloads, clients=2, seed=seed)
        twin_sources, twin_algo, _ = build(name)
        kernel = replay_concurrent(
            result.action_log, twin_sources, twin_algo, workloads
        )
        assert_conforms(result, kernel)
        # Identical executions classify identically under cut consistency.
        view = algo.view
        live = check_cuts(view, result.per_source_states, result.trace.view_states)
        replayed = check_cuts(
            twin_algo.view, kernel.per_source_states, kernel.trace.view_states
        )
        assert live.level() == replayed.level()
        if name in ("strobe", "sweep", "multi-stored-copies"):
            assert live.strongly_consistent, live.detail

    @pytest.mark.parametrize("name", MULTI_SOURCE)
    def test_every_multi_family_is_registered(self, name):
        assert getattr(ALGORITHMS[name], "multi_source", False)


class NonRoutedAlgorithm(ALGORITHMS["basic"]):
    """Deliberate protocol violation: returns bare QueryRequests.

    The pre-unification single-source protocol returned plain request
    lists from ``on_update``; the routed protocol wraps each request in a
    ``(destination, request)`` pair.  The kernel must reject the legacy
    shape with an error naming the algorithm and the fix, not an
    unpacking ``TypeError`` deep inside the channel loop.
    """

    name = "non-routed"

    def on_update(self, source, notification):
        return [
            request
            for _destination, request in super().on_update(source, notification)
        ]


class Drain:
    """Warehouse events first, then answers, then the next update: every
    query is answered before the next update runs."""

    def choose(self, available):
        for prefix in ("warehouse:", "answer:", "update"):
            for action in available:
                if action.startswith(prefix):
                    return action
        raise SimulationError(f"no action among {available!r}")


class TestEqualSpellings:
    """``5`` and ``5.0`` are one row to a bag, but not one value to a
    reader: the view must hold the spelling the source holds now."""

    #: The first answer makes the source keep ``r2``'s batch; ``(2, 5)``
    #: then dies in it and comes back as ``(2, 5.0)``, and the last
    #: update's answer reads it.
    WORKLOAD = [
        insert("r1", (1, 2)),
        delete("r2", (2, 5)),
        insert("r2", (2, 5.0)),
        insert("r1", (3, 2)),
    ]

    @pytest.mark.parametrize("name", ["basic", "eca", "lca", "recompute"])
    def test_a_revived_row_is_answered_in_its_new_spelling(self, name):
        made, algorithm, _ = build(name)
        trace = SyncKernel(made, algorithm, list(self.WORKLOAD)).run(Drain())
        expected = evaluate_view(algorithm.view, made["source"].snapshot())
        assert repr(trace.final_view_state.to_pairs()) == repr(expected.to_pairs())
        assert "(3, 5.0)" in repr(expected.to_pairs())


class TestProtocolRejection:
    def test_bare_query_requests_are_rejected_with_a_clear_error(self):
        scenario = PAPER_EXAMPLES["example-2"]
        source = MemorySource(scenario.schemas, scenario.initial)
        algo = NonRoutedAlgorithm(
            scenario.view, evaluate_view(scenario.view, source.snapshot())
        )
        kernel = SyncKernel({"source": source}, algo, scenario.updates)
        kernel.step("update")
        with pytest.raises(ProtocolError) as excinfo:
            kernel.step("warehouse:source")
        message = str(excinfo.value)
        assert "non-routed" in message
        assert "on_update" in message
        assert "bare QueryRequest" in message
        assert "(destination, request)" in message

    def test_dispatch_event_rejects_non_pair_items(self):
        scenario = PAPER_EXAMPLES["example-2"]
        source = MemorySource(scenario.schemas, scenario.initial)

        class WrongShape(ALGORITHMS["basic"]):
            name = "wrong-shape"

            def on_update(self, origin, notification):
                return ["not a pair"]

        algo = WrongShape(
            scenario.view, evaluate_view(scenario.view, source.snapshot())
        )
        algo.bind_owners({schema.name: "source" for schema in scenario.schemas})
        with pytest.raises(ProtocolError, match="routed protocol requires"):
            dispatch_event(
                algo,
                "source",
                UpdateNotification(scenario.updates[0], 1),
            )


class TestReplayRefusals:
    def test_crash_markers_are_refused(self):
        made, algo, _ = build("strobe")
        with pytest.raises(SimulationError, match="crash"):
            replay_concurrent(["update:s0", "crash"], made, algo, {"s0": []})

    def test_overrunning_workload_is_refused(self):
        made, algo, _ = build("strobe")
        with pytest.raises(SimulationError, match="beyond its workload"):
            replay_concurrent(
                ["update:s0"], made, algo, {"s0": [], "s1": []}
            )
