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

from repro.consistency import check_trace
from repro.core.registry import ALGORITHMS, create_algorithm
from repro.core.stored_copies import StoredCopies
from repro.errors import ProtocolError, SimulationError
from repro.kernel import replay_concurrent
from repro.kernel.dispatch import dispatch_event
from repro.kernel.sync import SyncKernel
from repro.messaging.messages import UpdateNotification
from repro.multisource.consistency import cut_report
from repro.relational.engine import evaluate_view
from repro.relational.schema import RelationSchema
from repro.relational.views import View
from repro.runtime import run_concurrent
from repro.source.memory import MemorySource
from repro.workloads.paper_examples import PAPER_EXAMPLES
from repro.workloads.random_gen import random_workload

#: Single-source families exercised on the paper's Example 2/3 workloads
#: (keyless schemas — eca-key joins the keyed suite below instead).
SINGLE_SOURCE = ["basic", "eca", "eca-local", "lca", "stored-copies"]

#: Multi-source families exercised on the two-source spanning view.
MULTI_SOURCE = ["strobe", "sweep", "fragmenting-incremental", "multi-stored-copies"]

KEYED_SCHEMAS = [
    RelationSchema("r1", ("W", "X"), key=("W",)),
    RelationSchema("r2", ("X", "Y"), key=("Y",)),
]
KEYED_INITIAL = {"r1": [(1, 2), (2, 3)], "r2": [(2, 5), (3, 6)]}


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


def build_single(name, view, snapshot, initial_view, updates):
    if name == "stored-copies":
        return StoredCopies(view, initial_view, snapshot)
    if name == "batch-eca":
        return create_algorithm(name, view, initial_view, batch_size=len(updates))
    return create_algorithm(name, view, initial_view)


class TestSingleSourceConformance:
    @pytest.mark.parametrize("scenario_name", ["example-2", "example-3"])
    @pytest.mark.parametrize("name", SINGLE_SOURCE + ["batch-eca", "recompute"])
    @pytest.mark.parametrize("seed", range(4))
    def test_paper_examples_replay_identically(self, scenario_name, name, seed):
        scenario = PAPER_EXAMPLES[scenario_name]

        def setup():
            source = MemorySource(scenario.schemas, scenario.initial)
            initial_view = evaluate_view(scenario.view, source.snapshot())
            if name == "recompute":
                algo = create_algorithm(
                    name, scenario.view, initial_view, period=1
                )
            else:
                algo = build_single(
                    name,
                    scenario.view,
                    source.snapshot(),
                    initial_view,
                    scenario.updates,
                )
            return source, algo

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
            return source, create_algorithm(
                "deferred-eca",
                scenario.view,
                evaluate_view(scenario.view, source.snapshot()),
            )

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
        view = View.natural_join("V", KEYED_SCHEMAS, ["W", "Y"])
        workload = random_workload(
            KEYED_SCHEMAS, 8, seed=seed, initial=KEYED_INITIAL, respect_keys=True
        )

        def setup():
            source = MemorySource(KEYED_SCHEMAS, KEYED_INITIAL)
            return source, create_algorithm(
                "eca-key", view, evaluate_view(view, source.snapshot())
            )

        source, algo = setup()
        result = run_concurrent(source, algo, workload, clients=2, seed=seed)
        twin_source, twin_algo = setup()
        kernel = replay_concurrent(
            result.action_log, {"source": twin_source}, twin_algo,
            {"source": workload},
        )
        assert_conforms(result, kernel)
        assert check_trace(view, result.trace).strongly_consistent


def two_source_setup():
    """Source A owns r1, source B owns r2; V spans both (keys projected)."""
    a_schema = [KEYED_SCHEMAS[0]]
    b_schema = [KEYED_SCHEMAS[1]]
    sources = {
        "A": MemorySource(a_schema, {"r1": KEYED_INITIAL["r1"]}),
        "B": MemorySource(b_schema, {"r2": KEYED_INITIAL["r2"]}),
    }
    view = View.natural_join("V", KEYED_SCHEMAS, ["W", "Y"])
    return sources, view


def build_multi(name, view, sources):
    snapshot = {}
    for source in sources.values():
        snapshot.update(source.snapshot())
    owners = {"r1": "A", "r2": "B"}
    options = {"owners": owners}
    if name == "multi-stored-copies":
        options["initial_copies"] = snapshot
    return create_algorithm(
        name, view, evaluate_view(view, snapshot), **options
    )


class TestMultiSourceConformance:
    @pytest.mark.parametrize("name", MULTI_SOURCE)
    @pytest.mark.parametrize("seed", range(4))
    def test_spanning_view_replays_identically(self, name, seed):
        workloads = {
            "A": random_workload(
                [KEYED_SCHEMAS[0]], 5, seed=seed,
                initial={"r1": KEYED_INITIAL["r1"]}, respect_keys=True,
            ),
            "B": random_workload(
                [KEYED_SCHEMAS[1]], 5, seed=seed + 50,
                initial={"r2": KEYED_INITIAL["r2"]}, respect_keys=True,
            ),
        }
        sources, view = two_source_setup()
        algo = build_multi(name, view, sources)
        result = run_concurrent(sources, algo, workloads, clients=2, seed=seed)
        twin_sources, twin_view = two_source_setup()
        twin_algo = build_multi(name, twin_view, twin_sources)
        kernel = replay_concurrent(
            result.action_log, twin_sources, twin_algo, workloads
        )
        assert_conforms(result, kernel)
        # Identical executions classify identically under cut consistency.
        live = cut_report(
            view, result.per_source_states, result.trace.view_states,
            result.final_view,
        )
        replayed = cut_report(
            twin_view, kernel.per_source_states, kernel.trace.view_states,
            kernel.algorithm.view_state(),
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
        sources, view = two_source_setup()
        algo = build_multi("strobe", view, sources)
        with pytest.raises(SimulationError, match="crash"):
            replay_concurrent(["update:A", "crash"], sources, algo, {"A": []})

    def test_overrunning_workload_is_refused(self):
        sources, view = two_source_setup()
        algo = build_multi("strobe", view, sources)
        with pytest.raises(SimulationError, match="beyond its workload"):
            replay_concurrent(
                ["update:A"], sources, algo, {"A": [], "B": []}
            )
