"""``build_algorithm``: one place starts a family from its sources.

(a) What it builds is what each run-start site built by hand before it:
    the same ``dumps_algorithm`` text for every registry name over one
    source and every multi-source name over two, and, after the same
    seeded run, the same text again.  A multi-source family holds
    ``relation_owners(sources)``, key for key and in order.
(b) An owners map that disagrees with the run's is refused by every
    kernel before the first event, with a ``ProtocolError`` naming the
    relation and both owners; the same map again passes.
(c) A run whose sources own no relation the view reads is refused by
    every kernel before the first event, with one ``ProtocolError``
    naming the relation.
"""

from __future__ import annotations

from functools import partial

import pytest

from families import INITIAL, MULTI_SOURCE, R1, build, sources, view
from repro.core.registry import ALGORITHMS, build_algorithm, create_algorithm
from repro.durability import dumps_algorithm
from repro.errors import ProtocolError
from repro.kernel.dispatch import relation_owners
from repro.kernel.sync import SyncKernel
from repro.relational.engine import evaluate_view
from repro.runtime import run_concurrent
from repro.simulation.schedules import RandomSchedule
from repro.source.memory import MemorySource
from repro.warehouse.catalog import WarehouseCatalog
from repro.workloads.paper_examples import PAPER_EXAMPLES
from repro.workloads.random_gen import random_workload

#: The owners map each two-source run-start site wrote out by hand.
OWNERS = {
    "pair": {"r1": "s0", "r2": "s1"},
    "split": {"r1": "A", "r2": "B", "r3": "B"},
    "chain": {"s0r": "s0", "s1r": "s1"},
}


def hand_built(name, defined, made, owners=None, **options):
    """The call a run-start site made: the initial view, and stored copies
    and owners where the family takes them, worked out by the caller."""
    state = {}
    for source in made.values():
        state.update(source.snapshot())
    if name in ("stored-copies", "multi-stored-copies"):
        options["initial_copies"] = state
    if owners is not None:
        options["owners"] = owners
    return create_algorithm(name, defined, evaluate_view(defined, state), **options)


def text(algorithm):
    return dumps_algorithm(algorithm, validate=False)


def assert_twins(name, defined, fresh, workload, owners=None, **options):
    """``build_algorithm`` over ``fresh()`` sources and its hand-built twin
    write the same text, before and after the same seeded run."""
    made = fresh()
    built = build_algorithm(name, defined, made, **options)
    twin = hand_built(name, defined, fresh(), owners, **options)
    assert text(built) == text(twin)
    if built.multi_source:
        expected = list(relation_owners(made).items())
        assert list(built.owners.items()) == expected
        assert list(built.durable_config()["owners"].items()) == expected
    runs = []
    for algorithm in (built, twin):
        kernel = SyncKernel(fresh(), algorithm, list(workload))
        kernel.run(RandomSchedule(3))
        runs.append(([repr(e) for e in kernel.trace.events], text(algorithm)))
    assert runs[0] == runs[1]


class TestBuiltEqualsHandBuilt:
    @pytest.mark.parametrize("name", sorted(ALGORITHMS))
    def test_every_registry_name_over_one_source(self, name):
        """One source holding r1 and r2, as ``repro runtime`` gives each
        view of its fan-out and the experiments give theirs."""
        owners = {"r1": "source", "r2": "source"} if name in MULTI_SOURCE else None
        _, _, workload = build("eca", 2)
        assert_twins(name, view(), partial(sources, "eca"), workload, owners)

    @pytest.mark.parametrize("topology", sorted(OWNERS))
    @pytest.mark.parametrize("name", MULTI_SOURCE)
    def test_every_multi_source_name_over_two_sources(self, name, topology):
        _, _, workload = build(name, 2, topology=topology)
        fresh = partial(sources, name, topology)
        assert_twins(name, view(topology), fresh, workload, OWNERS[topology])

    @pytest.mark.parametrize("name", sorted(PAPER_EXAMPLES))
    def test_every_paper_scenario(self, name):
        scenario = PAPER_EXAMPLES[name]
        assert_twins(
            scenario.algorithm,
            scenario.view,
            lambda: {"source": MemorySource(scenario.schemas, scenario.initial)},
            scenario.updates,
            **scenario.algorithm_options,
        )

    def test_a_lone_source_is_named_as_the_kernels_name_it(self):
        built = build_algorithm("strobe", view(), sources("eca")["source"])
        assert built.owners == {"r1": "source", "r2": "source"}

    def test_an_unknown_name_is_refused_by_name(self):
        with pytest.raises(KeyError, match="unknown algorithm 'nope'"):
            build_algorithm("nope", view(), sources("eca"))


#: The multi-source families that query their sources.
QUERYING = ["fragmenting-incremental", "strobe", "sweep"]
#: r1 and r2 at sources the run does not have.
ELSEWHERE = {"r1": "A", "r2": "B"}


def disagreeing(name):
    made, _, workload = build(name, 1)
    return made, create_algorithm(name, view(), None, owners=ELSEWHERE), workload


class TestOwnersThatDisagree:
    """A map naming other sources than the run's is refused up front: it
    used to raise a bare ``KeyError`` mid-run on the sync kernel and spin
    until the quiesce limit on the runtime."""

    MESSAGE = "relation 'r1' is owned by 'A' in the map it holds and by 's0'"

    @pytest.mark.parametrize("name", QUERYING)
    def test_the_sync_kernel_refuses_it(self, name):
        made, algorithm, workload = disagreeing(name)
        with pytest.raises(ProtocolError, match=self.MESSAGE):
            SyncKernel(made, algorithm, workload)

    @pytest.mark.parametrize("name", QUERYING)
    def test_the_runtime_refuses_it(self, name):
        made, algorithm, workload = disagreeing(name)
        with pytest.raises(ProtocolError, match=self.MESSAGE):
            run_concurrent(made, algorithm, workload, seed=1)

    @pytest.mark.parametrize("name", QUERYING)
    def test_a_catalog_refuses_it(self, name):
        made, algorithm, workload = disagreeing(name)
        with pytest.raises(ProtocolError, match=self.MESSAGE):
            SyncKernel(made, WarehouseCatalog({"V": algorithm}), workload)

    @pytest.mark.parametrize("name", QUERYING)
    def test_the_same_map_again_passes(self, name):
        made, algorithm, workload = build(name, 1)
        owners = dict(algorithm.owners)
        algorithm.bind_owners(relation_owners(made))
        SyncKernel(made, algorithm, workload).run(RandomSchedule(1))
        assert algorithm.owners == owners
        assert algorithm.is_quiescent()

    def test_a_single_source_family_bound_elsewhere_is_refused(self):
        made, algorithm, workload = build("eca", 1)
        algorithm.bind_owners({"r1": "source", "r2": "source", "r9": "other"})
        with pytest.raises(ProtocolError, match="relation 'r1' is owned by 'source'"):
            algorithm.bind_owners({"r1": "s0", "r2": "s0"})



class TestUnownedRelation:
    """Sources holding ``r1`` alone under the ``r1 ⋈ r2`` view: every
    kernel refuses the run with one ``ProtocolError`` before any event.
    It used to fail mid-run, with an ``ExpressionError``, a
    ``ProtocolError`` or a ``SchemaError`` by family and kernel."""

    MESSAGE = "no source of the run owns relation 'r2'"

    @pytest.mark.parametrize(
        "start",
        [SyncKernel, partial(run_concurrent, seed=1)],
        ids=["sync", "runtime"],
    )
    @pytest.mark.parametrize("name", ["eca", "strobe", "sweep"])
    def test_every_kernel_refuses_it_before_any_event(self, name, start, monkeypatch):
        held = {"r1": INITIAL["r1"]}
        made = {"source": MemorySource([R1], held)}
        algorithm = create_algorithm(name, view())
        events = []
        for hook in ("on_update", "on_update_batch", "on_answer", "on_refresh"):
            monkeypatch.setattr(
                algorithm, hook, lambda *args, hook=hook: events.append(hook)
            )
        workload = random_workload([R1], 4, seed=1, initial=held, respect_keys=True)
        with pytest.raises(ProtocolError, match=self.MESSAGE):
            start(made, algorithm, workload)
        assert events == []
        assert algorithm.owners == {}
