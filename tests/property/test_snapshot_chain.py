"""Property: a snapshot chain recovers exactly what a full snapshot does.

A WAL snapshot is a root, holding the algorithm whole, or a delta over
the snapshot before it (``docs/DURABILITY.md``).  This runs every
registry algorithm (multi-source families over a two-source chain, as
``repro runtime`` builds) and an ECA catalog with sharing off and on
through :class:`SyncKernel` under a seeded random schedule, snapshotting
after every other warehouse event.  At each snapshot the chain — root, then
every delta — must recover to the byte-identical ``dumps_algorithm`` a
root written at the same LSN recovers to, and the live algorithm has.

The view's journal has two readers, the history recorder and the WAL:
neither may take what the other has not read, in either read order.
"""

from __future__ import annotations

import os

import pytest

from repro.core.registry import ALGORITHMS, create_algorithm
from repro.durability import WriteAheadLog, dumps_algorithm, recover
from repro.durability.wal import SNAPSHOT_PREFIX
from repro.kernel.sync import REFRESH, SyncKernel
from repro.relational.engine import evaluate_view
from repro.relational.schema import RelationSchema
from repro.relational.views import View
from repro.simulation.schedules import RandomSchedule
from repro.source.memory import MemorySource
from repro.source.updates import delete, insert
from repro.warehouse.catalog import WarehouseCatalog
from repro.workloads.random_gen import random_workload

SCHEMAS = [
    RelationSchema("r1", ("W", "X"), key=("W",)),
    RelationSchema("r2", ("X", "Y"), key=("Y",)),
]
INITIAL = {"r1": [(1, 2), (2, 3)], "r2": [(2, 5), (3, 6)]}

FAMILIES = sorted(ALGORITHMS) + ["catalog", "catalog-shared"]


def build(family, seed):
    """``(sources, warehouse, workload)`` for one registry name or catalog."""
    workload = list(
        random_workload(SCHEMAS, 8, seed=seed, initial=INITIAL, respect_keys=True)
    )
    workload.append(REFRESH)  # what a deferred family flushes on
    if getattr(ALGORITHMS.get(family), "multi_source", False):
        sources = {
            "s0": MemorySource([SCHEMAS[0]], {"r1": INITIAL["r1"]}),
            "s1": MemorySource([SCHEMAS[1]], {"r2": INITIAL["r2"]}),
        }
        options = {"owners": {"r1": "s0", "r2": "s1"}}
    else:
        sources = {"source": MemorySource(SCHEMAS, INITIAL)}
        options = {}
    state = {}
    for source in sources.values():
        state.update(source.snapshot())
    if family in ("stored-copies", "multi-stored-copies"):
        options["initial_copies"] = state
    if family in ALGORITHMS:
        view = View.natural_join("V", SCHEMAS, ["W", "Y"])
        return sources, create_algorithm(
            family, view, evaluate_view(view, state), **options
        ), workload
    # V0 and V1 are one class; V2 keeps X, so it is a class of its own.
    members = {}
    for index, projection in enumerate([["W", "Y"], ["W", "Y"], ["W", "r1.X", "Y"]]):
        view = View.natural_join(f"V{index}", SCHEMAS, projection)
        members[view.name] = create_algorithm("eca", view, evaluate_view(view, state))
    catalog = WarehouseCatalog(members, share_compensation=family == "catalog-shared")
    return sources, catalog, workload


def text(algorithm):
    return dumps_algorithm(algorithm, validate=False)


def links(directory):
    return sum(name.startswith(SNAPSHOT_PREFIX) for name in os.listdir(directory))


@pytest.mark.parametrize("seed", [3, 4])
@pytest.mark.parametrize("family", FAMILIES)
def test_a_chain_recovers_what_a_root_at_its_lsn_recovers(family, seed, tmp_path):
    chain_dir, root_dir = str(tmp_path / "chain"), str(tmp_path / "root")
    sources, warehouse, workload = build(family, seed)
    kernel = SyncKernel(sources, warehouse, workload)
    schedule = RandomSchedule(seed, weights={"update": 2.0})
    wal = WriteAheadLog(chain_dir)
    wal.snapshot(warehouse)
    longest = events = 0
    while not kernel.is_done():
        action = schedule.choose(kernel.available_actions())
        kernel.step(action)
        if not action.startswith("warehouse:"):
            continue
        events += 1
        wal.append({})
        if events % 2:
            continue  # two events' changes in the next delta
        lsn = wal.snapshot(warehouse)
        # A handle's first snapshot is a root: one at the same LSN.
        twin = WriteAheadLog(root_dir)
        while twin.last_lsn < lsn:
            twin.append({})
        twin.snapshot(warehouse)
        twin.close()
        assert links(root_dir) == 1
        longest = max(longest, links(chain_dir))
        live = text(warehouse)
        assert text(recover(chain_dir).algorithm) == live, f"chain at LSN {lsn}"
        assert text(recover(root_dir).algorithm) == live, f"root at LSN {lsn}"
    wal.close()
    assert longest >= 2, "the run must write deltas"


@pytest.mark.parametrize("wal_first", [False, True], ids=["recorder-first", "wal-first"])
def test_the_recorder_and_the_wal_each_read_every_change(wal_first, tmp_path):
    """The kernel's history recorder reads the journal as it records each
    warehouse event; the WAL snapshots after it, or — through a
    ``view_changes`` that snapshots first — before it."""
    sources, warehouse, _ = build("eca", seed=5)
    workload = [insert("r1", (w, 2 + w % 2)) for w in range(3, 9)]
    workload += [delete("r1", (4, 2)), insert("r2", (3, 7)), delete("r2", (2, 5))]
    mv = warehouse.mv
    assert mv._journals == {}, "a view nobody reads journals nothing"
    wal = WriteAheadLog(str(tmp_path))
    wal.snapshot(warehouse)

    def read_wal():
        wal.append({})
        wal.snapshot(warehouse)
        assert text(recover(str(tmp_path)).algorithm) == text(warehouse)

    if wal_first:
        recorder_reads = warehouse.view_changes

        def view_changes():
            read_wal()
            return recorder_reads()

        warehouse.view_changes = view_changes
    expected = [warehouse.view_state().copy()]
    kernel = SyncKernel(sources, warehouse, workload)
    schedule = RandomSchedule(5, weights={"update": 0.3})
    while not kernel.is_done():
        action = schedule.choose(kernel.available_actions())
        kernel.step(action)
        if action.startswith("warehouse:"):
            expected.append(warehouse.view_state().copy())
            if not wal_first:
                read_wal()
    assert len(set(map(repr, expected))) > 5, "the view must change along the way"
    assert list(kernel.trace.view_states) == expected
    wal.close()
    assert list(mv._journals) == [None], "closing the WAL closes its journal"
