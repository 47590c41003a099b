"""Property: a snapshot chain recovers exactly what a full snapshot does.

A WAL snapshot is a root, holding the algorithm whole, or a delta over
the snapshot before it (``docs/DURABILITY.md``).  This runs every name
of ``families.FAMILIES`` — each registry algorithm (the multi-source
ones over two sources) and each catalog composition — through
:class:`SyncKernel` under a seeded random schedule, snapshotting after
every other warehouse event.  At each snapshot the chain — root, then
every delta — must recover to the byte-identical ``dumps_algorithm`` a
root written at the same LSN recovers to, and the live algorithm has.

The view's journal has two readers, the history recorder and the WAL:
neither may take what the other has not read, in either read order.
"""

from __future__ import annotations

import os

import pytest

from families import FAMILIES, build
from repro.durability import WriteAheadLog, dumps_algorithm, recover
from repro.durability.wal import SNAPSHOT_PREFIX
from repro.kernel.sync import SyncKernel
from repro.simulation.schedules import RandomSchedule
from repro.source.updates import delete, insert


def text(algorithm):
    return dumps_algorithm(algorithm, validate=False)


def links(directory):
    return sum(name.startswith(SNAPSHOT_PREFIX) for name in os.listdir(directory))


@pytest.mark.parametrize("seed", [3, 4])
@pytest.mark.parametrize("family", FAMILIES)
def test_a_chain_recovers_what_a_root_at_its_lsn_recovers(family, seed, tmp_path):
    chain_dir, root_dir = str(tmp_path / "chain"), str(tmp_path / "root")
    # A REFRESH last: what a deferred family flushes on.
    sources, warehouse, workload = build(family, seed, updates=8, refresh="end")
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
