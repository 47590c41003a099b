"""Property tests: durability reconstructs warehouse state exactly.

The central claim (state-machine replication): for any seeded workload,
any answer-delay interleaving, any snapshot cadence, and any crash point,
decoding the newest snapshot's chain and replaying the WAL's ``recv`` records
rebuilds an algorithm whose canonical encoding is *byte-identical* to the
live one at the crash point — and whose re-issued requests are exactly
the pending ones.  On top of that, the concurrent runtime with crash
injection must keep ECA strongly consistent on the paper's Example 2/3
workloads (the Section 3.1 checker is the oracle).

The writer memoises: a pending query's text and an unchanged view's
contents are rendered once and spliced into every later snapshot.  A
stale or misplaced memo fails no CRC and no round trip — it is simply
the wrong bytes — so the last test holds every snapshot of every
registry family against the tree-building encoder the text path
replaced, kept here as the reference: a root byte for byte, a delta
through the state its chain folds to.
"""

import json
import os
import random
import tempfile
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.consistency import check_trace
from repro.core.eca import ECA
from repro.core.registry import ALGORITHMS, create_algorithm
from repro.durability import (
    CODEC_VERSION,
    WriteAheadLog,
    decode_algorithm,
    dumps_algorithm,
    encode_value,
    loads_algorithm,
    read_latest_snapshot,
    recover,
)
from repro.durability.wal import _snapshot_name
from repro.kernel.sync import REFRESH, SyncKernel
from repro.messaging.messages import QueryAnswer, UpdateNotification
from repro.relational.engine import evaluate_view
from repro.relational.schema import RelationSchema
from repro.relational.views import View
from repro.runtime import CrashPolicy, run_concurrent
from repro.simulation.schedules import RandomSchedule
from repro.source.memory import MemorySource
from repro.warehouse.catalog import WarehouseCatalog
from repro.workloads.paper_examples import PAPER_EXAMPLES
from repro.workloads.random_gen import random_workload

SCHEMAS = [
    RelationSchema("r1", ("W", "X"), key=("W",)),
    RelationSchema("r2", ("X", "Y"), key=("Y",)),
]
INITIAL = {"r1": [(0, 1), (1, 2)], "r2": [(1, 0), (2, 1)]}

seeds = st.integers(0, 10_000)
algorithm_names = st.sampled_from(["eca", "eca-key", "lca"])


def drive_with_wal(directory, name, workload_seed, pace_seed, cadence, max_events):
    """Feed a WAL-logged message stream to a live algorithm, stopping at
    an arbitrary event boundary (the simulated crash point)."""
    view = View.natural_join("V", SCHEMAS, ["W", "Y"])
    source = MemorySource(SCHEMAS, INITIAL)
    algorithm = create_algorithm(
        name, view, evaluate_view(view, source.snapshot())
    )
    workload = list(
        random_workload(
            SCHEMAS, 8, seed=workload_seed, initial=INITIAL, respect_keys=True
        )
    )
    wal = WriteAheadLog(str(directory), snapshot_every=cadence)
    wal.snapshot(algorithm)  # genesis
    rng = random.Random(pace_seed)
    pending = []  # FIFO of (query_id, query) awaiting answers
    serial = 0
    events = 0
    while events < max_events and (workload or pending):
        answer_next = pending and (not workload or rng.random() < 0.5)
        if answer_next:
            query_id, query = pending.pop(0)
            message = QueryAnswer(query_id, source.evaluate(query))
        else:
            update = workload.pop(0)
            source.apply_update(update)
            serial += 1
            message = UpdateNotification(update, serial)
        wal.append(
            {"channel": "source->wh", "origin": "source", "message": encode_value(message)},
        )
        if isinstance(message, UpdateNotification):
            requests = algorithm.handle_update(message)
        else:
            requests = algorithm.handle_answer(message)
        pending.extend((r.query_id, r.query) for r in requests)
        events += 1
        wal.maybe_snapshot(algorithm)
    wal.close()
    return algorithm


@settings(max_examples=25, deadline=None)
@given(algorithm_names, seeds, seeds, st.integers(1, 9), st.integers(0, 40))
def test_recovery_is_byte_identical_at_any_crash_point(
    name, workload_seed, pace_seed, cadence, max_events
):
    # A fresh directory per generated input (hypothesis re-runs the test
    # body many times, so a function-scoped fixture would be reused).
    with tempfile.TemporaryDirectory(prefix="repro-wal-") as directory:
        live = drive_with_wal(
            directory, name, workload_seed, pace_seed, cadence, max_events
        )
        recovered = recover(directory)
        assert dumps_algorithm(recovered.algorithm) == dumps_algorithm(live)
        assert [req for _, req in recovered.reissue] == [
            req for _, req in live.pending_requests()
        ]


@settings(max_examples=12, deadline=None)
@given(st.sampled_from(["example-2", "example-3"]), seeds, st.booleans())
def test_crashed_runtime_stays_strongly_consistent(
    scenario_name, seed, drop_sends
):
    scenario = PAPER_EXAMPLES[scenario_name]
    source = MemorySource(scenario.schemas, scenario.initial)
    warehouse = ECA(
        scenario.view, evaluate_view(scenario.view, source.snapshot())
    )
    with tempfile.TemporaryDirectory(prefix="repro-wal-") as directory:
        result = run_concurrent(
            source,
            warehouse,
            scenario.updates,
            clients=2,
            seed=seed,
            wal_dir=directory,
            snapshot_every=4,
            crash=CrashPolicy(mode="mid-uqs", drop_sends=drop_sends, seed=seed),
        )
    report = check_trace(scenario.view, result.trace)
    assert report.strongly_consistent, report.detail
    assert result.final_view == evaluate_view(
        scenario.view, result.trace.final_source_state
    )


# --------------------------------------------------------------------- #
# The text path against the tree path it replaced
# --------------------------------------------------------------------- #


def reference_json(payload):
    return json.dumps(payload, separators=(",", ":"), sort_keys=True)


def reference_encode_algorithm(algorithm, view=None):
    """The dict-building algorithm encoder, as it stood before
    ``encode_algorithm`` rendered text: ``encode_value`` over everything,
    the view contents copied out and re-sorted on every call.  A catalog
    member is its class's algorithm under the member's own view."""
    if getattr(algorithm, "codec_tag", "algo") == "algo.catalog":
        return {
            "$": "algo.catalog",
            "share": algorithm.share_compensation,
            "members": [
                [name, reference_encode_algorithm(member, algorithm.views[name])]
                for name, member in algorithm.algorithms.items()
            ],
            "pending": encode_value(algorithm.pending_state()),
        }
    return {
        "$": "algo",
        "name": algorithm.name,
        "view": encode_value(algorithm.view if view is None else view),
        "mv": encode_value(algorithm.mv.as_bag()),
        "config": encode_value(algorithm.durable_config()),
        "pending": encode_value(algorithm.pending_state()),
    }


def reference_dumps_algorithm(algorithm):
    return reference_json(
        {"v": CODEC_VERSION, "data": reference_encode_algorithm(algorithm)}
    )


def reference_snapshot(lsn, algorithm):
    """A snapshot file sealed by double dump: once for the CRC, once for
    the body."""
    payload = {
        "lsn": lsn,
        "algo": reference_encode_algorithm(algorithm),
        "v": CODEC_VERSION,
    }
    crc = zlib.crc32(reference_json(payload).encode("utf-8"))
    return reference_json({**payload, "crc": crc}) + "\n"


def build_family(family, seed):
    """``(sources, algorithm, workload)`` for one registry name, or for a
    catalog of mixed members with the planner sharing or not."""
    view = View.natural_join("V", SCHEMAS, ["W", "Y"])
    workload = list(
        random_workload(SCHEMAS, 10, seed=seed, initial=INITIAL, respect_keys=True)
    )
    rng = random.Random(seed)
    for _ in range(2):  # what a deferred algorithm flushes on
        workload.insert(rng.randrange(len(workload) + 1), REFRESH)
    if family in ALGORITHMS and getattr(ALGORITHMS[family], "multi_source", False):
        sources = {
            "A": MemorySource([SCHEMAS[0]], {"r1": INITIAL["r1"]}),
            "B": MemorySource([SCHEMAS[1]], {"r2": INITIAL["r2"]}),
        }
        options = {"owners": {"r1": "A", "r2": "B"}}
    else:
        sources = {"source": MemorySource(SCHEMAS, INITIAL)}
        options = {}
    state = {}
    for source in sources.values():
        state.update(source.snapshot())
    if family in ("stored-copies", "multi-stored-copies"):
        options["initial_copies"] = state
    if family in ALGORITHMS:
        algorithm = create_algorithm(
            family, view, evaluate_view(view, state), **options
        )
    else:
        members = {}
        for index, name in enumerate(["eca", "eca", "eca-key", "lca"]):
            member_view = View.natural_join(f"V{index}", SCHEMAS, ["W", "Y"])
            members[f"V{index}"] = create_algorithm(
                name, member_view, evaluate_view(member_view, state)
            )
        algorithm = WarehouseCatalog(
            members, share_compensation=family == "catalog-shared"
        )
    return sources, algorithm, workload


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("family", sorted(ALGORITHMS) + ["catalog", "catalog-shared"])
def test_every_snapshot_is_byte_identical_to_the_tree_path(family, seed, tmp_path):
    directory = str(tmp_path)
    sources, algorithm, workload = build_family(family, seed)
    kernel = SyncKernel(sources, algorithm, workload)
    # Updates outrun answers, so queries stay pending across snapshots.
    schedule = RandomSchedule(seed, weights={"update": 3.0})
    wal = WriteAheadLog(directory)
    events = restarts = 0
    while not kernel.is_done():
        action = schedule.choose(kernel.available_actions())
        if not action.startswith("warehouse:"):
            kernel.step(action)
            continue
        name = action.split(":", 1)[1]
        origin = name if name in sources else None
        message = encode_value(kernel.inbound[name].peek())
        wal.append({"channel": name, "origin": origin, "message": message})
        kernel.step(action)  # one dispatch_event
        events += 1

        lsn = wal.snapshot(kernel.algorithm)
        path = os.path.join(directory, _snapshot_name(lsn))
        with open(path, encoding="utf-8") as handle:
            body = handle.read()
        if "base" in json.loads(body):
            # A delta: the chain it ends folds to the reference's state.
            folded = decode_algorithm(read_latest_snapshot(directory)[1])
            folded.bind_owners(kernel.owners)
            assert reference_dumps_algorithm(folded) == reference_dumps_algorithm(
                kernel.algorithm
            )
        else:
            assert body == reference_snapshot(lsn, kernel.algorithm)
        text = dumps_algorithm(kernel.algorithm, validate=False)
        assert text == reference_dumps_algorithm(kernel.algorithm)
        assert dumps_algorithm(loads_algorithm(text), validate=False) == text

        if events % 4 == 0:
            # The warehouse restarts and the recovered algorithm carries
            # the run on: nothing it holds has a memo yet.
            wal.close()
            recovered = recover(directory).algorithm
            recovered.bind_owners(kernel.owners)
            assert reference_dumps_algorithm(recovered) == text
            kernel.algorithm = recovered
            wal = WriteAheadLog(directory)
            restarts += 1
    wal.close()
    assert restarts >= 2
