"""``tools/cold_caches.py``: its table still matches the tree, and a cold
run is the warm run.

- **Drift:** every name the plugin swaps still exists as the kind its
  entry expects (a ``__slots__`` member, an attribute ``__init__``
  assigns, a module-level mapping, a writer and the fields it resets), so
  a renamed slot fails here instead of leaving a cache warm under
  ``same_histories.py --cold``.
- **Warm equals cold:** one scenario runs in two subprocesses, the
  second with every cache cold.  Two runs: a two-class ECA catalog
  with sharing on, stepped on :class:`SyncKernel` with a serving cache,
  and an Example 6 view under ``run_concurrent`` with a WAL, the frame
  codec and a mid-UQS crash.  Compared: ``dumps_algorithm`` after every
  warehouse event, the histories, the served reads, the WAL directory's
  bytes and what ``recover`` rebuilds from it.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
TOOLS = REPO_ROOT / "tools"
sys.path.insert(0, str(TOOLS))

import cold_caches  # noqa: E402

from repro.core.compensation import ProbeIndex  # noqa: E402
from repro.core.eca import ECA  # noqa: E402
from repro.costmodel.parameters import PaperParameters  # noqa: E402
from repro.durability import dumps_algorithm, recover  # noqa: E402
from repro.durability.crash import CrashPolicy  # noqa: E402
from repro.kernel.sync import SyncKernel  # noqa: E402
from repro.relational.engine import evaluate_view  # noqa: E402
from repro.relational.schema import RelationSchema  # noqa: E402
from repro.relational.views import View  # noqa: E402
from repro.runtime import actors, run_concurrent  # noqa: E402
from repro.serving import ServingCache, reader_for  # noqa: E402
from repro.simulation.schedules import RandomSchedule  # noqa: E402
from repro.source.memory import MemorySource  # noqa: E402
from repro.warehouse.catalog import WarehouseCatalog  # noqa: E402
from repro.warehouse.state import MaterializedView  # noqa: E402
from repro.workloads.example6 import build_example6  # noqa: E402
from repro.workloads.random_gen import random_workload  # noqa: E402

SCHEMAS = [
    RelationSchema("r1", ("W", "X"), key=("W",)),
    RelationSchema("r2", ("X", "Y"), key=("Y",)),
]
INITIAL = {"r1": [(1, 2), (2, 3), (3, 2)], "r2": [(2, 5), (3, 6)]}


# --------------------------------------------------------------------- #
# Drift
# --------------------------------------------------------------------- #


def test_every_swapped_name_is_still_the_kind_the_plugin_expects():
    assert cold_caches.drift() == []


#: A fresh instance of every class whose instance attributes the table names.
INSTANCES = {
    "MaterializedView": lambda: MaterializedView(View.natural_join("V", SCHEMAS, ["W"])),
    "View": lambda: View.natural_join("V", SCHEMAS, ["W"]),
    "MemorySource": lambda: MemorySource(SCHEMAS),
    "ProbeIndex": lambda: ProbeIndex({}),
}


def test_every_instance_field_the_plugin_drops_is_on_a_fresh_instance():
    for cache in cold_caches.CACHES:
        if cache.kind not in ("attribute", "kept"):
            continue
        owner, name = cache.name.split(".")
        fields = (name,) if cache.kind == "attribute" else cache.fields
        instance = INSTANCES[owner]()
        for field in fields:
            assert field in vars(instance), (cache.name, field)


# --------------------------------------------------------------------- #
# Warm equals cold
# --------------------------------------------------------------------- #


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def history(trace) -> list:
    return [
        [repr(event) for event in trace.events],
        [state.to_pairs() for state in trace.view_states],
        [
            sorted((name, bag.to_pairs()) for name, bag in state.items())
            for state in trace.source_states
        ],
    ]


def catalog_run() -> dict:
    """Two classes of two ECA members each, sharing on, a serving cache
    read after every step."""
    source = MemorySource(SCHEMAS, INITIAL)
    state = source.snapshot()
    members = {}
    for index, projection in enumerate([["W", "Y"], ["W", "Y"], ["Y", "W"], ["Y", "W"]]):
        view = View.natural_join(f"V{index}", SCHEMAS, projection)
        members[view.name] = ECA(view, evaluate_view(view, state))
    catalog = WarehouseCatalog(members, share_compensation=True)
    workload = random_workload(SCHEMAS, 10, seed=4, initial=INITIAL, respect_keys=True)
    cache = ServingCache(capacity=6, staleness_bound=1)
    kernel = SyncKernel({"source": source}, catalog, workload, cache=cache)
    reader = reader_for(catalog)
    addresses = reader.current_keys()
    schedule = RandomSchedule(2)
    dumps, reads = [], []
    while not kernel.is_done():
        action = schedule.choose(kernel.available_actions())
        kernel.step(action)
        if action.startswith("warehouse:"):
            dumps.append(digest(dumps_algorithm(catalog)))
        for view_name, key in addresses[:4] + [addresses[len(reads) % len(addresses)]]:
            served = cache.read(view_name, key, reader.loader(view_name, key))
            reads.append([view_name, list(key), served.value.to_pairs(), served.status])
    return {
        "dumps": dumps,
        "history": history(kernel.trace),
        "reads": digest(repr(reads)),
        "serving": cache.report(),
    }


def wal_run() -> dict:
    """Example 6 under the runtime: WAL, frame codec, one mid-UQS crash."""
    setup = build_example6(PaperParameters(cardinality=60), k=16, seed=3)
    source = MemorySource(setup.schemas, setup.initial)
    algorithm = ECA(setup.view, evaluate_view(setup.view, source.snapshot()))
    dumps = []
    dispatch = actors.dispatch_event

    def recording(warehouse, origin, message):
        out = dispatch(warehouse, origin, message)
        dumps.append(digest(dumps_algorithm(warehouse)))
        return out

    actors.dispatch_event = recording
    try:
        with tempfile.TemporaryDirectory() as wal_dir:
            result = run_concurrent(
                source, algorithm, setup.workload, seed=5, max_burst=4,
                wal_dir=wal_dir, snapshot_every=4, wire_codec="frame",
                crash=CrashPolicy(mode="mid-uqs", max_crashes=1, seed=5),
            )
            files = {
                name: digest(Path(wal_dir, name).read_text(encoding="utf-8"))
                for name in sorted(os.listdir(wal_dir))
                if name != "wal.lock"
            }
            recovered = dumps_algorithm(recover(wal_dir).algorithm)
    finally:
        actors.dispatch_event = dispatch
    return {
        "dumps": dumps,
        "history": history(result.trace),
        "actions": result.action_log,
        "crashes": result.crashes,
        "final": result.final_view.to_pairs(),
        "wal": files,
        "recovered": digest(recovered),
    }


def scenario() -> str:
    return json.dumps({"catalog": catalog_run(), "wal": wal_run()}, default=repr)


def run(cold: bool) -> dict:
    code = "import test_cold_caches as t; print(t.scenario())"
    args = ["-m", "cold_caches", "-c", code] if cold else ["-c", code]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src"), str(TOOLS), str(Path(__file__).parent)]
    )
    env["PYTHONHASHSEED"] = "0"
    done = subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


@pytest.fixture(scope="module")
def warm_and_cold():
    return run(cold=False), run(cold=True)


@pytest.mark.parametrize("part", ["catalog", "wal"])
def test_a_cold_run_is_the_warm_run(warm_and_cold, part):
    warm, cold = warm_and_cold
    assert warm[part]["dumps"], part  # the scenario reached warehouse events
    for field in warm[part]:
        assert warm[part][field] == cold[part][field], (part, field)


def test_the_wal_run_crashed_and_recovered(warm_and_cold):
    warm, _ = warm_and_cold
    assert len(warm["wal"]["crashes"]) == 1
    assert any(name.startswith("snapshot-") for name in warm["wal"]["wal"])
