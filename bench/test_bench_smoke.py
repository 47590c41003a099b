"""Smoke test of the benchmark itself — ``python3 -m pytest bench/``.

Outside tier-1 ``testpaths``: it runs every workload once at quarter size
(``--quick``) and checks the *shape* of what comes out, never the values.
"""

from __future__ import annotations

import gc
import json
import os
import re
import shutil
import subprocess
import sys
import time

import pytest

from bench import compare, layers, metrics, run
from bench.trace import Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")


@pytest.fixture(scope="module")
def manifest():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def record(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench") / "quick.json"
    assert run.main(["--quick", "--traced", "--seed", "0", "--out", str(out)]) == 0
    with open(out, encoding="utf-8") as handle:
        return json.load(handle)


def test_manifest_is_generated_from_the_metric_table(manifest):
    assert manifest == metrics.manifest()


def test_names_are_legal_and_unique(manifest):
    names = [w["name"] for w in manifest["workloads"]]
    names += [m["name"] for m in manifest["end_to_end"] + manifest["per_layer"]]
    assert all(NAME.match(name) for name in names), names
    assert len(set(names)) == len(names)


def test_quick_run_produces_exactly_the_declared_names(manifest, record):
    declared = sorted(w["name"] for w in manifest["workloads"])
    assert sorted(record["workloads"]) == declared
    everywhere = {m["name"] for m in manifest["end_to_end"]}
    layered = {m["name"] for m in manifest["per_layer"]}
    for name, entry in record["workloads"].items():
        secondary = {m.name for m in metrics.SECONDARY if m.defined_on(name)}
        assert set(entry["end_to_end"]) == everywhere | secondary, name
        assert set(entry["per_layer"]) == layered, name
        for cell in entry["end_to_end"].values():
            assert cell["value"] > 0, name


def test_outputs_are_correct(record):
    for name, entry in record["workloads"].items():
        assert entry["error_rate"] == 0, (name, entry["checks"])
        assert entry["checks"]["attempted"] >= 1


def test_self_times_are_sane(record):
    for name, entry in record["workloads"].items():
        layer = {key: cell["value"] for key, cell in entry["per_layer"].items()}
        for key, value in layer.items():
            if key.endswith(".self_s"):
                assert value >= 0, (name, key)
        # Sum of self times never exceeds the measured region.
        assert 0 < layer["trace.coverage"] <= 1.0 + 1e-9, name


def test_times_are_brought_to_reference_speed(record):
    from bench.workloads import Outcome

    def figure(slowdown):
        repeat = Outcome(updates=10, maintain_s=2.0, msgs_to_source=10,
                         msgs_to_warehouse=20, bytes_sent=40, slowdown=slowdown)
        return metrics.end_to_end([repeat], [0.5])["updates_per_s"]["value"]

    # A machine probed at half speed took twice as long for the same work.
    assert figure(2.0) == pytest.approx(2 * figure(1.0))
    for entry in record["workloads"].values():
        assert entry["machine_slowdown"]["value"] > 0
        assert entry["per_layer"]["machine.slowdown"]["value"] > 0


def test_tracer_self_time_adds_up_to_the_root():
    tracer = Tracer()

    def leaf():
        time.sleep(0.001)

    def branch():
        traced_leaf()
        traced_leaf()

    traced_leaf = tracer.wrap("leaf", leaf)
    traced_branch = tracer.wrap("branch", branch)
    traced_branch()  # tracer off: not recorded
    with tracer.root("root", "w"):
        traced_branch()
    assert tracer.names == ["root", "branch", "leaf", "leaf"]
    assert tracer.parents == [-1, 0, 1, 1]
    own = tracer.self_times()
    assert all(value >= 0 for value in own)
    assert sum(own) == pytest.approx(tracer.durations()[0])


def test_wrappers_are_removed_after_a_traced_run(record):
    for _, module_name, path, _ in layers.sites():
        owner = sys.modules[module_name]
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        assert not hasattr(vars(owner)[attr], "__wrapped__"), (module_name, path)
    assert not [
        cb for cb in gc.callbacks if isinstance(getattr(cb, "__self__", None), Tracer)
    ]


def test_untraced_run_imports_no_tracing():
    code = (
        "import sys; sys.path.insert(0, '.'); from bench import run;"
        "run.main(['--quick', '--workload', 'eca_storm']);"
        "assert 'bench.trace' not in sys.modules and 'bench.layers' not in sys.modules"
    )
    subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True,
                   capture_output=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_result_line_follows_the_driver_contract(manifest, trace):
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--quick", "--workload", "fanin_sharded",
         "--seed", "3", "--seconds", "1", "--trace", trace],
        cwd=ROOT, check=True, capture_output=True, text=True, timeout=170,
    )
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    group = "per_layer" if trace == "1" else "end_to_end"
    declared = {m["name"]: m["unit"] for m in manifest[group]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "bench"), tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "eca_paced", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def test_compare_flags_regressions_and_drift(record):
    full = json.loads(json.dumps(record))
    full["meta"]["quick"] = False
    rows, passed = compare.compare(full, full)
    assert passed and {row[-1] for row in rows} <= {"ok", "exact", "unresolved"}

    slower = json.loads(json.dumps(full))
    cell = slower["workloads"]["eca_storm"]["end_to_end"]["updates_per_s"]
    cell["value"] *= 0.5
    drifted = slower["workloads"]["eca_paced"]["end_to_end"]["msgs_per_update"]
    drifted["value"] += 1
    slower["workloads"]["read_storm"]["error_rate"] = 0.5
    rows, passed = compare.compare(full, slower)
    status = {(row[0], row[1]): row[-1] for row in rows}
    assert not passed
    assert status["eca_storm", "updates_per_s"] == "REGRESSION"
    assert status["eca_paced", "msgs_per_update"] == "DRIFT"
    assert status["read_storm", "error_rate"] == "REGRESSION"

    noisy = json.loads(json.dumps(slower))
    noisy["workloads"]["eca_storm"]["end_to_end"]["updates_per_s"]["spread"] = 0.9
    rows, _ = compare.compare(full, noisy)
    status = {(row[0], row[1]): row[-1] for row in rows}
    assert status["eca_storm", "updates_per_s"] == "unresolved"
