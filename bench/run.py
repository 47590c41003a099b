"""Run the benchmark: ``python3 bench/run.py [--workload NAME] --seed N``.

Two passes exist.  The end-to-end pass (``--trace 0``, the default) times
each workload with nothing wrapped.  The traced pass (``--trace 1``)
alternates plain repeats with repeats under span wrappers that
:mod:`bench.trace` installs around each layer's public functions, and
derives the per-layer figures; ``--traced`` runs both passes into one record.

Per workload: one untimed warm-up, then timed repeats for ``--seconds``.
Before every repeat the inputs are rebuilt from the seed and
``gc.collect()`` runs (the collector stays enabled).  Every repeat is
bracketed by the machine-speed probe (:mod:`bench.probe`) and its times are
divided by the slowdown the probe saw; a workload's figure is the median of
its repeats.  The last line of standard output is the result as one JSON
object; ``--out`` writes the full record.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import subprocess
import sys
import time
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if not __package__:
    # Run as a script: sys.path[0] is bench/ itself, where trace.py would
    # shadow the standard library's module of that name.
    sys.path[0] = ROOT

try:
    from bench import metrics, probe
    from bench.workloads import TMP_ROOT, WORKLOADS, Outcome, Workload
except ImportError as exc:  # no src/ beside bench/: nothing to measure
    sys.exit(f"bench/run.py: cannot import the program under test: {exc}")

#: Extra timed set-ups per run: ``setup_s`` is milliseconds, so its median
#: needs more samples than the handful of repeats give.
SETUP_SAMPLES = 12
#: Spans cost memory (~100 bytes each; a ``fanin_sharded`` repeat records
#: 2.6 * 10^5): a traced pass stops early once it holds this many.
MAX_SPANS = 600_000


def timed_setup(workload: Workload, params, seed: int) -> Tuple[object, float, float]:
    """``(inputs, set-up seconds at reference speed, slowdown probed right after)``."""
    gc.collect()
    started = time.perf_counter()
    inputs = workload.setup(seed, params)
    raw_s = time.perf_counter() - started
    slowdown = probe.slowdown()
    return inputs, raw_s / slowdown, slowdown


def one_repeat(
    workload: Workload,
    params: Dict[str, object],
    seed: int,
    run=None,
    measured=contextlib.nullcontext,
) -> Tuple[Outcome, float]:
    """Rebuild the inputs, collect garbage, run once: (outcome, set-up time)."""
    inputs, setup_s, before = timed_setup(workload, params, seed)
    gc.collect()
    outcome = (run or workload.run)(inputs, params, measured)
    outcome.slowdown = (before + probe.slowdown()) / 2
    return outcome, setup_s


def over_budget(began: float, rounds: int, budget_s: float) -> bool:
    """Would one more round like the ``rounds`` done so far overrun?"""
    elapsed = time.perf_counter() - began
    return elapsed + elapsed / rounds > budget_s


def timed_repeats(
    workload: Workload, params: Dict[str, object], seed: int, budget_s: float
) -> Tuple[List[Outcome], List[float]]:
    """Repeat set-up + run until the next repeat would overrun the budget."""
    repeats: List[Outcome] = []
    setups: List[float] = []
    began = time.perf_counter()
    while not repeats or not over_budget(began, len(repeats), budget_s):
        outcome, setup_s = one_repeat(workload, params, seed)
        repeats.append(outcome)
        setups.append(setup_s)
    return repeats, setups


def check_repeats(repeats: Sequence[Outcome]) -> List[Tuple[str, bool]]:
    """Every output check, plus: same inputs must give the same M and B."""
    checks = [check for outcome in repeats for check in outcome.checks]
    first = repeats[0]
    for field in ("msgs_to_source", "msgs_to_warehouse", "bytes_sent", "wal_bytes"):
        same = all(getattr(r, field) == getattr(first, field) for r in repeats)
        checks.append((f"{field}_repeats_exactly", same))
    return checks


def end_to_end_pass(workload: Workload, params, seed: int, seconds: float, quick: bool):
    workload.run(workload.setup(seed, params), params, contextlib.nullcontext)
    extra = [
        timed_setup(workload, params, seed)[1]
        for _ in range(2 if quick else SETUP_SAMPLES)
    ]
    repeats, setups = timed_repeats(workload, params, seed, 0.0 if quick else seconds)
    return repeats, extra + setups


def traced_pass(
    workload: Workload, params, seed: int, seconds: float, quick: bool, spans
) -> Tuple[Dict[str, float], List[Outcome]]:
    """Per-layer metrics of one workload (and the repeats behind them).

    Plain and traced repeats alternate, so that whatever drifts during a
    run (the heap settles over the first ten repeats of ``eca_paced``; the
    machine has slow phases) reaches both sides of ``trace.overhead_ratio``
    alike.  Where the workload has one, a repeat with the program's own
    observability on rides in every round, for ``obs.overhead_ratio``.
    """
    from bench import layers  # untraced runs import neither this
    from bench.trace import Tracer  # nor this

    workload.run(workload.setup(seed, params), params, contextlib.nullcontext)
    tracer = Tracer()
    sites = layers.sites()
    plain: List[Outcome] = []
    with_obs: List[Outcome] = []
    traced: List[Outcome] = []
    setups: List[float] = []
    began = time.perf_counter()
    while True:
        outcome, setup_s = one_repeat(workload, params, seed)
        plain.append(outcome)
        setups.append(setup_s)
        if workload.run_with_obs:
            with_obs.append(
                one_repeat(workload, params, seed, workload.run_with_obs)[0]
            )
        tracer.install(sites)
        try:
            traced.append(one_repeat(
                workload, params, seed,
                measured=lambda: tracer.root(layers.ROOT, workload.name),
            )[0])
        finally:
            tracer.uninstall()
        if (quick or len(tracer.names) >= MAX_SPANS
                or over_budget(began, len(traced), seconds)):
            break
    values = layers.derive(tracer, traced, plain)
    if spans is not None:
        tracer.dump(spans)
    if with_obs:
        values["obs.overhead_ratio"] = (
            layers.maintain_s(with_obs) / layers.maintain_s(plain)
        )
    # The user-facing figures the driver cannot gate ride along here,
    # measured on the plain repeats (see bench/metrics.py).
    secondary = metrics.end_to_end(plain, setups)
    for metric in metrics.SECONDARY:
        values[metric.name] = secondary.get(metric.name, {}).get("value", 0.0)
    return values, plain + with_obs + traced


def measure(
    name: str, seed: int, seconds: float, quick: bool, passes: Sequence[int], spans
) -> Dict[str, object]:
    """One workload's entry in the record."""
    workload = WORKLOADS[name]
    params = workload.scaled(4) if quick else dict(workload.params)
    entry: Dict[str, object] = {"params": params}
    checked: List[Outcome] = []
    if 0 in passes:
        repeats, setups = end_to_end_pass(workload, params, seed, seconds, quick)
        entry["end_to_end"] = metrics.end_to_end(repeats, setups)
        entry["repeats"] = len(repeats)
        entry["machine_slowdown"] = metrics.summary(
            [r.slowdown for r in repeats], "ratio"
        )
        checked += repeats
    if 1 in passes:
        values, repeats = traced_pass(workload, params, seed, seconds, quick, spans)
        units = {m.name: m.unit for m in metrics.SECONDARY + metrics.PER_LAYER}
        entry["per_layer"] = {
            key: {"value": value, "unit": units[key]} for key, value in values.items()
        }
        checked += repeats
    checks = check_repeats(checked)
    failed = [label for label, ok in checks if not ok]
    entry["checks"] = {
        "attempted": len(checks),
        "failed": len(failed),
        "failed_names": sorted(set(failed)),
    }
    entry["error_rate"] = len(failed) / len(checks)
    return entry


def environment(args, seed: int) -> Dict[str, object]:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = None  # the driver's checkout is not a git repository
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": commit,
        "seed": seed,
        "seconds": args.seconds,
        "quick": args.quick,
        "flush_policy": WORKLOADS["wal_crash"].params["flush_policy"],
    }


def run_set(args, seed: int, spans) -> Dict[str, object]:
    passes = (0, 1) if args.traced else (args.trace,)
    return {
        "schema": 1,
        "meta": environment(args, seed),
        "workloads": {
            name: measure(name, seed, args.seconds, args.quick, passes, spans)
            for name in args.workload
        },
    }


def calibrate(args, spans) -> Dict[str, object]:
    """Run the whole set N times (seeds ``seed .. seed+N-1``) and fold the
    runs into one record: per metric the median, min, max and the spread
    (interquartile range / median) across runs — the noise floor every
    bound in ``BENCHMARK.json`` has to clear."""
    runs = [run_set(args, args.seed + i, spans) for i in range(args.calibrate)]
    record = runs[0]
    record["meta"]["seeds"] = [run["meta"]["seed"] for run in runs]
    for name, entry in record["workloads"].items():
        others = [run["workloads"][name] for run in runs]
        for group in ("end_to_end", "per_layer"):
            for key, cell in entry.get(group, {}).items():
                values = [other[group][key]["value"] for other in others]
                folded = metrics.summary(values, cell["unit"])
                folded["values"] = values
                entry[group][key] = folded
        if "machine_slowdown" in entry:
            values = [other["machine_slowdown"]["value"] for other in others]
            entry["machine_slowdown"] = metrics.summary(values, "ratio")
            entry["machine_slowdown"]["values"] = values
        checks = entry["checks"]
        for key in ("attempted", "failed"):
            checks[key] = sum(other["checks"][key] for other in others)
        checks["failed_names"] = sorted(
            {label for other in others for label in other["checks"]["failed_names"]}
        )
        entry["error_rate"] = checks["failed"] / checks["attempted"]
    return record


def result_line(entry: Dict[str, object], group: str) -> str:
    """The driver's contract: one JSON object with the metrics
    ``BENCHMARK.json`` declares for ``group``, no others."""
    declared = [m["name"] for m in metrics.manifest()[group]]
    return json.dumps({
        "correct": entry["checks"]["failed"] == 0,
        "attempted": entry["checks"]["attempted"],
        "failed": entry["checks"]["failed"],
        "metrics": {
            name: {"value": entry[group][name]["value"],
                   "unit": entry[group][name]["unit"]}
            for name in declared
        },
    })


def report(record: Dict[str, object]) -> None:
    for name, entry in record["workloads"].items():
        print(f"== {name}  (error_rate {entry['error_rate']:g}, "
              f"{entry['checks']['attempted']} checks)")
        for group in ("end_to_end", "per_layer"):
            for key, cell in entry.get(group, {}).items():
                spread = f"  spread {cell['spread']:.3f}" if "spread" in cell else ""
                count = f"  n={cell['samples']}" if "samples" in cell else ""
                print(f"  {key:34s} {cell['value']:>16.6g} {cell['unit']:6s}"
                      f"{count}{spread}")
        if "machine_slowdown" in entry:
            cell = entry["machine_slowdown"]
            print(f"  (machine ran at {cell['value']:.2f}x its reference time, "
                  f"{cell['min']:.2f}-{cell['max']:.2f} over the repeats; "
                  "times above are at reference speed)")
        if entry["checks"]["failed_names"]:
            print(f"  FAILED CHECKS: {entry['checks']['failed_names']}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS),
                        help="run only this workload (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=metrics.RUN_SECONDS,
                        help="time measured per workload and pass")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="0: end-to-end pass; 1: traced per-layer pass")
    parser.add_argument("--traced", action="store_true",
                        help="run both passes into one record")
    parser.add_argument("--quick", action="store_true",
                        help="smoke only: 1 repeat, sizes / 4; never compare")
    parser.add_argument("--calibrate", type=int, metavar="N",
                        help="run the set N times and record the spread")
    parser.add_argument("--out", metavar="PATH", help="write the JSON record")
    parser.add_argument("--spans", metavar="PATH",
                        help="write the traced pass's spans as JSON lines")
    args = parser.parse_args(argv)
    args.workload = args.workload or list(WORKLOADS)

    with contextlib.ExitStack() as stack:
        spans = None
        if args.spans:
            spans = stack.enter_context(open(args.spans, "w", encoding="utf-8"))
        try:
            record = (
                calibrate(args, spans) if args.calibrate
                else run_set(args, args.seed, spans)
            )
        finally:
            with contextlib.suppress(OSError):
                os.rmdir(TMP_ROOT)
    report(record)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=1, sort_keys=True)
            handle.write("\n")
    group = "per_layer" if args.trace and not args.traced else "end_to_end"
    for entry in record["workloads"].values():
        print(result_line(entry, group))
    return 0


if __name__ == "__main__":
    sys.exit(main())
