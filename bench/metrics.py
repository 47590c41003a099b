"""Metric declarations — the one table ``BENCHMARK.json`` is generated from.

Three groups:

- :data:`END_TO_END` — defined on every workload, never zero, steady from
  seed to seed, each with the bound by which it may worsen.  These are the
  metrics the driver gates on (``BENCHMARK.json`` ``end_to_end``).
- :data:`SECONDARY` — user-visible figures the driver cannot gate: what a
  user of *one* workload sees (refresh latency, read latency, recovery
  time, log size), which the driver's contract rules out because it wants
  every end-to-end metric from every workload, never 0; and the paper's B,
  which follows the seeded data (11-17 % spread from seed to seed where
  the sizer is S per tuple) and so cannot hold any bound the contract
  allows across seeds.  They are measured with tracing off like the others
  and ``compare.py`` holds them to their bound — B exactly, for equal
  seeds — but in ``BENCHMARK.json`` they are listed under ``per_layer`` and
  read 0 on the workloads that do not define them.
- :data:`PER_LAYER` — span and counter figures of single layers, from the
  traced pass.  No bounds.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from bench.workloads import WORKLOADS, Outcome


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: Share of the baseline median by which it may worsen (None: no bound).
    bound: Optional[float] = None
    #: ``count`` metrics repeat exactly for one seed; ``wall`` ones do not.
    kind: str = "wall"
    #: Workloads that define it (empty: all).
    on: Tuple[str, ...] = ()
    meaning: str = ""

    def defined_on(self, workload: str) -> bool:
        return not self.on or workload in self.on


END_TO_END: Tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower", 0.25,
           meaning="build sources, initial evaluate_view, generate workload"),
    Metric("updates_per_s", "1/s", "higher", 0.25,
           meaning="source updates maintained to quiescence / wall time of the "
                   "maintenance run (read_storm: time inside kernel.step only)"),
    Metric("msgs_per_update", "count", "lower", 0.05, kind="count",
           meaning="paper's M: messages sent on all channels / updates"),
)

SECONDARY: Tuple[Metric, ...] = (
    Metric("bytes_per_update", "B", "lower", 0.10, kind="count",
           meaning="paper's B: bytes sent on all channels / updates; S per "
                   "answer tuple, real frame bytes on wal_crash"),
    Metric("refresh_p50_ms", "ms", "lower", 0.15, on=("eca_paced",),
           meaning="source executes an update -> view installs it, median"),
    Metric("refresh_p99_ms", "ms", "lower", 0.15, on=("eca_paced",),
           meaning="same, p99 over samples pooled across repeats"),
    Metric("reads_per_s", "1/s", "higher", 0.15, on=("read_storm",),
           meaning="reads / time inside cache.read (one closed-loop client)"),
    Metric("read_p95_ms", "ms", "lower", 0.15, on=("read_storm",),
           meaning="per-repeat p95 read latency, median over repeats"),
    Metric("recovery_ms", "ms", "lower", 0.15, on=("wal_crash",),
           meaning="recover(wal_dir) on the finished run's directory"),
    Metric("wal_bytes_per_update", "B", "lower", 0.10, kind="count",
           on=("wal_crash",),
           meaning="log + snapshot bytes left in wal_dir / updates"),
)


def _layer(prefix: str, *fields: str) -> List[Metric]:
    units = {"self_s": "s", "total_s": "s", "residual_s": "s", "bytes": "B",
             "hit_p50_us": "us", "p99_us": "us"}
    return [Metric(f"{prefix}.{f}", units.get(f, "count"), "lower") for f in fields]


PER_LAYER: Tuple[Metric, ...] = tuple(
    _layer("relational.build", "calls", "self_s", "terms")
    + _layer("relational.evaluate", "calls", "self_s", "rows_out")
    + _layer("relational.signature", "calls", "self_s")
    + _layer("core.on_update", "calls", "self_s")
    + _layer("core.on_answer", "calls", "self_s")
    + [Metric("core.uqs_peak", "count", "lower"),
       Metric("core.terms_per_query_mean", "count", "lower"),
       Metric("core.terms_per_query_max", "count", "lower")]
    + _layer("warehouse.apply_delta", "calls", "self_s")
    + [Metric("warehouse.mv_rows", "count", "lower"),
       Metric("warehouse.catalog.self_s", "s", "lower")]
    + _layer("warehouse.planner", "calls", "self_s", "issued")
    + [Metric("warehouse.planner.saved", "count", "higher"),
       Metric("warehouse.planner.share_ratio", "ratio", "higher")]
    + _layer("kernel.dispatch", "calls", "self_s")
    + _layer("kernel.sync", "steps", "self_s")
    + _layer("source.apply_update", "calls", "self_s")
    + _layer("source.evaluate", "calls", "self_s")
    + _layer("source.snapshot", "calls", "self_s")
    + _layer("messaging.wire.encode", "calls", "self_s", "bytes")
    + _layer("messaging.wire.decode", "calls", "self_s")
    + [Metric("messaging.msgs_to_source", "count", "lower"),
       Metric("messaging.msgs_to_warehouse", "count", "lower")]
    + _layer("durability.append", "calls", "self_s", "bytes")
    + _layer("durability.snapshot", "calls", "self_s", "bytes")
    + _layer("durability.codec", "calls", "self_s")
    + _layer("durability.recover", "self_s", "replayed", "reissued")
    + _layer("python.gc", "calls", "self_s")
    + _layer("runtime", "total_s", "residual_s")
    + [Metric("runtime.residual_share", "ratio", "lower"),
       Metric("sharding.events_per_shard_max", "count", "lower"),
       Metric("sharding.events_per_shard_mean", "count", "lower"),
       Metric("sharding.skew", "ratio", "lower")]
    + _layer("serving.read", "calls", "self_s", "hit_p50_us", "p99_us")
    + _layer("serving.backend", "calls", "self_s")
    + _layer("serving.invalidate", "calls", "self_s")
    + [Metric("serving.hit_rate", "ratio", "higher"),
       Metric("serving.stale_served", "count", "lower"),
       Metric("serving.evictions", "count", "lower"),
       Metric("serving.max_lag", "count", "lower"),
       Metric("obs.overhead_ratio", "ratio", "lower"),
       Metric("trace.overhead_ratio", "ratio", "lower"),
       Metric("trace.coverage", "ratio", "higher"),
       Metric("machine.slowdown", "ratio", "lower")]
)

#: Seconds one driver run measures (``BENCHMARK.json`` ``run_seconds``).
RUN_SECONDS = 20


def manifest() -> Dict[str, object]:
    """The content of ``BENCHMARK.json`` (the smoke test pins the file to it)."""
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in SECONDARY + PER_LAYER
        ],
    }


# --------------------------------------------------------------------- #
# Computing the end-to-end figures from timed repeats
# --------------------------------------------------------------------- #


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty sample."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def summary(
    values: Sequence[float], unit: str, samples: Optional[int] = None
) -> Dict[str, object]:
    """One metric's entry in the record: the median of the repeats (or of
    the calibration runs), with ``spread`` the interquartile range over it."""
    median = statistics.median(values)
    entry = {
        "value": median,
        "unit": unit,
        "samples": samples if samples is not None else len(values),
        "min": min(values),
        "max": max(values),
    }
    if len(values) >= 2 and median:
        q1, _, q3 = statistics.quantiles(values, n=4)
        entry["spread"] = (q3 - q1) / abs(median)
    return entry


def at_reference(repeat: Outcome, seconds: float) -> float:
    """Wall seconds of ``repeat`` as seconds at reference machine speed."""
    return seconds / repeat.slowdown


def end_to_end(
    repeats: Sequence[Outcome], setups: Sequence[float]
) -> Dict[str, Dict[str, object]]:
    """Every end-to-end metric a workload defines, from its timed repeats.

    Times are at reference machine speed (``setups`` already are).
    """
    per_repeat: Dict[str, List[float]] = {
        "setup_s": list(setups),
        "updates_per_s": [
            r.updates / at_reference(r, r.maintain_s) for r in repeats
        ],
        "msgs_per_update": [
            (r.msgs_to_source + r.msgs_to_warehouse) / r.updates for r in repeats
        ],
        "bytes_per_update": [r.bytes_sent / r.updates for r in repeats],
    }
    samples: Dict[str, int] = {}
    first = repeats[0]
    if first.refresh_s:
        pooled = [at_reference(r, s) * 1e3 for r in repeats for s in r.refresh_s]
        per_repeat["refresh_p50_ms"] = [
            at_reference(r, statistics.median(r.refresh_s)) * 1e3 for r in repeats
        ]
        samples["refresh_p50_ms"] = len(pooled)
    if first.read_s:
        per_repeat["reads_per_s"] = [
            len(r.read_s) / at_reference(r, sum(r.read_s)) for r in repeats
        ]
        per_repeat["read_p95_ms"] = [
            at_reference(r, percentile(r.read_s, 95)) * 1e3 for r in repeats
        ]
        samples["reads_per_s"] = samples["read_p95_ms"] = sum(
            len(r.read_s) for r in repeats
        )
    if first.recover_s:
        per_repeat["recovery_ms"] = [
            at_reference(r, statistics.median(r.recover_s)) * 1e3 for r in repeats
        ]
        samples["recovery_ms"] = sum(len(r.recover_s) for r in repeats)
        per_repeat["wal_bytes_per_update"] = [r.wal_bytes / r.updates for r in repeats]
    declared = {m.name: m for m in END_TO_END + SECONDARY}
    out = {
        name: summary(values, declared[name].unit, samples.get(name))
        for name, values in per_repeat.items()
    }
    if first.refresh_s:
        out["refresh_p99_ms"] = {
            "value": percentile(pooled, 99), "unit": "ms", "samples": len(pooled),
        }
    return out
