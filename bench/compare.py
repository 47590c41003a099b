"""Compare two benchmark records: ``python3 bench/compare.py A.json B.json``.

``A`` is the baseline, ``B`` the candidate.  One row per workload and
end-to-end metric:

- count metrics (M, B, log bytes) must match **exactly** when both records
  were made from the same seeds — they are deterministic — and fall under
  their bound otherwise;
- wall metrics may be worse by at most their bound
  (:mod:`bench.metrics`); when either record's own spread (interquartile
  range / median of its repeats or calibration runs) exceeds the bound the
  row reads ``unresolved``, not ``ok`` — unless every value of ``B`` beats
  every value of ``A``.

Exit status is 1 on any regression, count drift or higher ``error_rate``.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Dict, Optional, Sequence, Tuple

if not __package__:
    sys.path[0] = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

from bench.metrics import END_TO_END, SECONDARY, Metric

FAILING = ("REGRESSION", "DRIFT", "MISSING")


def _seeds(record: Dict[str, object]) -> Sequence[int]:
    meta = record["meta"]
    return meta.get("seeds", [meta["seed"]])


def worse_by(metric: Metric, base: float, new: float) -> float:
    """How much worse ``new`` is than ``base``, as a share of ``base``."""
    change = (new - base) / abs(base)
    return change if metric.better == "lower" else -change


def judge(
    metric: Metric, a: Dict[str, object], b: Dict[str, object], same_seeds: bool
) -> Tuple[str, float]:
    """``(status, worse-by share)`` for one metric of one workload."""
    worse = worse_by(metric, a["value"], b["value"])
    if metric.kind == "count" and same_seeds:
        exact = a.get("values", a["value"]) == b.get("values", b["value"])
        return ("exact" if exact else "DRIFT"), worse
    spread = max(a.get("spread", 0.0), b.get("spread", 0.0))
    if spread > metric.bound:
        if metric.better == "lower":
            clear_win = b.get("max", b["value"]) < a.get("min", a["value"])
        else:
            clear_win = b.get("min", b["value"]) > a.get("max", a["value"])
        return ("improved" if clear_win else "unresolved"), worse
    if worse > metric.bound:
        return "REGRESSION", worse
    return "ok", worse


def compare(a: Dict[str, object], b: Dict[str, object]) -> Tuple[list, bool]:
    """Rows ``(workload, metric, a, b, worse, bound, status)`` and pass/fail."""
    if a["meta"]["quick"] or b["meta"]["quick"]:
        raise SystemExit("compare.py: --quick records are for smoke tests only")
    same_seeds = list(_seeds(a)) == list(_seeds(b))
    rows = []
    for name, base in a["workloads"].items():
        new = b["workloads"].get(name)
        if new is None:
            rows.append((name, "*", None, None, 0.0, None, "MISSING"))
            continue
        for metric in END_TO_END + SECONDARY:
            cell_a = base.get("end_to_end", {}).get(metric.name)
            cell_b = new.get("end_to_end", {}).get(metric.name)
            if cell_a is None:
                continue
            if cell_b is None:
                rows.append((name, metric.name, cell_a["value"], None, 0.0,
                             metric.bound, "MISSING"))
                continue
            status, worse = judge(metric, cell_a, cell_b, same_seeds)
            rows.append((name, metric.name, cell_a["value"], cell_b["value"],
                         worse, metric.bound, status))
        status = "REGRESSION" if new["error_rate"] > base["error_rate"] else "ok"
        rows.append((name, "error_rate", base["error_rate"], new["error_rate"],
                     new["error_rate"] - base["error_rate"], 0.0, status))
    return rows, not any(row[-1] in FAILING for row in rows)


def _cell(value: Optional[float]) -> str:
    return "-" if value is None else f"{value:.6g}"


def main(argv: Optional[Sequence[str]] = None) -> int:
    paths = list(sys.argv[1:] if argv is None else argv)
    if len(paths) != 2:
        raise SystemExit(__doc__.split("\n\n")[0])
    records = []
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            records.append(json.load(handle))
    rows, passed = compare(*records)
    print(f"{'workload':14s} {'metric':22s} {'A':>14s} {'B':>14s} "
          f"{'worse by':>9s} {'bound':>6s}  status")
    for name, metric, a, b, worse, bound, status in rows:
        print(f"{name:14s} {metric:22s} {_cell(a):>14s} {_cell(b):>14s} "
              f"{worse:>+9.1%} {_cell(bound):>6s}  {status}")
    print("PASS" if passed else "FAIL")
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
