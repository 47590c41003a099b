#!/usr/bin/env python
"""Markdown rows for ``docs/PERFORMANCE.md`` from two benchmark records.

``bench/compare.py`` judges two ``bench/run.py --traced`` records;
this prints the same pair as the prose table the handbook keeps — per
workload the end-to-end rate, the second-group end-to-end metrics the
workload defines (so a durability row shows ``recovery_ms`` beside the
rate it could have been traded for) and, from the traced pass, every
layer holding at least 5 % of the traced self time on either side — so
the table is regenerated from committed ``BENCH_<n>.json`` files, not
typed.

Usage::

    python tools/bench_rows.py BENCH_1.json BENCH_2.json eca_storm fanin_sharded
"""

from __future__ import annotations

import json
import sys
from typing import Dict, List, Sequence

SUFFIX = ".self_s"
#: Layers below this share of the traced self time on both sides are left out.
MIN_SHARE = 0.05
#: End-to-end rows, in order, for the metrics a workload's record holds:
#: the rate, then the second-group metrics (``bench/metrics.py``
#: ``SECONDARY``) that are its counter-metrics.
END_TO_END = (
    "updates_per_s",
    "recovery_ms",
    "wal_bytes_per_update",
    "bytes_per_update",
    "reads_per_s",
)


def layer_seconds(entry: Dict[str, object]) -> Dict[str, float]:
    """Traced self time per layer (the run-wide residual counted as one)."""
    cells: Dict[str, Dict[str, float]] = entry["per_layer"]  # type: ignore[assignment]
    return {
        name: cell["value"]
        for name, cell in cells.items()
        if name.endswith(SUFFIX) or name == "runtime.residual_s"
    }


def rows(a: Dict[str, object], b: Dict[str, object], workload: str) -> List[str]:
    before = a["workloads"][workload]  # type: ignore[index]
    after = b["workloads"][workload]  # type: ignore[index]
    out: List[str] = []
    for name in END_TO_END:
        cell_a = before["end_to_end"].get(name)
        cell_b = after["end_to_end"].get(name)
        if cell_a is None or cell_b is None:
            continue
        label = "" if out else f" `{workload}`"
        unit = cell_a["unit"].lstrip("1")  # "1/s" reads as "/s"
        out.append(
            f"|{label} | `{name}` | {cell_a['value']:.1f} {unit} "
            f"| {cell_b['value']:.1f} {unit} "
            f"| ×{cell_b['value'] / cell_a['value']:.2f} |"
        )
    layers_a, layers_b = layer_seconds(before), layer_seconds(after)
    total_a, total_b = sum(layers_a.values()), sum(layers_b.values())
    for name in sorted(layers_a, key=lambda n: -layers_a[n]):
        share_a = layers_a[name] / total_a
        share_b = layers_b[name] / total_b
        if max(share_a, share_b) < MIN_SHARE:
            continue
        change = f"×{layers_b[name] / layers_a[name]:.2f}" if layers_a[name] else "-"
        out.append(
            f"| | `{name}` | {layers_a[name]:.3f} s ({share_a:.0%}) "
            f"| {layers_b[name]:.3f} s ({share_b:.0%}) | {change} |"
        )
    return out


def main(argv: Sequence[str]) -> int:
    if len(argv) < 3:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    records = []
    for path in argv[:2]:
        with open(path, encoding="utf-8") as handle:
            records.append(json.load(handle))
    print(f"| workload | metric | {argv[0]} | {argv[1]} | change |")
    print("|---|---|---|---|---|")
    for workload in argv[2:]:
        print("\n".join(rows(records[0], records[1], workload)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
