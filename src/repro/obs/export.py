"""Exporters: trace JSON-lines, metrics JSON / Prometheus text, timeline.

File formats
------------
**Trace (``*.jsonl``)** — one span per line, exactly
:meth:`repro.obs.trace.Span.as_dict`:

.. code-block:: json

    {"span_id": 7, "name": "wh.query", "kind": "query", "start": 2.0,
     "end": 2.0, "parent": 6, "links": [["compensates", 3]],
     "attrs": {"query_id": 2, "destination": "source"}}

**Metrics (``*.json``)** — ``{"metrics": Registry.as_json(), "meta": ...}``.

**Prometheus text** — ``Registry.render_prometheus()``, suitable for a
file-based textfile collector or a scrape stub.

The timeline renderer (used by ``python -m repro trace``) prints spans in
start order with their causal edges resolved to human-readable references
— the update→query→answer→install chains become visually explicit.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Sequence, Union

from repro.obs.metrics import Registry
from repro.obs.trace import Span, Tracer

SpanLike = Union[Span, Dict[str, object]]


def _span_dicts(spans: Union[Tracer, Sequence[SpanLike]]) -> List[Dict[str, object]]:
    if isinstance(spans, Tracer):
        spans = spans.spans()
    out = []
    for span in spans:
        out.append(span.as_dict() if isinstance(span, Span) else dict(span))
    return out


def write_trace_jsonl(spans: Union[Tracer, Sequence[SpanLike]], path: str) -> int:
    """Write spans as JSON lines; returns the number written."""
    rows = _span_dicts(spans)
    with open(path, "w", encoding="utf-8") as handle:
        for row in rows:
            handle.write(json.dumps(row, sort_keys=True) + "\n")
    return len(rows)


#: What :func:`render_timeline` reads from every span.
_REQUIRED_SPAN_KEYS = ("span_id", "name", "start")


def read_trace_jsonl(path: str) -> List[Dict[str, object]]:
    """Load a trace file back into span dicts (blank lines skipped).

    Raises :class:`ValueError` naming the line for one that is not a
    JSON object or lacks a key every span has.
    """
    rows = []
    with open(path, "r", encoding="utf-8") as handle:
        for number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"line {number} is not JSON ({exc.msg})") from None
            if not isinstance(row, dict):
                raise ValueError(f"line {number} is not a JSON object")
            missing = [key for key in _REQUIRED_SPAN_KEYS if key not in row]
            if missing:
                raise ValueError(f"line {number} has no {', '.join(missing)}")
            rows.append(row)
    return rows


def write_metrics_json(
    registry: Registry, path: str, meta: Optional[Dict[str, object]] = None
) -> None:
    """Write the registry dump (plus optional run metadata) as JSON."""
    payload = {"meta": dict(meta or {}), "metrics": registry.as_json()}
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def write_prometheus(registry: Registry, path: str) -> None:
    """Write the Prometheus text exposition of the registry."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(registry.render_prometheus())


# --------------------------------------------------------------------- #
# Timeline rendering (`python -m repro trace`)
# --------------------------------------------------------------------- #


def _reference(span: Dict[str, object]) -> str:
    """Short human reference for a linked span (name + salient attr)."""
    attrs = span.get("attrs") or {}
    for key in ("serial", "query_id", "event_index"):
        if key in attrs:
            return f"{span['name']}[{key}={attrs[key]}]"
    return str(span["name"])


def render_timeline(
    spans: Sequence[Dict[str, object]], limit: Optional[int] = None
) -> str:
    """Render a recorded trace as a causal timeline.

    One line per span in start order: virtual time, duration, the span
    name indented under its parent, salient attributes, and each causal
    link spelled out (``<- causes source.update[serial=2]``).
    """
    by_id = {span["span_id"]: span for span in spans}
    ordered = sorted(spans, key=lambda s: (s["start"], s["span_id"]))
    if limit is not None:
        ordered = ordered[:limit]

    def depth(span: Dict[str, object]) -> int:
        count, seen = 0, set()
        while span.get("parent") in by_id and span["span_id"] not in seen:
            seen.add(span["span_id"])
            span = by_id[span["parent"]]
            count += 1
        return count

    lines = []
    for span in ordered:
        start = span["start"]
        end = span.get("end")
        duration = "" if end is None or end == start else f" +{end - start:g}"
        indent = "  " * depth(span)
        attrs = span.get("attrs") or {}
        attr_text = " ".join(f"{k}={v}" for k, v in sorted(attrs.items()))
        edges = []
        for relation, target in span.get("links") or ():
            if target in by_id:
                edges.append(f"<- {relation} {_reference(by_id[target])}")
            else:
                edges.append(f"<- {relation} #{target}")
        edge_text = ("  " + "  ".join(edges)) if edges else ""
        lines.append(
            f"t={start:<8g}{duration:<8} {indent}{span['name']}"
            + (f"  {attr_text}" if attr_text else "")
            + edge_text
        )
    if limit is not None and len(spans) > limit:
        lines.append(f"... ({len(spans) - limit} more span(s))")
    return "\n".join(lines)
