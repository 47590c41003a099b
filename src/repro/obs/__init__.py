"""Unified observability: causal tracing + metrics + exporters.

The paper's anomalies are ordering bugs, and its evaluation is a set of
cost metrics (Section 6's M/B/IO); this package makes both first-class
at runtime:

- :mod:`repro.obs.trace` — spans with message-causality links (the
  update → query → answer → install chains), in a bounded ring buffer;
- :mod:`repro.obs.metrics` — a labelled counter/gauge/histogram registry
  exporting ``ActorMetrics``, channel fault counters, WAL accounting,
  crash records and algorithm gauges, with Prometheus-text and JSON
  exporters;
- :mod:`repro.obs.instrument` — the :class:`Observability` hook bundle
  the runtime and durability layers call (pass ``obs=`` to
  :func:`repro.runtime.run_concurrent`);
- :mod:`repro.obs.export` — trace JSONL read/write, metrics JSON,
  Prometheus text, and the causal-timeline renderer behind
  ``python -m repro trace``.

See ``docs/OBSERVABILITY.md`` for the trace model, the metric name
tables, exporter formats, and measured overhead.
"""

from repro.obs.export import (
    read_trace_jsonl,
    render_timeline,
    write_metrics_json,
    write_prometheus,
    write_trace_jsonl,
)
from repro.obs.instrument import Observability
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricError,
    Registry,
    ingest_mapping,
)
from repro.obs.trace import CAUSES, COMPENSATES, INSTALLS, RECOVERS, Span, Tracer

__all__ = [
    "CAUSES",
    "COMPENSATES",
    "Counter",
    "Gauge",
    "Histogram",
    "INSTALLS",
    "MetricError",
    "Observability",
    "RECOVERS",
    "Registry",
    "Span",
    "Tracer",
    "ingest_mapping",
    "read_trace_jsonl",
    "render_timeline",
    "write_metrics_json",
    "write_prometheus",
    "write_trace_jsonl",
]
