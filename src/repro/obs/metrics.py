"""A labelled metrics registry: counters, gauges, and histograms.

A run keeps its numbers where they arise: per-actor ``ActorMetrics``,
per-channel ``ChannelStats``, the WAL's ``wal_stats``, the crash records
and each algorithm's ``gauges()``.  The :class:`Registry` is the one
place they are exported from — one naming scheme, two export formats
(Prometheus text and JSON; see :mod:`repro.obs.export`) — and holds each
count once: :mod:`repro.obs.instrument` reads a stored count at the end
of the run rather than counting it again.

Model
-----
An *instrument* is created once per name with a fixed tuple of label
names; every observation then names a concrete label-value combination
(a *series*):

>>> from repro.obs.metrics import Registry
>>> reg = Registry()
>>> sent = reg.counter("repro_actor_sent_total", "messages sent", ("actor",))
>>> sent.inc(3, actor="warehouse")
>>> sent.value(actor="warehouse")
3

Counters only go up, gauges are set to any value, histograms accumulate
bucketed observations plus sum and count (Prometheus conventions:
cumulative buckets with an ``le`` label and a ``+Inf`` catch-all).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import SimulationError

#: Default histogram buckets (virtual-time latencies and small counts).
DEFAULT_BUCKETS = (0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0)

LabelValues = Tuple[object, ...]


class MetricError(SimulationError):
    """Misuse of the metrics API (wrong labels, clashing registration)."""


class Instrument:
    """Base class: a named family of series, one per label combination."""

    metric_type = "untyped"

    def __init__(self, name: str, help_text: str, label_names: Sequence[str]) -> None:
        self.name = name
        self.help_text = help_text
        self.label_names = tuple(label_names)
        #: label values (in declaration order) -> stored value.
        self._series: Dict[LabelValues, object] = {}

    def _key(self, labels: Dict[str, object]) -> LabelValues:
        if set(labels) != set(self.label_names):
            raise MetricError(
                f"{self.name}: expected labels {self.label_names}, "
                f"got {tuple(sorted(labels))}"
            )
        return tuple(labels[name] for name in self.label_names)

    def series(self) -> Dict[LabelValues, object]:
        """All series as ``label values -> value`` (insertion order)."""
        return dict(self._series)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name}, series={len(self._series)})"


class Counter(Instrument):
    """Monotonically increasing count (``*_total`` by convention)."""

    metric_type = "counter"

    def inc(self, amount: float = 1, **labels: object) -> None:
        if amount < 0:
            raise MetricError(f"{self.name}: counters cannot decrease ({amount})")
        key = self._key(labels)
        self._series[key] = self._series.get(key, 0) + amount

    def value(self, **labels: object) -> float:
        return self._series.get(self._key(labels), 0)


class Gauge(Instrument):
    """A value that can go up and down (sizes, lags, in-flight counts)."""

    metric_type = "gauge"

    def set(self, value: float, **labels: object) -> None:
        self._series[self._key(labels)] = value

    def value(self, **labels: object) -> float:
        return self._series.get(self._key(labels), 0)


class _HistogramState:
    """Per-series histogram accumulator (cumulative on render)."""

    __slots__ = ("bucket_counts", "total", "count")

    def __init__(self, n_buckets: int) -> None:
        self.bucket_counts = [0] * (n_buckets + 1)  # +1 for +Inf
        self.total = 0.0
        self.count = 0


class Histogram(Instrument):
    """Bucketed distribution with sum and count."""

    metric_type = "histogram"

    def __init__(
        self,
        name: str,
        help_text: str,
        label_names: Sequence[str],
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        super().__init__(name, help_text, label_names)
        ordered = tuple(sorted(buckets))
        if not ordered:
            raise MetricError(f"{self.name}: need at least one bucket bound")
        self.buckets = ordered

    def observe(self, value: float, **labels: object) -> None:
        key = self._key(labels)
        state = self._series.get(key)
        if state is None:
            state = self._series[key] = _HistogramState(len(self.buckets))
        index = len(self.buckets)
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                index = i
                break
        state.bucket_counts[index] += 1
        state.total += value
        state.count += 1

    def snapshot(self, **labels: object) -> Dict[str, object]:
        """``{"count", "sum", "buckets": {le: cumulative}}`` for one series."""
        state = self._series.get(self._key(labels))
        if state is None:
            return {"count": 0, "sum": 0.0, "buckets": {}}
        return _histogram_dict(self, state)


def _histogram_dict(histogram: Histogram, state: _HistogramState) -> Dict[str, object]:
    cumulative = 0
    buckets: Dict[str, int] = {}
    for bound, raw in zip(histogram.buckets, state.bucket_counts):
        cumulative += raw
        buckets[_format_number(bound)] = cumulative
    buckets["+Inf"] = cumulative + state.bucket_counts[-1]
    return {"count": state.count, "sum": state.total, "buckets": buckets}


def _format_number(value: float) -> str:
    return str(int(value)) if float(value).is_integer() else repr(value)


def _format_labels(names: Sequence[str], values: LabelValues, extra: str = "") -> str:
    parts = [f'{name}="{value}"' for name, value in zip(names, values)]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


class Registry:
    """All instruments of one process/run, keyed by metric name.

    Re-registering an existing name returns the existing instrument when
    the type and labels match (so independent components can share a
    metric) and raises :class:`MetricError` otherwise.
    """

    def __init__(self) -> None:
        self._instruments: Dict[str, Instrument] = {}

    # ------------------------------------------------------------------ #
    # Registration
    # ------------------------------------------------------------------ #

    def counter(
        self, name: str, help_text: str = "", labels: Sequence[str] = ()
    ) -> Counter:
        return self._register(Counter(name, help_text, labels))

    def gauge(
        self, name: str, help_text: str = "", labels: Sequence[str] = ()
    ) -> Gauge:
        return self._register(Gauge(name, help_text, labels))

    def histogram(
        self,
        name: str,
        help_text: str = "",
        labels: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        return self._register(Histogram(name, help_text, labels, buckets))

    def _register(self, instrument: Instrument) -> Instrument:
        existing = self._instruments.get(instrument.name)
        if existing is not None:
            if (
                type(existing) is not type(instrument)
                or existing.label_names != instrument.label_names
            ):
                raise MetricError(
                    f"metric {instrument.name!r} re-registered with a "
                    f"different type or labels"
                )
            return existing
        self._instruments[instrument.name] = instrument
        return instrument

    def get(self, name: str) -> Optional[Instrument]:
        return self._instruments.get(name)

    def instruments(self) -> List[Instrument]:
        return list(self._instruments.values())

    # ------------------------------------------------------------------ #
    # Export
    # ------------------------------------------------------------------ #

    def as_json(self) -> Dict[str, object]:
        """JSON-able dump: ``name -> {type, help, labels, series: [...]}}``.

        Each series entry is ``{"labels": {...}, "value": ...}`` (the
        value is the histogram dict for histograms).
        """
        out: Dict[str, object] = {}
        for instrument in self._instruments.values():
            series = []
            for values, stored in instrument.series().items():
                value: object = stored
                if isinstance(stored, _HistogramState):
                    value = _histogram_dict(instrument, stored)
                series.append(
                    {
                        "labels": dict(zip(instrument.label_names, values)),
                        "value": value,
                    }
                )
            out[instrument.name] = {
                "type": instrument.metric_type,
                "help": instrument.help_text,
                "labels": list(instrument.label_names),
                "series": series,
            }
        return out

    def render_prometheus(self) -> str:
        """Prometheus text exposition format (one block per instrument)."""
        lines: List[str] = []
        for instrument in self._instruments.values():
            if instrument.help_text:
                lines.append(f"# HELP {instrument.name} {instrument.help_text}")
            lines.append(f"# TYPE {instrument.name} {instrument.metric_type}")
            for values, stored in instrument.series().items():
                if isinstance(stored, _HistogramState):
                    rendered = _histogram_dict(instrument, stored)
                    for le, cumulative in rendered["buckets"].items():
                        label_text = _format_labels(
                            instrument.label_names, values, f'le="{le}"'
                        )
                        lines.append(
                            f"{instrument.name}_bucket{label_text} {cumulative}"
                        )
                    base = _format_labels(instrument.label_names, values)
                    lines.append(
                        f"{instrument.name}_sum{base} "
                        f"{_format_number(rendered['sum'])}"
                    )
                    lines.append(f"{instrument.name}_count{base} {rendered['count']}")
                else:
                    label_text = _format_labels(instrument.label_names, values)
                    lines.append(
                        f"{instrument.name}{label_text} {_format_number(stored)}"
                    )
        return "\n".join(lines) + ("\n" if lines else "")

    def __repr__(self) -> str:
        return f"Registry(instruments={len(self._instruments)})"


def ingest_mapping(
    registry: Registry,
    prefix: str,
    counts: Dict[str, object],
    help_text: str = "",
    labels: Optional[Dict[str, object]] = None,
) -> None:
    """Publish a plain ``key -> number`` dict as one counter per key.

    The bridge that folds the run's accounting rows (``ActorMetrics``,
    ``ChannelStats.as_dict``) into the registry without rewriting them:
    each numeric entry becomes ``{prefix}_{key}_total`` with the given
    constant labels.
    """
    labels = labels or {}
    names = tuple(sorted(labels))
    for key, value in counts.items():
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            continue
        counter = registry.counter(f"{prefix}_{key}_total", help_text, names)
        counter.inc(value, **labels)
