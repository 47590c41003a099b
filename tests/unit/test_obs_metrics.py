"""Unit tests for the metrics registry (repro.obs.metrics + exporters)."""

import json

import pytest

from repro.obs.export import write_metrics_json, write_prometheus
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricError,
    Registry,
    ingest_mapping,
)


class TestCounter:
    def test_inc_and_value_per_series(self):
        reg = Registry()
        sent = reg.counter("sent_total", "messages", ("actor",))
        sent.inc(actor="a")
        sent.inc(2, actor="a")
        sent.inc(actor="b")
        assert sent.value(actor="a") == 3
        assert sent.value(actor="b") == 1
        assert sent.value(actor="missing") == 0

    def test_counters_cannot_decrease(self):
        reg = Registry()
        with pytest.raises(MetricError):
            reg.counter("c_total").inc(-1)

    def test_wrong_labels_rejected(self):
        reg = Registry()
        sent = reg.counter("sent_total", "", ("actor",))
        with pytest.raises(MetricError):
            sent.inc(role="x")
        with pytest.raises(MetricError):
            sent.inc()


class TestGauge:
    def test_gauges_may_go_negative(self):
        gauge = Registry().gauge("delta")
        gauge.set(4)
        gauge.set(-5)
        assert gauge.value() == -5


class TestHistogram:
    def test_observations_accumulate_cumulative_buckets(self):
        hist = Registry().histogram("sizes", buckets=(1, 5, 10))
        for value in (0, 1, 3, 7, 50):
            hist.observe(value)
        snap = hist.snapshot()
        assert snap["count"] == 5
        assert snap["sum"] == 61
        assert snap["buckets"] == {"1": 2, "5": 3, "10": 4, "+Inf": 5}

    def test_empty_series_snapshot(self):
        hist = Registry().histogram("sizes", buckets=(1,))
        assert hist.snapshot() == {"count": 0, "sum": 0.0, "buckets": {}}

    def test_needs_buckets(self):
        with pytest.raises(MetricError):
            Registry().histogram("sizes", buckets=())


class TestRegistry:
    def test_re_register_same_shape_returns_same_instrument(self):
        reg = Registry()
        a = reg.counter("c_total", "help", ("x",))
        b = reg.counter("c_total", "ignored", ("x",))
        assert a is b

    def test_re_register_different_shape_raises(self):
        reg = Registry()
        reg.counter("c_total", "", ("x",))
        with pytest.raises(MetricError):
            reg.counter("c_total", "", ("y",))
        with pytest.raises(MetricError):
            reg.gauge("c_total", "", ("x",))

    def test_as_json_shape(self):
        reg = Registry()
        reg.counter("c_total", "help text", ("actor",)).inc(2, actor="wh")
        dump = reg.as_json()
        assert dump["c_total"]["type"] == "counter"
        assert dump["c_total"]["help"] == "help text"
        assert dump["c_total"]["series"] == [
            {"labels": {"actor": "wh"}, "value": 2}
        ]

    def test_render_prometheus_text(self):
        reg = Registry()
        reg.counter("c_total", "a counter", ("actor",)).inc(2, actor="wh")
        reg.gauge("g").set(1.5)
        hist = reg.histogram("h", buckets=(1, 2))
        hist.observe(1)
        text = reg.render_prometheus()
        assert "# HELP c_total a counter" in text
        assert "# TYPE c_total counter" in text
        assert 'c_total{actor="wh"} 2' in text
        assert "g 1.5" in text
        assert 'h_bucket{le="1"} 1' in text
        assert 'h_bucket{le="+Inf"} 1' in text
        assert "h_sum 1" in text
        assert "h_count 1" in text


class TestIngestMapping:
    def test_numeric_keys_become_counters(self):
        reg = Registry()
        ingest_mapping(
            reg,
            "repro_actor",
            {"sent": 4, "role": "client", "flag": True},
            labels={"actor": "c0"},
        )
        sent = reg.get("repro_actor_sent_total")
        assert sent is not None
        assert sent.value(actor="c0") == 4
        # Non-numeric and boolean values are skipped, not exported.
        assert reg.get("repro_actor_role_total") is None
        assert reg.get("repro_actor_flag_total") is None


class TestFileExports:
    def test_write_metrics_json(self, tmp_path):
        reg = Registry()
        reg.counter("c_total").inc(5)
        path = str(tmp_path / "metrics.json")
        write_metrics_json(reg, path, meta={"seed": 7})
        with open(path) as handle:
            payload = json.load(handle)
        assert payload["meta"] == {"seed": 7}
        assert payload["metrics"]["c_total"]["series"][0]["value"] == 5

    def test_write_prometheus(self, tmp_path):
        reg = Registry()
        reg.counter("c_total").inc()
        path = str(tmp_path / "metrics.prom")
        write_prometheus(reg, path)
        with open(path) as handle:
            assert "c_total 1" in handle.read()
