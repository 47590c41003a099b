"""Unit tests for the causal tracer (repro.obs.trace + export helpers)."""

import pytest

from repro.obs.export import (
    read_trace_jsonl,
    render_timeline,
    write_trace_jsonl,
)
from repro.obs.trace import CAUSES, COMPENSATES, Span, Tracer


class TestSpan:
    def test_links_and_linked(self):
        span = Span(1, "wh.query", "query", 0.0)
        span.link(CAUSES, 7)
        span.link(COMPENSATES, 3)
        span.link(COMPENSATES, 4)
        assert span.linked(CAUSES) == [7]
        assert span.linked(COMPENSATES) == [3, 4]

    def test_as_dict_round_trips_fields(self):
        span = Span(2, "a", "k", 1.5, parent_id=1, links=((CAUSES, 1),), attrs={"x": 9})
        d = span.as_dict()
        assert d["span_id"] == 2
        assert d["parent"] == 1
        assert d["links"] == [["causes", 1]]
        assert d["attrs"] == {"x": 9}
        assert d["end"] is None


class TestTracer:
    def test_default_clock_is_monotone(self):
        tracer = Tracer()
        a = tracer.start("a", "k")
        b = tracer.start("b", "k")
        assert b.start > a.start

    def test_injected_clock_is_used(self):
        times = iter([5.0, 9.0])
        tracer = Tracer(clock=lambda: next(times))
        span = tracer.start("a", "k")
        tracer.end(span)
        assert span.start == 5.0
        assert span.end == 9.0

    def test_none_link_targets_are_skipped(self):
        tracer = Tracer()
        span = tracer.start("a", "k", links=((CAUSES, None), (CAUSES, 4)))
        assert span.links == ((CAUSES, 4),)

    def test_instant_has_zero_duration(self):
        tracer = Tracer()
        span = tracer.instant("a", "k")
        assert span.end == span.start

    def test_ring_buffer_evicts_and_counts(self):
        tracer = Tracer(capacity=3)
        for index in range(5):
            tracer.instant(f"s{index}", "k")
        assert len(tracer) == 3
        assert tracer.dropped == 2
        assert [s.name for s in tracer.spans()] == ["s2", "s3", "s4"]

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            Tracer(capacity=0)

    def test_bindings_resolve_message_identity(self):
        tracer = Tracer()
        update = tracer.instant("source.update", "update", serial=3)
        tracer.bind(("U", 3), update)
        assert tracer.lookup(("U", 3)) == update.span_id
        assert tracer.lookup(("U", 99)) is None

    def test_end_merges_final_attrs(self):
        tracer = Tracer()
        span = tracer.start("a", "k", x=1)
        tracer.end(span, y=2)
        assert span.attrs == {"x": 1, "y": 2}


class TestExport:
    def test_jsonl_round_trip(self, tmp_path):
        tracer = Tracer()
        parent = tracer.instant("wh.update", "wh_event", serial=1)
        tracer.instant("wh.query", "query", parent=parent, links=((CAUSES, parent.span_id),))
        path = str(tmp_path / "trace.jsonl")
        assert write_trace_jsonl(tracer, path) == 2
        rows = read_trace_jsonl(path)
        assert len(rows) == 2
        assert rows[1]["parent"] == parent.span_id
        assert rows[1]["links"] == [["causes", parent.span_id]]

    def test_timeline_renders_links_and_indentation(self):
        tracer = Tracer()
        update = tracer.instant("source.update", "update", serial=2)
        event = tracer.instant("wh.update", "wh_event", links=((CAUSES, update.span_id),))
        tracer.instant("wh.query", "query", parent=event, query_id=1)
        text = render_timeline([s.as_dict() for s in tracer.spans()])
        assert "<- causes source.update[serial=2]" in text
        assert "  wh.query" in text  # indented under its parent

    def test_timeline_limit_reports_remainder(self):
        tracer = Tracer()
        for index in range(4):
            tracer.instant(f"s{index}", "k")
        text = render_timeline([s.as_dict() for s in tracer.spans()], limit=2)
        assert "2 more span(s)" in text

    def test_timeline_rejects_a_negative_limit(self):
        """Regression: ``ordered[:-1]`` printed all spans but one, then
        claimed more spans than the trace holds."""
        tracer = Tracer()
        for index in range(4):
            tracer.instant(f"s{index}", "k")
        with pytest.raises(ValueError, match="limit must be >= 0"):
            render_timeline([s.as_dict() for s in tracer.spans()], limit=-1)

    def test_timeline_unresolvable_link_prints_id(self):
        tracer = Tracer()
        tracer.instant("a", "k", links=((CAUSES, 999),))
        text = render_timeline([s.as_dict() for s in tracer.spans()])
        assert "<- causes #999" in text
