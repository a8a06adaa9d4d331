"""Tests for span tracing: nesting, ids, virtual-time durations,
pause semantics, error capture."""

from operator import itemgetter

import pytest

from repro.obs import COUNTER, MemorySink, NULL_SPAN, Telemetry, Tracer
from repro.sim.clock import SimClock


def make_tracer():
    sink = MemorySink()
    clock = SimClock()
    tracer = Tracer(sink)
    tracer.bind_clock(clock)
    return tracer, sink, clock


class TestSpanBasics:
    def test_root_span_record(self):
        tracer, sink, clock = make_tracer()
        clock.advance(10)
        with tracer.span("op", key=1):
            clock.advance(5)
        (record,) = sink.spans()
        assert record["name"] == "op"
        assert record["parent_id"] is None
        assert record["trace_id"] == record["span_id"]
        assert record["start_us"] == 10
        assert record["end_us"] == 15
        assert record["duration_us"] == 5
        assert record["attrs"] == {"key": 1}

    def test_nesting_assigns_parent_and_trace(self):
        tracer, sink, __ = make_tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                assert inner.parent_id == outer.span_id
                assert inner.trace_id == outer.trace_id
        inner_rec, outer_rec = sink.spans()
        assert inner_rec["name"] == "inner"  # children finish first
        assert inner_rec["parent_id"] == outer_rec["span_id"]
        assert inner_rec["trace_id"] == outer_rec["span_id"]

    def test_current_tracks_stack(self):
        tracer, __, ___ = make_tracer()
        assert tracer.current is NULL_SPAN
        with tracer.span("a") as a:
            assert tracer.current is a
            with tracer.span("b") as b:
                assert tracer.current is b
            assert tracer.current is a
        assert tracer.current is NULL_SPAN

    def test_sibling_spans_share_no_parent(self):
        tracer, sink, __ = make_tracer()
        with tracer.span("first"):
            pass
        with tracer.span("second"):
            pass
        first, second = sink.spans()
        assert first["parent_id"] is None
        assert second["parent_id"] is None
        assert first["trace_id"] != second["trace_id"]

    def test_set_adds_attrs_late(self):
        tracer, sink, __ = make_tracer()
        with tracer.span("op") as span:
            span.set(pages=3, gc=True)
        assert sink.spans()[0]["attrs"] == {"pages": 3, "gc": True}

    def test_exception_records_error_and_closes(self):
        tracer, sink, __ = make_tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("op"):
                raise RuntimeError("boom")
        (record,) = sink.spans()
        assert record["attrs"]["error"] == "RuntimeError"
        assert tracer.depth == 0

    def test_out_of_order_finish_closes_younger_spans(self):
        tracer, sink, __ = make_tracer()
        outer = tracer.span("outer")
        tracer.span("inner")
        tracer.finish(outer)  # inner never closed explicitly
        names = [record["name"] for record in sink.spans()]
        assert names == ["inner", "outer"]
        assert tracer.depth == 0

    def test_open_span_duration_raises(self):
        tracer, __, ___ = make_tracer()
        span = tracer.span("op")
        with pytest.raises(ValueError, match="still open"):
            __ = span.duration_us


class TestDisabledTracing:
    def test_disabled_returns_null_span(self):
        tracer, sink, __ = make_tracer()
        tracer.enabled = False
        span = tracer.span("op")
        assert span is NULL_SPAN
        with span:
            pass
        assert sink.spans() == []

    def test_null_span_accepts_set(self):
        assert NULL_SPAN.set(anything=1) is NULL_SPAN


class TestTelemetryFacade:
    def test_pause_resume(self):
        telemetry = Telemetry(MemorySink())
        clock = SimClock()
        telemetry.bind_clock(clock)
        telemetry.pause()
        with telemetry.tracer.span("hidden"):
            pass
        telemetry.resume()
        with telemetry.tracer.span("visible"):
            pass
        names = [r["name"] for r in telemetry.sink.spans()]
        assert names == ["visible"]

    def test_reset_measurement_zeroes_metrics(self):
        telemetry = Telemetry(MemorySink())
        owner = {"c": 5}
        telemetry.collect("t", (("c", COUNTER, itemgetter("c")),), owner)
        telemetry.reset_measurement()
        owner["c"] += 2     # the owner is never zeroed: the row baselines
        assert telemetry.metrics.snapshot()["t.c"] == 2

    def test_spans_use_virtual_clock_not_wall_clock(self):
        telemetry = Telemetry(MemorySink())
        clock = SimClock()
        telemetry.bind_clock(clock)
        with telemetry.tracer.span("op"):
            clock.advance(123_456)
        (record,) = telemetry.sink.spans()
        assert record["duration_us"] == 123_456
