"""Tests for sinks (JSONL round-trip, periodic snapshotter) and the
IoTrace ring's retention and drop accounting."""

import json
from operator import itemgetter

import pytest

from repro.obs import (COUNTER, JsonlSink, MemorySink, Telemetry,
                       read_jsonl)
from repro.sim.clock import SimClock
from repro.ssd.trace import IoTrace


def record(trace, index):
    trace.record_fields(timestamp_us=index, kind="write", lpn=index,
                        count=1, latency_us=float(index), gc_events=0,
                        copyback_pages=0, arrival_us=index, wait_us=0.0)


class TestJsonlSink:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "out.jsonl")
        sink = JsonlSink(path)
        records = [
            {"type": "span", "name": "device.write", "span_id": 1,
             "parent_id": None, "trace_id": 1, "start_us": 0, "end_us": 5,
             "duration_us": 5, "attrs": {"lpn": 3}},
            {"type": "metrics", "t_us": 10, "metrics": {"a.b": 2}},
        ]
        for record in records:
            sink.emit(record)
        sink.close()
        assert read_jsonl(path) == records

    def test_one_object_per_line(self, tmp_path):
        path = str(tmp_path / "out.jsonl")
        sink = JsonlSink(path)
        sink.emit({"type": "metrics", "t_us": 0, "metrics": {}})
        sink.close()
        with open(path) as fh:
            lines = fh.read().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["type"] == "metrics"

    def test_emit_after_close_raises(self, tmp_path):
        sink = JsonlSink(str(tmp_path / "out.jsonl"))
        sink.close()
        with pytest.raises(ValueError, match="closed"):
            sink.emit({"type": "metrics"})

    def test_bad_line_reports_location(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"ok": 1}\nnot json\n')
        with pytest.raises(ValueError, match="bad.jsonl:2"):
            read_jsonl(str(path))


class TestPeriodicSnapshotter:
    def test_snapshots_on_interval(self):
        telemetry = Telemetry(MemorySink(), snapshot_interval_us=100)
        clock = SimClock()
        telemetry.bind_clock(clock)
        telemetry.collect("t", (("c", COUNTER, itemgetter("c")),), {"c": 1})
        assert not telemetry.maybe_snapshot(clock.now_us)  # not yet due
        clock.advance(100)
        assert telemetry.maybe_snapshot(clock.now_us)
        clock.advance(50)
        assert not telemetry.maybe_snapshot(clock.now_us)
        clock.advance(50)
        assert telemetry.maybe_snapshot(clock.now_us)
        snapshots = telemetry.sink.metrics()
        assert [s["t_us"] for s in snapshots] == [100, 200]
        assert snapshots[0]["metrics"]["t.c"] == 1

    def test_zero_interval_disables_cadence(self):
        telemetry = Telemetry(MemorySink(), snapshot_interval_us=0)
        telemetry.bind_clock(SimClock())
        assert not telemetry.maybe_snapshot(10**9)
        assert telemetry.sink.metrics() == []

    def test_paused_telemetry_skips_snapshots(self):
        telemetry = Telemetry(MemorySink(), snapshot_interval_us=1)
        telemetry.bind_clock(SimClock())
        telemetry.pause()
        assert not telemetry.maybe_snapshot(100)
        assert telemetry.sink.metrics() == []

    def test_close_emits_final_snapshot(self):
        telemetry = Telemetry(MemorySink())
        telemetry.collect("t", (("c", COUNTER, itemgetter("c")),), {"c": 3})
        record = telemetry.close()
        assert record["metrics"]["t.c"] == 3
        assert telemetry.sink.metrics()[-1] == record


class TestIoTraceRetention:
    def test_keep_newest_is_a_ring(self):
        trace = IoTrace(capacity=3)
        for index in range(5):
            record(trace, index)
        assert [e.lpn for e in trace] == [2, 3, 4]
        assert trace.dropped == 2

    def test_snapshot_surfaces_drop_accounting(self):
        trace = IoTrace(capacity=2)
        for index in range(5):
            record(trace, index)
        assert trace.snapshot() == {
            "capacity": 2, "recorded": 2, "dropped": 3}

    def test_clear_resets_drop_count(self):
        trace = IoTrace(capacity=1)
        record(trace, 0)
        record(trace, 1)
        trace.clear()
        assert len(trace) == 0
        assert trace.dropped == 0
