"""Chrome-trace exporter: span lanes, device command/channel lanes,
the schema validator, and file export round-trips."""

import json

import pytest

from repro.obs import MemorySink, Telemetry, chrome_trace, \
    export_chrome_trace, validate_chrome_trace
from repro.flash.geometry import FlashGeometry
from repro.sim.clock import SimClock
from repro.ssd.device import Ssd, SsdConfig
from repro.ssd.ncq import DeviceSession
from repro.ssd.trace import IntervalTrace, IoTrace

from conftest import issuing


def traced_spans():
    """A small nested span tree captured through the real tracer."""
    sink = MemorySink()
    telemetry = Telemetry(sink=sink, mode="full")
    clock = SimClock()
    telemetry.bind_clock(clock)
    tracer = telemetry.tracer
    with tracer.span("txn", kind="write"):
        clock.advance(10)
        with tracer.span("device.write"):
            clock.advance(50)
        clock.advance(5)
    with tracer.span("txn2"):
        clock.advance(20)
    return sink.records


class TestSpanLanes:
    def test_spans_become_complete_events(self):
        trace = chrome_trace(span_records=traced_spans())
        xs = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert {e["name"] for e in xs} == {"txn", "device.write", "txn2"}
        by_name = {e["name"]: e for e in xs}
        assert by_name["txn"]["ts"] == 0
        assert by_name["txn"]["dur"] == 65
        assert by_name["device.write"]["ts"] == 10
        assert by_name["device.write"]["dur"] == 50
        assert by_name["txn"]["args"] == {"kind": "write"}

    def test_depth_becomes_thread_lane(self):
        trace = chrome_trace(span_records=traced_spans())
        by_name = {e["name"]: e for e in trace["traceEvents"]
                   if e["ph"] == "X"}
        assert by_name["txn"]["tid"] == 0
        assert by_name["txn2"]["tid"] == 0
        assert by_name["device.write"]["tid"] == 1

    def test_children_emitted_before_parents_get_right_depth(self):
        # Hand-built records in sink order (children close first).
        records = [
            {"type": "span", "name": "leaf", "span_id": 3, "parent_id": 2,
             "start_us": 2, "end_us": 3, "attrs": {}},
            {"type": "span", "name": "mid", "span_id": 2, "parent_id": 1,
             "start_us": 1, "end_us": 4, "attrs": {}},
            {"type": "span", "name": "root", "span_id": 1, "parent_id": None,
             "start_us": 0, "end_us": 5, "attrs": {}},
        ]
        by_name = {e["name"]: e for e in
                   chrome_trace(span_records=records)["traceEvents"]
                   if e["ph"] == "X"}
        assert by_name["root"]["tid"] == 0
        assert by_name["mid"]["tid"] == 1
        assert by_name["leaf"]["tid"] == 2

    def test_each_client_gets_its_own_lanes(self):
        # Two clients' operations overlap in virtual time: on one lane
        # they would not nest, so each (client, depth) is a lane.
        def span(span_id, parent_id, start_us, end_us, client):
            return {"type": "span", "name": f"s{span_id}",
                    "span_id": span_id, "parent_id": parent_id,
                    "start_us": start_us, "end_us": end_us,
                    "client": client, "attrs": {}}
        records = [span(2, 1, 2, 8, 0), span(1, None, 0, 10, 0),
                   span(3, None, 5, 15, 1), span(4, None, 20, 21, None)]
        trace = validate_chrome_trace(chrome_trace(span_records=records))
        names = {event["tid"]: event["args"]["name"]
                 for event in trace["traceEvents"]
                 if event["name"] == "thread_name"}
        assert names == {0: "sync depth 0", 1: "client 0 depth 0",
                         2: "client 0 depth 1", 3: "client 1 depth 0"}
        tids = {event["name"]: event["tid"]
                for event in trace["traceEvents"] if event["ph"] == "X"}
        assert tids == {"s4": 0, "s1": 1, "s2": 2, "s3": 3}

    def test_non_span_records_ignored(self):
        records = [{"type": "metrics", "t_us": 0, "metrics": {}}]
        assert chrome_trace(span_records=records)["traceEvents"] == []


class TestDeviceLanes:
    def device_traces(self):
        io = IoTrace(16)
        io.record_fields(100, "write", lpn=5, count=1, latency_us=40,
                         gc_events=0, copyback_pages=0, arrival_us=50,
                         wait_us=10.0)
        intervals = IntervalTrace(16)
        intervals.record(0, 60, 100)
        intervals.record(1, 70, 90)
        return io, intervals

    def test_command_lane_spans_arrival_to_completion(self):
        io, intervals = self.device_traces()
        trace = chrome_trace(devices=[("data", io, intervals)])
        commands = [e for e in trace["traceEvents"]
                    if e["ph"] == "X" and e.get("cat") == "command"]
        assert len(commands) == 1
        cmd = commands[0]
        assert cmd["ts"] == 50 and cmd["dur"] == 50
        assert cmd["args"]["lpn"] == 5
        assert cmd["args"]["wait_us"] == 10.0
        assert cmd["pid"] == 2 and cmd["tid"] == 0

    def test_command_arriving_at_zero_is_drawn_with_its_wait(self):
        # Two clients each submit a write at t = 0 to a QD-1 device: the
        # second waits out the first, and its bar spans the wait too.
        ssd = Ssd(SimClock(), SsdConfig(geometry=FlashGeometry.small(),
                                        queue_depth=1, trace_capacity=16))
        for client in range(2):
            with issuing(DeviceSession(client, 0), ssd.clock):
                ssd.write(client, ("v", client))
        ssd.drain()
        first, second = ssd.trace.events()
        assert second.arrival_us == 0 and second.wait_us > 0
        trace = validate_chrome_trace(
            chrome_trace(devices=[("d", ssd.trace, None)]))
        bars = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert [(e["ts"], e["dur"]) for e in bars] == [
            (0, first.timestamp_us), (0, second.timestamp_us)]
        # The bars overlap, so they are packed onto two lanes.
        assert [e["tid"] for e in bars] == [0, 1]
        assert second.timestamp_us == first.timestamp_us + second.wait_us

    def test_channel_lanes(self):
        io, intervals = self.device_traces()
        trace = chrome_trace(devices=[("data", io, intervals)])
        busy = [e for e in trace["traceEvents"]
                if e["ph"] == "X" and e.get("cat") == "channel"]
        assert {(e["tid"], e["ts"], e["dur"]) for e in busy} \
            == {(1, 60, 40), (2, 70, 20)}

    def test_empty_traces_emit_no_lanes(self):
        trace = chrome_trace(devices=[("d", IoTrace(4), IntervalTrace(4)),
                                      ("e", None, None)])
        assert [e for e in trace["traceEvents"] if e["ph"] == "X"] == []


class TestValidation:
    def test_valid_trace_passes_and_chains(self):
        trace = chrome_trace(span_records=traced_spans())
        assert validate_chrome_trace(trace) is trace

    def test_rejects_non_dict(self):
        with pytest.raises(ValueError, match="must be a dict"):
            validate_chrome_trace([])

    def test_rejects_missing_event_list(self):
        with pytest.raises(ValueError, match="traceEvents"):
            validate_chrome_trace({})

    def test_rejects_unknown_phase(self):
        with pytest.raises(ValueError, match="unsupported phase"):
            validate_chrome_trace(
                {"traceEvents": [{"ph": "B", "name": "x"}]})

    def test_rejects_negative_duration(self):
        with pytest.raises(ValueError, match="'dur'"):
            validate_chrome_trace({"traceEvents": [
                {"ph": "X", "name": "x", "ts": 0, "dur": -1,
                 "pid": 1, "tid": 0}]})

    def test_rejects_unnamed_complete_event(self):
        with pytest.raises(ValueError, match="need a name"):
            validate_chrome_trace({"traceEvents": [
                {"ph": "X", "name": "", "ts": 0, "dur": 1,
                 "pid": 1, "tid": 0}]})

    def test_rejects_overlapping_events_in_one_lane(self):
        def event(ts, dur, tid):
            return {"ph": "X", "name": "x", "ts": ts, "dur": dur,
                    "pid": 1, "tid": tid}
        # Touching and zero-length events do not overlap.
        validate_chrome_trace({"traceEvents": [
            event(0, 10, 0), event(10, 0, 0), event(10, 5, 0),
            event(3, 4, 1)]})
        with pytest.raises(ValueError, match="overlaps"):
            validate_chrome_trace({"traceEvents": [
                event(0, 10, 0), event(12, 1, 0), event(9, 2, 0)]})

    def test_rejects_unserialisable_args(self):
        with pytest.raises(ValueError, match="serialisable"):
            validate_chrome_trace({"traceEvents": [
                {"ph": "X", "name": "x", "ts": 0, "dur": 1, "pid": 1,
                 "tid": 0, "args": {"bad": object()}}]})


class TestExport:
    def test_export_writes_loadable_json(self, tmp_path):
        path = str(tmp_path / "trace.json")
        trace = chrome_trace(span_records=traced_spans())
        assert export_chrome_trace(path, trace) == path
        with open(path, "r", encoding="utf-8") as fh:
            loaded = json.load(fh)
        assert loaded["displayTimeUnit"] == "ms"
        assert validate_chrome_trace(loaded)
        assert len(loaded["traceEvents"]) == len(trace["traceEvents"])

    def test_export_refuses_invalid_trace(self, tmp_path):
        path = str(tmp_path / "bad.json")
        with pytest.raises(ValueError):
            export_chrome_trace(path, {"traceEvents": [{"ph": "Q"}]})
