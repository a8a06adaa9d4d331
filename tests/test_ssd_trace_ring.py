"""The keep-newest ring both trace captures share: dropped-record
accounting across wrap boundaries, wrap order and clear on each user
(IoTrace, IntervalTrace), capacity-0 behaviour, the allocation-free
``record_fields`` hot path, and the interaction with sampled telemetry
mode."""

from repro.obs import Telemetry
from repro.sim.clock import SimClock
from repro.ssd.device import Ssd
from repro.ssd.trace import IntervalTrace, IoTrace, TraceEvent

from conftest import small_ssd_config


def fill(trace, n, start=0):
    for i in range(start, start + n):
        trace.record_fields(timestamp_us=i * 10, kind="write", lpn=i,
                            count=1, latency_us=5)


class TestKeepNewest:
    """The ring's cases on :class:`IoTrace`; :class:`TestIntervalRing`
    runs them again on :class:`IntervalTrace`."""

    make = IoTrace

    @staticmethod
    def fill(trace, n, start=0):
        fill(trace, n, start)

    @staticmethod
    def keys(trace):
        return [event.lpn for event in trace]

    def test_keeps_last_capacity_events_in_order(self):
        trace = self.make(4)
        self.fill(trace, 10)
        assert len(trace) == 4
        assert self.keys(trace) == [6, 7, 8, 9]

    def test_dropped_counts_across_wrap_boundaries(self):
        trace = self.make(3)
        self.fill(trace, 3)
        assert trace.dropped == 0
        self.fill(trace, 1, start=3)      # first overwrite
        assert trace.dropped == 1
        self.fill(trace, 7, start=4)      # wraps the ring twice more
        assert trace.dropped == 8
        assert self.keys(trace) == [8, 9, 10]

    def test_order_preserved_mid_wrap(self):
        trace = self.make(4)
        self.fill(trace, 6)  # head sits mid-ring
        keys = self.keys(trace)
        assert keys == sorted(keys) == [2, 3, 4, 5]

    def test_no_drops_under_capacity(self):
        trace = self.make(8)
        self.fill(trace, 8)
        assert trace.dropped == 0
        assert len(trace) == 8

    def test_clear_resets_ring_and_dropped(self):
        trace = self.make(3)
        self.fill(trace, 7)
        trace.clear()
        assert len(trace) == 0 and trace.dropped == 0
        self.fill(trace, 2, start=20)
        assert self.keys(trace) == [20, 21]


class TestIntervalRing(TestKeepNewest):
    make = IntervalTrace

    @staticmethod
    def fill(trace, n, start=0):
        for i in range(start, start + n):
            trace.record(0, i, i + 1)

    @staticmethod
    def keys(trace):
        return [start for __, start, __ in trace.intervals()]


class TestCapacityZero:
    def test_drops_everything_without_error(self):
        trace = IoTrace(0)
        fill(trace, 5)
        assert len(trace) == 0
        assert trace.dropped == 5
        assert list(trace) == []


class TestRecordFields:
    def test_events_materialize_lazily_with_defaults(self):
        trace = IoTrace(4)
        trace.record_fields(100, "share", lpn=7, count=2, latency_us=30)
        event = next(iter(trace))
        assert isinstance(event, TraceEvent)
        assert event.kind == "share" and event.lpn == 7
        assert event.arrival_us == 0 and event.wait_us == 0.0

    def test_queue_fields_round_trip(self):
        trace = IoTrace(4)
        trace.record_fields(100, "write", lpn=1, count=1, latency_us=40,
                            gc_events=2, copyback_pages=3,
                            arrival_us=55, wait_us=5.0)
        event = trace.events()[0]
        assert (event.arrival_us, event.wait_us) == (55, 5.0)
        assert (event.gc_events, event.copyback_pages) == (2, 3)


class TestIntervalTrace:
    def test_records_and_filters_by_channel(self):
        trace = IntervalTrace(8)
        trace.record(0, 0, 10)
        trace.record(1, 5, 25)
        trace.record(0, 10, 15)
        assert trace.channels() == [0, 1]
        assert trace.intervals(channel=0) == [(0, 0, 10), (0, 10, 15)]
        assert trace.busy_us() == 10 + 20 + 5
        assert trace.busy_us(channel=1) == 20

    def test_keep_newest_ring_with_dropped(self):
        trace = IntervalTrace(2)
        trace.record(0, 0, 1)
        trace.record(0, 1, 2)
        trace.record(0, 2, 3)
        assert len(trace) == 2
        assert trace.dropped == 1
        assert trace.intervals() == [(0, 1, 2), (0, 2, 3)]

    def test_capacity_zero_drops(self):
        trace = IntervalTrace(0)
        trace.record(0, 0, 5)
        assert len(trace) == 0 and trace.dropped == 1


class TestSampledModeInteraction:
    def test_ring_captures_every_command_while_histograms_sample(self):
        """The IoTrace is a forensic record: sampled mode thins metric
        histograms but never the ring — every completion lands in it."""
        telemetry = Telemetry(mode="sampled", sample_every=10)
        ssd = Ssd(SimClock(), small_ssd_config(trace=64),
                  telemetry=telemetry, name="dut")
        writes = 40
        for i in range(writes):
            ssd.write(i % ssd.logical_pages, i)
        recorded = [e for e in ssd.trace if e.kind == "write"]
        assert len(recorded) == writes
        snap = telemetry.metrics.snapshot()
        assert snap["device.dut.latency_us.write"]["count"] == writes // 10

    def test_ring_wrap_under_sampled_mode_keeps_counting_drops(self):
        telemetry = Telemetry(mode="sampled", sample_every=5)
        ssd = Ssd(SimClock(), small_ssd_config(trace=8),
                  telemetry=telemetry, name="dut")
        for i in range(30):
            ssd.write(i % ssd.logical_pages, i)
        assert len(ssd.trace) == 8
        assert ssd.trace.dropped >= 30 - 8
