"""Edge-case coverage for the smaller utility surfaces: device stats,
I/O trace, report formatting, error hierarchy, and timing validation."""

import pytest

from repro import errors
from repro.bench.report import format_series, format_table
from repro.flash.timing import FAST_TIMING, FlashTiming
from repro.ssd.stats import DeviceStats
from repro.ssd.trace import IoTrace


class TestDeviceStats:
    def test_waf_zero_without_writes(self):
        assert DeviceStats().write_amplification == 0.0

    def test_total_nand_programs(self):
        stats = DeviceStats()
        stats.host_write_pages = 10
        stats.copyback_pages = 5
        stats.map_page_writes = 2
        stats.share_spill_pages = 1
        assert stats.total_nand_programs == 18
        assert stats.write_amplification == pytest.approx(1.8)

    def test_bytes_properties(self):
        stats = DeviceStats(page_size=4096)
        stats.host_write_pages = 3
        assert stats.host_written_bytes == 3 * 4096

    def test_copy_is_independent(self):
        stats = DeviceStats()
        stats.host_write_pages = 5
        stats.extra["x"] = 1
        clone = stats.copy()
        stats.host_write_pages = 99
        stats.extra["x"] = 99
        assert clone.host_write_pages == 5
        assert clone.extra["x"] == 1

    def test_delta_since(self):
        before = DeviceStats()
        after = DeviceStats()
        after.host_write_pages = 7
        delta = after.delta_since(before)
        assert delta["host_write_pages"] == 7

    def test_snapshot_includes_extra(self):
        stats = DeviceStats()
        stats.extra["custom"] = 3
        assert stats.snapshot()["custom"] == 3


class TestIoTrace:
    def record(self, trace, kind="write", latency=10.0):
        trace.record_fields(timestamp_us=0, kind=kind, lpn=0, count=1,
                            latency_us=latency, gc_events=0,
                            copyback_pages=0, arrival_us=0, wait_us=0.0)

    def test_filtering_by_kind(self):
        trace = IoTrace(10)
        self.record(trace, "write")
        self.record(trace, "read")
        assert len(trace.events("write")) == 1
        assert len(trace.events()) == 2

    def test_clear(self):
        trace = IoTrace(1)
        self.record(trace)
        self.record(trace)
        assert trace.dropped == 1
        trace.clear()
        assert len(trace) == 0
        assert trace.dropped == 0

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            IoTrace(-1)


class TestReportFormatting:
    def test_table_alignment(self):
        text = format_table(["name", "value"],
                            [["a", 1.234], ["bb", 123.456]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert len({len(line) for line in lines[1:]}) == 1  # aligned

    def test_series(self):
        text = format_series("fig", "x", [1, 2],
                             {"s1": [10.0, 20.0], "s2": [1.0, 2.0]})
        assert "fig" in text
        assert "s1" in text and "s2" in text


class TestTimingValidation:
    def test_negative_latency_rejected(self):
        with pytest.raises(ValueError):
            FlashTiming(read_us=-1.0)

    def test_latency_helpers_scale_with_size(self):
        t = FAST_TIMING
        assert t.read_latency(8192) > t.read_latency(4096)
        assert t.program_latency(8192) > t.program_latency(4096)


class TestErrorHierarchy:
    def test_everything_derives_from_repro_error(self):
        for name in dir(errors):
            obj = getattr(errors, name)
            if isinstance(obj, type) and issubclass(obj, Exception):
                assert issubclass(obj, errors.ReproError) or \
                    obj is errors.ReproError

    def test_specific_parents(self):
        assert issubclass(errors.ShareError, errors.FtlError)
        assert issubclass(errors.OutOfSpaceError, errors.FtlError)
        assert issubclass(errors.FileNotFound, errors.FileSystemError)
        assert issubclass(errors.TornPageError, errors.EngineError)
