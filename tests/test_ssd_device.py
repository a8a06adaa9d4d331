"""Unit tests for the SSD block-device facade: commands, stats, latency
charging, tracing, aging, and power cycling."""

import random

import pytest

from repro.errors import ShareError
from repro.flash.geometry import FlashGeometry
from repro.flash.timing import FAST_TIMING, MLC_TIMING
from repro.ftl.config import FtlConfig
from repro.ftl.share_ext import SharePair
from repro.sim.clock import SimClock
from repro.ssd.device import Ssd, SsdConfig

from conftest import small_ssd_config


class TestCommands:
    def test_write_read(self, ssd):
        ssd.write(3, "abc")
        assert ssd.read(3) == "abc"
        assert ssd.stats.host_write_pages == 1
        assert ssd.stats.host_read_pages == 1

    def test_write_multi(self, ssd):
        ssd.write_multi(10, ["a", "b", "c"])
        assert [ssd.read(10 + i) for i in range(3)] == ["a", "b", "c"]
        assert ssd.stats.host_write_pages == 3

    def test_write_multi_past_the_end_writes_nothing(self, ssd):
        last = ssd.logical_pages - 1
        ssd.write(last, "old")
        programs = ssd.nand.total_programs
        clock_us = ssd.clock.now_us
        with pytest.raises(ValueError):
            ssd.write_multi(last, ["a", "b"])
        # Nothing was programmed, so nothing went unbilled.
        assert ssd.nand.total_programs == programs
        assert ssd.clock.now_us == clock_us
        assert (ssd.stats.host_write_pages, ssd.stats.write_commands) \
            == (1, 1)
        assert ssd.read(last) == "old"

    def test_write_multi_empty_rejected(self, ssd):
        from repro.errors import DeviceError
        with pytest.raises(DeviceError):
            ssd.write_multi(0, [])

    def test_share_and_stats(self, ssd):
        ssd.write(1, "x")
        ssd.share(2, 1)
        ssd.share_batch([SharePair(3, 1)])
        assert ssd.read(2) == "x"
        assert ssd.read(3) == "x"
        assert ssd.stats.share_commands == 2
        assert ssd.stats.share_pairs == 2

    def test_share_disabled_device_rejects(self, clock):
        config = SsdConfig(geometry=FlashGeometry.small(),
                           timing=FAST_TIMING, share_enabled=False)
        plain = Ssd(clock, config)
        plain.write(1, "x")
        with pytest.raises(ShareError):
            plain.share(2, 1)
        with pytest.raises(ShareError):
            plain.share_batch([SharePair(2, 1)])

    def test_trim_and_flush(self, ssd):
        ssd.write(1, "x")
        ssd.trim(1)
        ssd.flush()
        assert ssd.stats.trim_commands == 1
        assert ssd.stats.flush_commands == 1


class TestLatency:
    def test_time_advances_per_command(self, clock, ssd):
        before = clock.now_us
        ssd.write(0, "x")
        after_write = clock.now_us
        assert after_write > before
        ssd.read(0)
        assert clock.now_us > after_write

    def test_writes_cost_more_than_reads(self, clock):
        ssd = Ssd(clock, small_ssd_config())
        ssd.write(0, "x")
        start = clock.now_us
        ssd.write(1, "y")
        write_cost = clock.now_us - start
        start = clock.now_us
        ssd.read(0)
        read_cost = clock.now_us - start
        assert write_cost > read_cost

    def test_share_is_cheaper_than_write(self, clock):
        ssd = Ssd(clock, small_ssd_config())
        ssd.write(0, "x")
        start = clock.now_us
        ssd.write(1, "y")
        write_cost = clock.now_us - start
        start = clock.now_us
        ssd.share(2, 0)
        share_cost = clock.now_us - start
        assert share_cost < write_cost

    def test_gc_work_charged_to_triggering_command(self, clock):
        ssd = Ssd(clock, small_ssd_config())
        hot = ssd.logical_pages // 4
        max_latency = 0
        for i in range(ssd.logical_pages * 3):
            start = clock.now_us
            ssd.write(i % hot, i)
            max_latency = max(max_latency, clock.now_us - start)
        assert ssd.stats.gc_events > 0
        # Some command absorbed GC latency: max >> a clean write.
        clean = FAST_TIMING.program_latency(ssd.page_size) + FAST_TIMING.command_overhead_us
        assert max_latency > clean * 2


class TestStats:
    def test_waf_grows_with_gc(self, clock):
        ssd = Ssd(clock, small_ssd_config())
        # Mixed-temperature workload so GC moves valid pages.
        import random
        rng = random.Random(1)
        span = int(ssd.logical_pages * 0.9)
        for lpn in range(span):
            ssd.write(lpn, lpn)
        for i in range(ssd.logical_pages * 2):
            ssd.write(rng.randrange(span), i)
        assert ssd.stats.copyback_pages > 0
        assert ssd.stats.write_amplification > 1.0

    def test_delta_since(self, ssd):
        ssd.write(0, "x")
        before = ssd.stats.copy()
        ssd.write(1, "y")
        delta = ssd.stats.delta_since(before)
        assert delta["host_write_pages"] == 1

    def test_host_written_bytes(self, ssd):
        ssd.write(0, "x")
        assert ssd.stats.host_written_bytes == ssd.page_size


class TestTrace:
    def test_trace_disabled_by_default(self, ssd):
        ssd.write(0, "x")
        assert len(ssd.trace) == 0

    def test_trace_records_commands(self, clock):
        ssd = Ssd(clock, small_ssd_config(trace=100))
        ssd.write(0, "x")
        ssd.read(0)
        kinds = [event.kind for event in ssd.trace]
        assert kinds == ["write", "read"]
        assert ssd.trace.events("write")[0].latency_us > 0

    def test_trace_capacity_bounds(self, clock):
        ssd = Ssd(clock, small_ssd_config(trace=2))
        for i in range(5):
            ssd.write(i, i)
        assert len(ssd.trace) == 2
        assert ssd.trace.dropped == 3


class TestPowerCycle:
    def test_data_survives_power_cycle(self, ssd):
        ssd.write(1, "persist")
        ssd.share(2, 1)
        ssd.power_cycle()
        assert ssd.read(1) == "persist"
        assert ssd.read(2) == "persist"

    def test_stats_survive_power_cycle_object(self, ssd):
        ssd.write(1, "x")
        writes_before = ssd.stats.host_write_pages
        ssd.power_cycle()
        assert ssd.stats.host_write_pages == writes_before


class TestAging:
    def test_age_fills_and_excludes_stats(self, clock):
        ssd = Ssd(clock, small_ssd_config())
        ssd.age(fill_fraction=0.5, rewrite_fraction=0.5)
        assert ssd.stats.host_write_pages == 0
        assert clock.now_us == 0
        # Media really is filled.
        assert ssd.read(0) is not None

    def test_age_validates_args(self, ssd):
        with pytest.raises(ValueError):
            ssd.age(fill_fraction=1.5, rewrite_fraction=0.0)
        with pytest.raises(ValueError):
            ssd.age(fill_fraction=0.5, rewrite_fraction=-0.1)

    def test_reset_measurement_clears_counters(self, ssd):
        ssd.write(0, "x")
        ssd.reset_measurement()
        assert ssd.stats.host_write_pages == 0
        assert ssd.ftl.stats.host_page_writes == 0


def preconditioned_mlc_ssd(block_count, utilization):
    """An MLC-timed device (128-page blocks, 8 % over-provisioning) with
    ``utilization`` of its logical space written untimed, then its
    counters and clock reset.  Returns ``(ssd, span)``."""
    geometry = FlashGeometry(page_size=4096, pages_per_block=128,
                             block_count=block_count,
                             overprovision_ratio=0.08)
    ssd = Ssd(SimClock(), SsdConfig(
        geometry=geometry, timing=MLC_TIMING,
        ftl=FtlConfig(map_block_count=max(4, block_count // 24))))
    span = int(ssd.logical_pages * utilization)
    for lpn in range(span):
        ssd.ftl.write(lpn, ("precond", lpn))
    ssd.reset_measurement()
    ssd.clock.reset()
    return ssd, span


class TestWorkloadShape:
    def test_random_reads_are_faster_than_random_writes(self):
        """Ported from the deleted
        ``tests/test_tools.py::TestMicrobench::test_reads_faster_than_writes``:
        500 random reads over a 60 % filled span take less virtual time
        than 500 random writes over it."""
        elapsed = {}
        for op in ("read", "write"):
            ssd, span = preconditioned_mlc_ssd(64, 0.6)
            rng = random.Random(1)
            for i in range(500):
                if op == "read":
                    ssd.read(rng.randrange(span))
                else:
                    ssd.write(rng.randrange(span), ("w", i))
            elapsed[op] = ssd.clock.now_us
        assert elapsed["read"] < elapsed["write"]

    def test_higher_utilization_raises_waf_and_gc(self):
        """Ported from the deleted
        ``tests/test_tools.py::TestMicrobench::test_high_utilization_raises_waf``:
        4 000 random writes over 90 % of a 48-block device amplify and
        collect at least as much as over 30 % of it."""
        stats = {}
        for utilization in (0.3, 0.9):
            ssd, span = preconditioned_mlc_ssd(48, utilization)
            rng = random.Random(1)
            for i in range(4000):
                ssd.write(rng.randrange(span), ("w", i))
            stats[utilization] = ssd.stats
        assert (stats[0.9].write_amplification
                >= stats[0.3].write_amplification)
        assert stats[0.9].gc_events >= stats[0.3].gc_events
