"""Integration tests: telemetry wired through the device, FTL, host and
engines — GC attribution via span parent chains, the Figure-6 keys read
from DeviceStats (every row of every stack shape is held to its owner in
``test_obs_collectors.py``), and the DeviceStats audit (new spill/wear
counters, WAF guard)."""

import pytest

from repro.couchstore.engine import CommitMode
from repro.flash.geometry import FlashGeometry
from repro.flash.timing import FAST_TIMING
from repro.ftl.config import FtlConfig
from repro.innodb.engine import FlushMode
from repro.obs import MemorySink, NULL_TELEMETRY, Telemetry
from repro.sim.clock import SimClock
from repro.ssd.device import Ssd, SsdConfig
from repro.ssd.stats import DeviceStats

from conftest import small_ssd_config


def telemetry_ssd(clock, **config_kwargs):
    telemetry = Telemetry(MemorySink())
    ssd = Ssd(clock, small_ssd_config(**config_kwargs),
              telemetry=telemetry, name="dut")
    return telemetry, ssd


def churn_until_gc(ssd):
    hot = ssd.logical_pages // 4
    for i in range(ssd.logical_pages * 3):
        ssd.write(i % hot, i)
    assert ssd.stats.gc_events > 0


class TestDeviceMetrics:
    def test_registry_matches_device_stats(self, clock):
        telemetry, ssd = telemetry_ssd(clock)
        churn_until_gc(ssd)
        ssd.trim(0)
        ssd.flush()
        snap = telemetry.metrics.snapshot()
        stats = ssd.stats
        assert snap["device.dut.host_write_pages"] == stats.host_write_pages
        assert snap["device.dut.trim_commands"] == stats.trim_commands
        assert snap["device.dut.flush_commands"] == stats.flush_commands
        assert snap["device.dut.ftl.gc.events"] == stats.gc_events
        assert snap["device.dut.ftl.gc.copyback_pages"] \
            == stats.copyback_pages
        assert snap["device.dut.ftl.gc.block_erases"] == stats.block_erases
        assert snap["device.dut.ftl.maplog.page_writes"] \
            == stats.map_page_writes
        # In full mode every completed command left one latency sample:
        # the per-kind command counts agree with a second witness.
        for kind in ("read", "write", "trim", "share", "flush"):
            assert snap[f"device.dut.{kind}_commands"] \
                == snap[f"device.dut.latency_us.{kind}"]["count"]

    def test_latency_histograms_recorded(self, clock):
        telemetry, ssd = telemetry_ssd(clock)
        ssd.write(0, "a")
        ssd.read(0)
        snap = telemetry.metrics.snapshot()
        assert snap["device.dut.latency_us.write"]["count"] == 1
        assert snap["device.dut.latency_us.read"]["count"] == 1
        assert snap["device.dut.latency_us.read"]["max"] > 0

    def test_reset_measurement_zeroes_registry(self, clock):
        telemetry, ssd = telemetry_ssd(clock)
        ssd.write(0, "a")
        ssd.reset_measurement()
        snap = telemetry.metrics.snapshot()
        assert snap["device.dut.host_write_pages"] == 0
        assert ssd.stats.host_write_pages == 0


class TestGcAttribution:
    def test_gc_spans_nest_under_device_commands(self, clock):
        telemetry, ssd = telemetry_ssd(clock)
        churn_until_gc(ssd)
        spans = telemetry.sink.spans()
        by_id = {s["span_id"]: s for s in spans}
        gc_spans = [s for s in spans if s["name"] == "ftl.gc"]
        assert gc_spans
        for gc in gc_spans:
            assert gc["parent_id"] is not None
            root = gc
            while root["parent_id"] is not None:
                root = by_id[root["parent_id"]]
            assert root["name"].startswith("device.")
            assert gc["trace_id"] == root["span_id"]
            assert "copyback_pages" in gc["attrs"]

    def test_device_span_carries_gc_cost(self, clock):
        telemetry, ssd = telemetry_ssd(clock)
        churn_until_gc(ssd)
        writes = telemetry.sink.spans("device.write")
        assert sum(s["attrs"]["gc_events"] for s in writes) == \
            ssd.stats.gc_events
        assert sum(s["attrs"]["copyback_pages"] for s in writes) == \
            ssd.stats.copyback_pages


class TestEngineSpans:
    def test_innodb_share_flush_attribution(self):
        from repro.bench.harness import build_innodb_stack
        telemetry = Telemetry(MemorySink())
        stack = build_innodb_stack(FlushMode.SHARE, 4096,
                                   buffer_pool_pages=64,
                                   db_pages_estimate=512,
                                   telemetry=telemetry)
        engine = stack.engine
        table = engine.create_table("t")
        for key in range(600):
            with engine.transaction() as txn:
                txn.put("t", key, ("row", key))
        engine.checkpoint()
        spans = telemetry.sink.spans()
        names = {s["name"] for s in spans}
        assert "innodb.txn_commit" in names
        assert "innodb.flush_batch" in names
        assert "innodb.dwb.stage" in names
        assert "host.share_ioctl" in names
        assert "device.share" in names
        # The share ioctl span is a descendant of a flush batch.
        by_id = {s["span_id"]: s for s in spans}
        ioctl = next(s for s in spans if s["name"] == "host.share_ioctl")
        chain = set()
        walk = ioctl
        while walk["parent_id"] is not None:
            walk = by_id[walk["parent_id"]]
            chain.add(walk["name"])
        assert "innodb.flush_batch" in chain
        snap = telemetry.metrics.snapshot()
        assert snap["innodb.dwb.share_batches"] > 0
        assert snap["innodb.transactions"] == 600
        assert table is engine.table("t")

    def test_couch_commit_spans_and_counters(self):
        from repro.bench.harness import build_couch_stack
        telemetry = Telemetry(MemorySink())
        stack = build_couch_stack(CommitMode.SHARE, record_count=200,
                                  operations_estimate=400,
                                  telemetry=telemetry)
        store = stack.store
        for key in range(100):
            store.set(key, ("doc", key))
        store.commit()
        for key in range(50):
            store.set(key, ("doc2", key))
        store.commit()
        spans = telemetry.sink.spans("couch.commit")
        assert len(spans) == 2
        assert spans[1]["attrs"]["share_pairs"] == 50
        snap = telemetry.metrics.snapshot()
        assert snap["couch.commits"] == 2
        assert snap["couch.share_pairs"] == 50
        assert snap["couch.doc_blocks_written"] == 150

    def test_couch_compaction_span(self):
        from repro.bench.harness import build_couch_stack
        from repro.couchstore.compaction import compact
        telemetry = Telemetry(MemorySink())
        stack = build_couch_stack(CommitMode.SHARE, record_count=100,
                                  operations_estimate=400,
                                  telemetry=telemetry)
        store = stack.store
        for key in range(100):
            store.set(key, ("doc", key))
        store.commit()
        for key in range(100):
            store.set(key, ("doc2", key))
        store.commit()
        new_store, result = compact(store, stack.clock)
        (span,) = telemetry.sink.spans("couch.compaction")
        assert span["attrs"]["mode"] == "share"
        assert span["attrs"]["docs_moved"] == result.docs_moved
        snap = telemetry.metrics.snapshot()
        assert snap["couch.compaction.runs"] == 1
        assert snap["couch.compaction.pages_moved"] == result.docs_moved
        assert new_store.doc_count == 100


class TestNullTelemetryDefault:
    def test_device_defaults_to_null(self, clock):
        ssd = Ssd(clock, small_ssd_config())
        assert ssd.telemetry is NULL_TELEMETRY
        ssd.write(0, "a")  # must not blow up, must not register metrics
        assert NULL_TELEMETRY.snapshot()["metrics"] == {}
        assert NULL_TELEMETRY.metrics.snapshot() == {}

    def test_disabled_telemetry_same_virtual_time(self, clock):
        """Telemetry must never change simulated behaviour: identical
        workloads advance the virtual clock identically with and without
        instrumentation (throughput is ops / virtual time)."""
        def run(telemetry):
            local_clock = SimClock()
            ssd = Ssd(local_clock, small_ssd_config(), telemetry=telemetry)
            hot = ssd.logical_pages // 4
            for i in range(ssd.logical_pages * 2):
                ssd.write(i % hot, i)
            return local_clock.now_us, ssd.stats.snapshot()
        plain_time, plain_stats = run(None)
        telemetry = Telemetry(MemorySink())
        traced_time, traced_stats = run(telemetry)
        assert plain_time == traced_time
        assert plain_stats == traced_stats


class TestDeviceStatsAudit:
    def test_new_counters_reach_snapshot(self, clock):
        telemetry, ssd = telemetry_ssd(clock, share_entries=2)
        ssd.write(0, "x")
        # Overflow the reverse-map so SHARE references spill to the log.
        for dst in range(1, 8):
            ssd.share(dst, 0)
        churn_until_gc(ssd)
        snap = ssd.stats.snapshot()
        assert "share_log_spills" in snap
        assert "spill_lookups" in snap
        assert "wear_level_moves" in snap
        assert snap["share_log_spills"] == ssd.stats.share_log_spills > 0

    def test_waf_zero_host_writes_guarded(self):
        stats = DeviceStats()
        stats.map_page_writes = 5  # internal traffic only
        assert stats.write_amplification == 0.0

    def test_delta_waf_recomputed_from_interval(self):
        before = DeviceStats()
        before.host_write_pages = 100
        before.copyback_pages = 100
        after = before.copy()
        after.host_write_pages = 200
        after.copyback_pages = 150
        delta = after.delta_since(before)
        # Interval WAF: (100 host + 50 copyback) / 100 host = 1.5.
        assert delta["write_amplification"] == pytest.approx(1.5)

    def test_delta_waf_write_free_interval(self):
        before = DeviceStats()
        after = before.copy()
        assert after.delta_since(before)["write_amplification"] == 0.0


def test_power_cycle_keeps_telemetry(clock):
    telemetry, ssd = telemetry_ssd(clock)
    ssd.write(0, "survives")
    ssd.flush()
    ssd.power_cycle()
    assert ssd.telemetry is telemetry
    assert ssd.read(0) == "survives"
    assert ssd.ftl.telemetry is telemetry


@pytest.fixture
def clock():
    return SimClock()
