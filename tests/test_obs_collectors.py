"""Counters and gauges have one home.

The registry holds no counter of its own: every ``counter`` / ``gauge``
key of a snapshot is a collector row read off the component that keeps
the number (``DeviceStats``, ``FtlStats``, ``GuardStats``, …).  The
parity test drives four stack shapes through a seeded mixed run and
holds *every* registered row to an independent read of its owner — the
one place the mirror is asserted.  The rest pins what the pushed twin
got wrong (three divergences that fail on the commit before this file
existed) and what per-device scoping and power cycles must preserve.
"""

import random

import pytest

from repro.bench.harness import (build_cluster_stack, build_couch_stack,
                                 build_innodb_stack)
from repro.couchstore.compaction import compact
from repro.couchstore.engine import CommitMode
from repro.innodb.engine import FlushMode
from repro.obs import MemorySink, Telemetry
from repro.sim.clock import SimClock
from repro.sim.events import EventScheduler
from repro.ssd.device import Ssd
from repro.workloads.linkbench import LinkBenchConfig, LinkBenchDriver

from conftest import small_ssd_config
from test_hot_path_budget import make_device, plan_commands, run_commands

BREAKER_LEVEL = {"closed": 0, "half_open": 1, "open": 2}


# ------------------------------------------------- independent owner reads
#
# Written out by hand against the owners' fields, not derived from the
# row tables: a row that reads the wrong field must disagree with these.

def device_counters(ssd):
    stats, ftl = ssd.stats, ssd.ftl.stats
    values = {
        "read_commands": stats.host_read_pages,
        "write_commands": stats.write_commands,
        "trim_commands": stats.trim_commands,
        "share_commands": stats.share_commands,
        "flush_commands": stats.flush_commands,
        "host_read_pages": stats.host_read_pages,
        "host_write_pages": stats.host_write_pages,
        "trim_pages": stats.trim_pages,
        "share_pairs": stats.share_pairs,
        "busy_us": stats.busy_us,
        "ftl.gc.events": stats.gc_events,
        "ftl.gc.copyback_pages": stats.copyback_pages,
        "ftl.gc.block_erases": stats.block_erases,
        "ftl.gc.spill_lookups": stats.spill_lookups,
        "ftl.wear.level_moves": stats.wear_level_moves,
        "ftl.share.pairs": ftl.share_pairs,
        "ftl.share.spills": stats.share_spill_pages,
        "ftl.share.log_spills": ftl.share_log_spills,
        "ftl.maplog.page_writes": stats.map_page_writes,
        "ftl.maplog.checkpoints": ssd.ftl.maplog.checkpoints,
        "media.read_retries": ftl.read_retries,
        "media.read_relocations": ftl.read_relocations,
        "media.uncorrectable_reads": ftl.uncorrectable_reads,
        "media.program_fails": ftl.program_fails,
        "media.erase_fails": ftl.erase_fails,
        "media.corrupt_map_pages": ftl.corrupt_map_pages,
    }
    for channel, busy in enumerate(ssd.channels.busy_us):
        values[f"chan.{channel}.busy_us"] = busy
    return {f"device.{ssd.name}.{name}": value
            for name, value in values.items()}


def device_gauges(ssd):
    ftl = ssd.ftl
    report = ssd.queue_report()
    values = {
        "queue.depth": ssd.ncq.inflight,
        "ftl.free_blocks": ftl._blocks.free_count,
        "ftl.share.spill_hwm": ftl.rev.spilled_peak,
        "ftl.l2p.footprint_bytes": ftl.fwd.footprint_bytes(),
        "ftl.l2p.runs": ftl.fwd.fragment_count(),
        "ftl.l2p.remap_splits": ftl.fwd.remap_splits,
        "media.grown_bad_blocks": len(ftl.grown_bad_blocks),
        "media.spare_pool": len(ftl.spare_blocks()),
    }
    for channel, util in enumerate(report["channel_utilization"]):
        values[f"chan.{channel}.util"] = util
    return {f"device.{ssd.name}.{name}": value
            for name, value in values.items()}


def guard_counters(guards):
    """``resilience.*`` sums over every guard of the stack."""
    out = {f"resilience.{name}": sum(getattr(guard.stats, field)
                                     for guard in guards)
           for name, field in (("retries", "retries"),
                               ("command_failures", "failures"),
                               ("breaker_fast_fails", "fast_fails"),
                               ("deadline_exceeded", "deadline_exceeded"))}
    out["resilience.breaker_trips"] = sum(guard.breaker.trips
                                          for guard in guards)
    for guard in guards:
        out[f"resilience.fallbacks.{guard.engine}"] = guard.stats.fallbacks
    return out


def guard_gauges(guards):
    return {f"resilience.breaker_state.{guard.engine}":
            BREAKER_LEVEL[guard.breaker.state] for guard in guards}


def host_counters(filesystems):
    return {
        "host.metadata_commits": sum(fs.metadata_commits
                                     for fs in filesystems),
        "host.fsync_calls": sum(fs.fsync_calls for fs in filesystems),
        "host.ioctl.share_commands": sum(fs.share_ioctl_commands
                                         for fs in filesystems),
    }


class Shape:
    """One instrumented stack: how to drive it, and where its numbers
    live."""

    devices = ()
    guards = ()
    filesystems = ()

    def __init__(self):
        self.telemetry = Telemetry(MemorySink())
        self.rng = random.Random(23)

    def seed(self):
        """Whatever must exist before the measured mix can run."""

    def counters(self):
        out = {}
        for ssd in self.devices:
            out.update(device_counters(ssd))
        out.update(guard_counters(self.guards) if self.guards else {})
        out.update(host_counters(self.filesystems)
                   if self.filesystems else {})
        return out

    def gauges(self):
        out = {}
        for ssd in self.devices:
            out.update(device_gauges(ssd))
        out.update(guard_gauges(self.guards))
        return out


class RawDevice(Shape):
    """The folded inputs of the old mirror asserts: churn until GC, trim,
    flush, and a SHARE table small enough to spill to the log."""

    def __init__(self):
        super().__init__()
        self.ssd = Ssd(SimClock(), small_ssd_config(share_entries=2),
                       telemetry=self.telemetry, name="dut")
        self.devices = (self.ssd,)

    def run(self):
        ssd = self.ssd
        hot = ssd.logical_pages // 4
        ssd.write(0, "x")
        for dst in range(1, 8):
            ssd.share(dst, 0)
        for i in range(ssd.logical_pages * 2):
            ssd.write(8 + i % hot, i)
        for __ in range(200):
            ssd.read(8 + self.rng.randrange(hot))
        ssd.trim(8, 3)
        ssd.flush()
        assert ssd.stats.gc_events and ssd.stats.share_log_spills


class InnoDbShare(Shape):
    def __init__(self):
        super().__init__()
        self.stack = build_innodb_stack(
            FlushMode.SHARE, 4096, buffer_pool_pages=64,
            db_pages_estimate=320, queue_depth=4, channel_count=2,
            telemetry=self.telemetry)
        engine = self.engine = self.stack.engine
        self.devices = (self.stack.data_ssd, self.stack.log_ssd)
        self.guards = (engine.dwb.resilience,)
        self.filesystems = (engine.fs,)
        self.driver = LinkBenchDriver(
            engine, self.stack.clock,
            LinkBenchConfig(node_count=300, seed=self.rng.randrange(99)))
        self.driver.load()

    def run(self):
        self.driver.run(400, concurrency=4)
        assert self.engine.dwb.share_batches

    def counters(self):
        out = super().counters()
        engine, dwb = self.engine, self.engine.dwb
        out.update({
            "innodb.transactions": engine.transactions,
            "innodb.flush_batches": engine.flush_batches,
            "innodb.dwb.batches_staged": dwb.batches_staged,
            "innodb.dwb.pages_staged": dwb.pages_staged,
            "innodb.dwb.home_page_writes": dwb.home_page_writes,
            "innodb.dwb.share_batches": dwb.share_batches,
        })
        return out


class Couch(Shape):
    def __init__(self):
        super().__init__()
        self.stack = build_couch_stack(CommitMode.SHARE, record_count=120,
                                       operations_estimate=600,
                                       telemetry=self.telemetry)
        self.store = self.stack.store
        self.devices = (self.stack.ssd,)
        self.guards = (self.store.resilience,)
        self.filesystems = (self.stack.fs,)

    def run(self):
        store = self.store
        for round_ in range(3):
            for key in range(120):
                store.set(key, ("doc", round_, key))
                if key % 16 == 15:
                    store.commit()
            store.commit()
        # The compacted store is a new object on the same database.
        self.store, result = compact(store, self.stack.clock)
        assert result.share_commands
        self.store.set(0, ("doc", "after", 0))
        self.store.commit()

    def counters(self):
        out = super().counters()
        stats = self.store.stats
        out.update({
            "couch.commits": stats.commits,
            "couch.share_pairs": stats.share_pairs,
            "couch.doc_blocks_written": stats.doc_blocks_written,
            "couch.headers_written": stats.headers_written,
            "couch.compaction.runs": stats.compactions,
            "couch.compaction.pages_moved": stats.compaction_pages_moved,
            "couch.compaction.share_commands":
                stats.compaction_share_commands,
            "couch.compaction.index_nodes_written":
                stats.compaction_index_nodes,
        })
        return out


class Cluster(Shape):
    """Three shards of three devices each, quorum-2 writes."""

    def __init__(self):
        super().__init__()
        self.stack = build_cluster_stack(shards=3, keys_estimate=300,
                                         replicas=2, write_quorum=2,
                                         telemetry=self.telemetry)
        self.router = self.stack.router
        self.devices = tuple(self.router.devices)
        self.guards = tuple(group.guard for group in self.stack.pairs)

    def run(self):
        router, rng, live = self.router, self.rng, self.live
        for index in range(600):
            key = ("k", rng.randrange(200))
            roll = rng.random()
            if roll < 0.5 or key not in live:
                router.put(key, ("v", index))
                live.add(key)
            elif roll < 0.8:
                router.get(key)
            elif roll < 0.9:
                copy = ("k", rng.randrange(200))
                router.share(copy, key)
                live.add(copy)
            else:
                router.delete(key)
                live.discard(key)
            if index % 50 == 49:
                router.pump_replication(40)
        router.kill_shard("shard1")
        router.ensure_healthy()
        router.put(("k", 1), "after failover")
        router.pump_replication()
        router.drain()
        assert router.stats.failovers == 1

    def seed(self):
        self.live = {("k", key) for key in range(200)}
        for key in sorted(self.live):
            self.router.put(key, ("seed", key))

    def counters(self):
        out = super().counters()
        stats = self.router.stats
        for name, field in (
                ("ops", "ops"), ("acked_writes", "acked_writes"),
                ("reads", "reads"), ("shard_kills", "kills"),
                ("failovers", "failovers"),
                ("failover_duration_us", "failover_duration_us"),
                ("replayed_records", "replayed_records"),
                ("repl_applied", "repl_applied"),
                ("cross_shard_copies", "cross_shard_copies"),
                ("replica_reads", "replica_reads"),
                ("replica_read_fallbacks", "replica_read_fallbacks"),
                ("media_trips", "media_trips"),
                ("media_storms", "media_storms"),
                ("proactive_promotions", "proactive_promotions"),
                ("migrated_keys", "migrated_keys"),
                ("shared_migrations", "shared_migrations"),
                ("rebalances", "rebalances")):
            out[f"cluster.{name}"] = getattr(stats, field)
        out["cluster.backpressure_waits"] = sum(
            group.backpressure_waits for group in self.stack.pairs)
        return out

    def gauges(self):
        out = super().gauges()
        for group in self.stack.pairs:
            out[f"cluster.repl_lag.{group.name}"] = group.repl_lag
            out[f"cluster.epoch.{group.name}"] = group.log.epoch
        return out


def collector_rows(telemetry):
    """The snapshot minus its histograms (whose values are dicts)."""
    return {name: value
            for name, value in telemetry.metrics.snapshot().items()
            if not isinstance(value, dict)}


@pytest.mark.parametrize("shape_type",
                         [RawDevice, InnoDbShare, Couch, Cluster],
                         ids=["raw-device", "innodb-share", "couch",
                              "cluster"])
def test_every_collector_row_equals_its_owners_stat(shape_type):
    shape = shape_type()
    shape.seed()

    # Before any reset a row is the owner's number itself.
    rows = collector_rows(shape.telemetry)
    expected = {**shape.counters(), **shape.gauges()}
    assert set(rows) == set(expected), "a registered row has no check"
    assert rows == expected

    # After one it is the delta since — and nothing was zeroed to get it.
    before = shape.counters()
    shape.telemetry.reset_measurement()
    assert shape.counters() == before
    shape.run()
    after = shape.counters()
    expected = {name: after[name] - before[name] for name in after}
    assert any(expected.values())
    expected.update(shape.gauges())
    assert collector_rows(shape.telemetry) == expected


# ------------------------------------------------ the three divergences

def registry(telemetry, name):
    return telemetry.metrics.snapshot()[name]


def test_grown_bad_blocks_is_one_level_read_three_ways():
    """Was 1 / 1 / 1, then 1 / 0 / 0 after reset_measurement, then
    1 / 1 / 0 after a power cycle: a level kept as a level, as a stats
    field the reset zeroed, and as a counter that was only inc()'d."""
    telemetry = Telemetry(MemorySink())
    ssd = make_device(telemetry)
    live = set()
    run_commands(ssd, plan_commands(ssd, random.Random(15), 1500), live)
    ssd.ftl._retire_block(ssd.ftl._active_gc
                          if ssd.ftl._active_gc is not None else 3)

    def three_ways():
        return (ssd.ftl.media_report()["grown_bad_blocks"],
                ssd.media_report()["grown_bad_blocks"],
                registry(telemetry, "device.ssd.media.grown_bad_blocks"))

    assert three_ways() == (1, 1, 1)
    ssd.reset_measurement()
    assert three_ways() == (1, 1, 1)
    ssd.flush()
    ssd.power_cycle()
    assert three_ways() == (1, 1, 1)
    assert not hasattr(ssd.ftl.stats, "grown_bad_blocks")


def test_pause_stops_spans_not_counting_in_any_layer():
    """Was ``device.ssd.host_write_pages = 0`` beside ``ftl.gc.events =
    40`` in one snapshot: the device pushed only while enabled, the FTL
    whenever the registry was live."""
    telemetry = Telemetry(MemorySink())
    ssd = make_device(telemetry)
    telemetry.pause()
    hot = ssd.logical_pages // 4
    for i in range(3000):
        ssd.write(i % hot, i)
    telemetry.resume()
    snap = telemetry.metrics.snapshot()
    assert snap["device.ssd.host_write_pages"] \
        == ssd.stats.host_write_pages == 3000
    assert snap["device.ssd.ftl.gc.events"] == ssd.stats.gc_events > 0
    # What pause does stop: spans and histogram samples.
    assert telemetry.sink.spans() == []
    assert snap["device.ssd.latency_us.write"] == {"count": 0}


def test_sampled_mode_counters_are_exact_histograms_one_in_n():
    """Was ``ftl.share.pairs = 5`` against ``FtlStats.share_pairs =
    182``: the counter was pushed inside the 1-in-64 sampler gate."""
    telemetry = Telemetry(mode="sampled", sample_every=64)
    ssd = make_device(telemetry)
    run_commands(ssd, plan_commands(ssd, random.Random(15), 4000), set())
    snap = telemetry.metrics.snapshot()
    pairs = ssd.ftl.stats.share_pairs
    assert pairs > 100
    assert snap["device.ssd.ftl.share.pairs"] == pairs \
        == ssd.stats.share_pairs == snap["device.ssd.share_pairs"]
    batches = ssd.stats.share_commands
    assert 0 < snap["ftl.share.batch_pairs"]["count"] <= batches // 32


def test_one_devices_reset_baselines_the_other_instead_of_zeroing_it():
    telemetry = Telemetry(MemorySink())
    clock = SimClock()
    events = EventScheduler(clock)
    data = Ssd(clock, small_ssd_config(), telemetry=telemetry,
               name="data", events=events)
    log = Ssd(clock, small_ssd_config(), telemetry=telemetry,
              name="log", events=events)
    for i in range(40):
        data.write(i, i)
        log.write(i, i)
    at_reset = log.stats.copy()
    data.reset_measurement()
    assert log.stats.host_write_pages == 40        # the log kept its own
    for i in range(7):
        log.write(i, -i)
    delta = log.stats.delta_since(at_reset)
    snap = telemetry.metrics.snapshot()
    assert snap["device.log.host_write_pages"] \
        == delta["host_write_pages"] == 7
    assert snap["device.log.busy_us"] == pytest.approx(delta["busy_us"])
    assert snap["device.data.host_write_pages"] == 0


# ------------------------------------------ per-device scope, power cycle

def test_each_device_reports_its_own_firmware():
    """Was last-publisher-wins: nine devices set one ``ftl.free_blocks``."""
    shape = Cluster()
    shape.seed()
    shape.run()
    snap = shape.telemetry.metrics.snapshot()
    assert len(shape.devices) == 9
    free = {ssd.name: ssd.ftl._blocks.free_count for ssd in shape.devices}
    assert len(set(free.values())) > 1, "devices indistinguishable"
    for ssd in shape.devices:
        assert snap[f"device.{ssd.name}.ftl.free_blocks"] == free[ssd.name]
    assert "ftl.free_blocks" not in snap
    # The Figure-6 breakdown still sums the firmware rows across devices.
    from repro.tools.report import activity_breakdown
    labels, values = activity_breakdown(snap)
    by_label = dict(zip(labels, values))
    assert by_label["GC copybacks (pages)"] == sum(
        ssd.stats.copyback_pages for ssd in shape.devices)
    assert by_label["map page writes"] == sum(
        ssd.stats.map_page_writes for ssd in shape.devices) > 0


def test_firmware_rows_follow_the_ftl_across_a_power_cycle():
    """The device registers once and reads ``self.ftl`` at snapshot time;
    the rebuilt FTL adopts its predecessor's cumulative counters, so no
    counter runs backwards and nothing is registered twice."""
    telemetry = Telemetry(MemorySink())
    ssd = make_device(telemetry)
    live = set()
    rng = random.Random(15)
    run_commands(ssd, plan_commands(ssd, rng, 2500), live)
    # Media counters with history, then a baseline above zero.
    ssd.ftl.stats.read_retries += 5
    ssd.ftl.maplog.checkpoints += 2
    telemetry.reset_measurement()
    ssd.ftl.stats.read_retries += 3
    before = collector_rows(telemetry)
    old_ftl = ssd.ftl
    ssd.flush()
    ssd.power_cycle()
    assert ssd.ftl is not old_ftl
    assert ssd.ftl.stats is old_ftl.stats
    after = collector_rows(telemetry)
    assert set(after) == set(before)
    assert after["device.ssd.media.read_retries"] == 3
    assert after["device.ssd.ftl.maplog.checkpoints"] == 0
    assert after["device.ssd.ftl.free_blocks"] \
        == ssd.ftl._blocks.free_count
    run_commands(ssd, plan_commands(ssd, rng, 500), live)
    final = collector_rows(telemetry)
    negative = {name: value for name, value in final.items() if value < 0}
    assert not negative
    assert final["device.ssd.host_write_pages"] \
        > before["device.ssd.host_write_pages"]
