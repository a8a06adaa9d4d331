"""Tests for media-health-driven proactive failover: the weighted
degradation score, the breaker trip it produces, the proactive
promotion the router performs while the sick primary is still serving,
and the ShardMediaStorm fault that drives the whole path in sweeps."""

from repro.cluster import MediaHealthMonitor, ShardGroup, ShardRouter
from repro.cluster import health as health_module
from repro.flash.geometry import FlashGeometry
from repro.flash.timing import FAST_TIMING
from repro.ftl.config import FtlConfig
from repro.host.resilience import BREAKER_OPEN
from repro.sim.events import EventScheduler
from repro.sim.faults import FaultPlan, ShardKill, ShardMediaStorm
from repro.ssd.device import Ssd, SsdConfig


class FakeDevice:
    """Just enough surface for MediaHealthMonitor.score()."""

    def __init__(self, name, report):
        self.name = name
        self._report = report

    def media_report(self):
        return dict(self._report)


def storm_router(clock, shards=2, cluster_plan=None):
    """Groups whose devices each carry their own FaultPlan (a storm must
    land on one victim, never on the shared NO_FAULTS singleton)."""
    events = EventScheduler(clock)
    geometry = FlashGeometry(page_size=4096, pages_per_block=8,
                             block_count=24, overprovision_ratio=0.25)

    def device(name):
        config = SsdConfig(
            geometry=geometry, timing=FAST_TIMING,
            ftl=FtlConfig(map_block_count=4, share_table_entries=32,
                          spare_block_count=4))
        return Ssd(clock, config, faults=FaultPlan(), name=name,
                   events=events)

    groups = [ShardGroup(f"shard{i}", device(f"s{i}p"),
                         [device(f"s{i}r")]) for i in range(shards)]
    router = ShardRouter(
        groups, clock,
        faults=cluster_plan if cluster_plan is not None else FaultPlan())
    return router, groups


class TestHealthScore:
    def test_score_is_delta_weighted_not_absolute(self):
        monitor = MediaHealthMonitor()
        dev = FakeDevice("d", {"program_fails": 10, "grown_bad_blocks": 5})
        assert monitor.score(dev) == 0        # history is the baseline
        dev._report["program_fails"] += 2     # weight 3
        dev._report["grown_bad_blocks"] += 1  # weight 4
        assert monitor.score(dev) == 3 * 2 + 4 * 1

    def test_spare_exhaustion_is_terminal(self):
        monitor = MediaHealthMonitor()
        dev = FakeDevice("d", {"spare_pool": 2})
        assert monitor.score(dev) == 0
        dev._report["spare_pool"] = 0
        assert monitor.score(dev) >= health_module.TRIP_THRESHOLD

    def test_observe_trips_once_per_device(self, clock, monkeypatch):
        # Score on every ack, so the first observe is the one that trips.
        monkeypatch.setattr(health_module, "CHECK_EVERY", 1)
        router, groups = storm_router(clock)
        group = groups[0]
        monitor = router.health
        monitor.score(group.primary)          # pin the baseline
        # Degrade by lowering the baseline: the delta is what scores.
        monitor._baseline[group.primary.name]["program_fails"] -= 10
        tripped = monitor.observe(group)
        assert tripped
        assert group.guard.breaker.state == BREAKER_OPEN
        assert group.needs_promotion
        assert not monitor.observe(group)     # latched: no re-trip


class TestProactivePromotion:
    def prime(self, router, keys=24):
        for n in range(keys):
            router.put(("k", n), ("v", n))
        router.pump_replication()
        return [("k", n) for n in range(keys)]

    def test_storm_degradation_promotes_before_any_error(self, clock,
                                                         monkeypatch):
        # A gentler trip than the defaults (8 points, scored every 4th
        # ack), which this three-failure storm on a 24-block device does
        # not reach within the loop below.
        monkeypatch.setattr(health_module, "TRIP_THRESHOLD", 6)
        monkeypatch.setattr(health_module, "CHECK_EVERY", 1)
        plan = FaultPlan()
        plan.cluster.arm(ShardMediaStorm(nth=4, program_fails=3,
                                         erase_fails=1))
        router, groups = storm_router(clock, cluster_plan=plan)
        keys = self.prime(router)
        # Keep writing: the storm fires at the 4th post-arm ack, the
        # device absorbs the NAND faults (retries + retirement), the
        # health monitor sees the degradation and trips the breaker.
        for round_ in range(30):
            router.put(("w", round_), round_)
            if router.stats.proactive_promotions:
                break
        assert router.stats.media_storms == 1
        assert router.stats.media_trips == 1
        assert router.stats.proactive_promotions == 1
        assert router.stats.kills == 0        # nobody died
        event = router.controller.events[-1]
        assert event.proactive
        victim = router._group(event.shard)
        # The sick ex-primary rejoined as a replica but is held out of
        # the rotation so replication stops burning its spares.
        sick = [rep for rep in victim.replicas
                if rep.ssd.name == event.old_primary]
        assert len(sick) == 1 and sick[0].failed
        # No acked write was lost across the proactive swap.
        for key in keys:
            assert router.get(key) == ("v", key[1])

    def test_kill_promotion_is_not_proactive(self, clock):
        router, groups = storm_router(clock)
        self.prime(router)
        router.kill_shard(groups[0].name)
        router.ensure_healthy()
        event = router.controller.events[-1]
        assert not event.proactive
        assert router.stats.proactive_promotions == 0

    def test_storm_dispatch_targets_round_robin_victims(self, clock):
        """The cluster fault set hands the router the fired fault object; the
        router must inject it on the fault's victim, not whoever acked."""
        plan = FaultPlan()
        storm = ShardMediaStorm(nth=2, shard="shard1", program_fails=1,
                                erase_fails=0)
        plan.cluster.arm(storm)
        router, groups = storm_router(clock, cluster_plan=plan)
        devices = {dev.name: dev
                   for group in groups
                   for dev in [group.primary]
                   + [rep.ssd for rep in group.replicas]}
        self.prime(router, keys=8)
        assert storm.fired
        assert storm.victim == "shard1"
        assert router.stats.media_storms == 1
        # The NAND failure landed on shard1's then-primary only; shard0
        # (which acked the triggering write as often as not) is clean.
        assert devices["s1p"].media_report()["nand_failed_programs"] > 0
        assert devices["s0p"].media_report()["nand_failed_programs"] == 0
        assert devices["s0r"].media_report()["nand_failed_programs"] == 0

    def test_kill_fault_still_dispatches_to_kill_path(self, clock):
        plan = FaultPlan()
        plan.cluster.arm(ShardKill(nth=3))
        router, groups = storm_router(clock, cluster_plan=plan)
        self.prime(router, keys=8)
        assert router.stats.kills == 1
        assert router.stats.media_storms == 0
