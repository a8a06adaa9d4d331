"""Tests for breaker-driven failover: kill -> deferred promotion ->
tail replay -> epoch fencing -> role swap -> rejoin re-replication
(a snapshot below the log's cut), plus the GuardStats open-episode
accounting the promotion closes out."""

import random

import pytest

from repro.cluster import FailoverController, ShardGroup, ShardRouter
from repro.crashcheck.invariants import (no_lost_acked_write,
                                         replica_convergence)
from repro.errors import ShardUnavailableError, UnmappedPageError
from repro.host.resilience import BREAKER_CLOSED, BREAKER_OPEN
from repro.sim.clock import SimClock
from repro.sim.events import EventScheduler
from repro.ssd.device import Ssd

from conftest import pair_for, small_ssd_config

from test_cluster_replication import quorum_cluster
from test_cluster_router import make_cluster


def loaded_router(clock, keys=30, pump=True):
    router, pairs = make_cluster(clock)
    for n in range(keys):
        router.put(("node", n), ("v", n))
    if pump:
        router.pump_replication()
    return router, pairs


def assert_converged(pair):
    """Every live replica at the tip, every directory key equal on it."""
    for rep in pair.live_replicas():
        assert rep.applier.watermark == pair.log.tip
        for key, lpn in pair.directory.items():
            assert rep.ssd.read(lpn) == pair.primary.read(lpn), key


class TestKillAndPromote:
    def test_kill_marks_pair_and_defers_promotion(self, clock):
        router, __ = loaded_router(clock)
        pair = pair_for(router, ("node", 0))
        router.kill_shard(pair.name)
        assert pair.primary_down
        assert pair.needs_promotion    # breaker listener fired
        assert pair.guard.breaker.state == BREAKER_OPEN
        assert router.stats.failovers == 0    # not yet — op boundary

    def test_next_op_promotes_and_serves(self, clock):
        router, __ = loaded_router(clock)
        pair = pair_for(router, ("node", 0))
        old_primary, old_replica = pair.primary, pair.replicas[0].ssd
        router.kill_shard(pair.name)
        assert router.get(("node", 0)) == ("v", 0)
        assert router.stats.failovers == 1
        assert pair.primary is old_replica
        assert pair.replicas[0].ssd is old_primary
        assert pair.guard.breaker.state == BREAKER_CLOSED

    def test_no_lost_acked_writes_with_lag(self, clock):
        """Writes acked after the last pump live only on the primary and
        in the log; promotion must replay them onto the new primary."""
        router, __ = loaded_router(clock, keys=20, pump=True)
        for n in range(20, 30):                 # unpumped tail
            router.put(("node", n), ("v", n))
        pair = pair_for(router, ("node", 0))
        lag_before = pair.repl_lag
        router.kill_shard(pair.name)
        router.ensure_healthy()
        event = router.controller.events[-1]
        assert event.replayed == lag_before
        for n in range(30):
            assert router.get(("node", n)) == ("v", n)

    def test_promotion_bumps_epoch(self, clock):
        router, __ = loaded_router(clock)
        pair = pair_for(router, ("node", 0))
        router.kill_shard(pair.name)
        assert router.ensure_healthy() == 1
        assert pair.log.epoch == 1
        event = router.controller.events[-1]
        assert event.epoch == 1
        assert event.shard == pair.name
        assert event.old_primary != event.new_primary
        assert router.stats.failover_duration_us == event.duration_us

    def test_rejoin_rereplicates_full_log(self, clock):
        """The demoted device gets a fresh applier below the log's cut;
        the next pump catches it up from a snapshot of the new primary,
        and every key reads back equal on it."""
        router, __ = loaded_router(clock, keys=25)
        pair = pair_for(router, ("node", 0))
        router.kill_shard(pair.name)
        router.ensure_healthy()
        rejoined = pair.replicas[0]
        assert rejoined.applier.watermark == 0 < pair.log.base
        applied = router.stats.repl_applied
        router.pump_replication()
        assert pair.repl_lag == 0
        assert rejoined.applier.epoch == pair.log.epoch
        assert_converged(pair)
        # Caught up by copy, not replay: counted, and no record applied.
        assert pair.log.snapshot_catchups == router.snapshot_catchups == 1
        assert router.stats.repl_applied == applied

    def test_writes_continue_through_failover(self, clock):
        router, __ = loaded_router(clock)
        pair = pair_for(router, ("node", 0))
        router.kill_shard(pair.name)
        record = router.put(("node", 0), ("v2", 0))
        assert record.epoch == 1    # post-fencing regime
        assert router.get(("node", 0)) == ("v2", 0)

    def test_second_kill_promotes_back(self, clock):
        router, __ = loaded_router(clock)
        pair = pair_for(router, ("node", 0))
        original_primary = pair.primary
        router.kill_shard(pair.name)
        router.ensure_healthy()
        router.pump_replication()    # rejoin before the second kill
        router.kill_shard(pair.name)
        router.ensure_healthy()
        assert pair.primary is original_primary
        assert pair.log.epoch == 2
        for n in range(30):
            assert router.get(("node", n)) == ("v", n)

    def test_guard_stats_record_open_episode(self, clock):
        router, __ = loaded_router(clock)
        pair = pair_for(router, ("node", 0))
        router.kill_shard(pair.name)
        stats = pair.guard.stats
        assert stats.last_open_us == clock.now_us
        opened_at = stats.last_open_us
        clock.advance(500)
        router.ensure_healthy()    # reset closes the episode
        assert stats.open_duration_us >= clock.now_us - opened_at


class TestFailoverController:
    def test_promote_without_replica_refused(self, clock):
        events = EventScheduler(clock)
        primary = Ssd(clock, small_ssd_config(), name="p", events=events)
        pair = ShardGroup("solo", primary)
        controller = FailoverController(clock)
        with pytest.raises(ShardUnavailableError):
            controller.promote(pair)

    def test_on_promoted_callback_fires(self, clock):
        seen = []
        router, __ = loaded_router(clock)
        pair = pair_for(router, ("node", 0))
        router.kill_shard(pair.name)
        controller = FailoverController(clock, on_promoted=seen.append)
        controller.promote(pair)
        assert len(seen) == 1
        assert seen[0].shard == pair.name


# -------------------------------------------------- the log cut vs failover


def load_durable(router, keys):
    durable = {}
    for n in range(keys):
        durable[("node", n)] = ("v", n)
        router.put(("node", n), ("v", n))
    return durable


class TestLogCutAndFailover:
    def test_snapshot_trims_what_the_primary_freed(self, clock):
        """A key deleted after the demotion is still on the old
        primary's media; its snapshot catch-up must trim that LPN."""
        router, __ = loaded_router(clock, keys=20)
        pair = pair_for(router, ("node", 0))
        lpn = pair.directory[("node", 0)]
        router.kill_shard(pair.name)
        router.ensure_healthy()
        assert router.delete(("node", 0)) is not None
        rejoined = pair.replicas[0]
        assert rejoined.ssd.read(lpn) == ("v", 0)
        router.pump_replication()
        with pytest.raises(UnmappedPageError):
            rejoined.ssd.read(lpn)
        assert_converged(pair)

    @pytest.mark.parametrize("budget", [1, 2, 3])
    @pytest.mark.parametrize("replicas,quorum", [(1, 1), (2, 2)])
    def test_truncation_racing_a_rejoin(self, clock, replicas, quorum,
                                        budget):
        """Cut the log, kill a primary, promote, and let the rejoined
        device catch up while writes, snapshots and deletes interleave
        with budgeted pumps of ``budget`` records."""
        router = quorum_cluster(clock, replicas=replicas,
                                write_quorum=quorum)
        durable = load_durable(router, 40)
        router.pump_replication()
        group = pair_for(router, ("node", 0))
        cut = group.log.base
        assert cut == group.log.tip > 0
        router.kill_shard(group.name)
        router.ensure_healthy()
        rng = random.Random(budget)
        for step in range(150):
            node = rng.randrange(40)
            key = ("node", node)
            roll = rng.random()
            if roll < 0.6:
                durable[key] = ("v", node, step)
                router.put(key, durable[key])
            elif roll < 0.72:
                if router.delete(key) is not None:
                    durable[key] = None
            elif roll < 0.84 and durable.get(key) is not None:
                router.share(("snap", node), key)
                durable[("snap", node)] = durable[key]
            else:
                assert router.get(key) == durable.get(key)
            router.pump_replication(limit=budget)
        while router.pump_replication():
            pass
        assert group.log.base > cut        # the cut moved past the rejoin
        assert no_lost_acked_write(router, durable) == []
        assert replica_convergence(router) == []

    def test_every_replica_failed_promotion_loses_no_acked_write(
            self, clock):
        """Failed replicas pin the cut: the best of them, promoted when
        no live replica is left, still finds its whole tail."""
        router = quorum_cluster(clock, replicas=2, write_quorum=1)
        durable = load_durable(router, 30)
        router.pump_replication()
        group = pair_for(router, ("node", 0))
        lagging, ahead = group.replicas
        group.mark_replica_failed(lagging.ssd.name)
        for n in range(30, 45):
            durable[("node", n)] = ("v", n)
            router.put(("node", n), ("v", n))
        router.pump_replication()
        group.mark_replica_failed(ahead.ssd.name)
        for n in range(45, 60):
            durable[("node", n)] = ("v", n)
            router.put(("node", n), ("v", n))
        router.pump_replication()
        assert group.log.base == lagging.applier.watermark
        assert ahead.applier.watermark > group.log.base
        router.kill_shard(group.name)
        router.ensure_healthy()
        assert group.primary is ahead.ssd
        assert no_lost_acked_write(router, durable) == []

    def test_rejoin_below_the_cut_is_passed_over(self, clock):
        """A second kill before the rejoined device caught up: a failed
        replica from before the cut is promoted, not the rejoined one."""
        router = quorum_cluster(clock, replicas=2, write_quorum=1)
        durable = load_durable(router, 30)
        router.pump_replication()
        group = pair_for(router, ("node", 0))
        router.kill_shard(group.name)
        router.ensure_healthy()
        survivor, rejoined = group.replicas
        group.mark_replica_failed(survivor.ssd.name)
        for n in range(30, 40):
            durable[("node", n)] = ("v", n)
            router.put(("node", n), ("v", n))
        assert rejoined.applier.watermark < group.log.base
        router.kill_shard(group.name)
        router.ensure_healthy()
        assert group.primary is survivor.ssd
        assert no_lost_acked_write(router, durable) == []

    def test_dead_primary_serves_no_snapshot(self, clock):
        """A pump between a kill and its promotion leaves a replica below
        the cut where it is: the killed primary is no snapshot source."""
        router = quorum_cluster(clock, replicas=2, write_quorum=1)
        durable = load_durable(router, 30)
        router.pump_replication()
        group = pair_for(router, ("node", 0))
        router.kill_shard(group.name)
        router.ensure_healthy()
        rejoined = group.replicas[1]
        router.kill_shard(group.name)
        router.pump_replication()
        assert rejoined.applier.watermark == 0 < group.log.base
        assert group.log.snapshot_catchups == 0
        router.ensure_healthy()
        router.pump_replication()
        assert rejoined.applier.watermark == group.log.tip
        assert group.log.snapshot_catchups == 2   # both demoted primaries
        assert no_lost_acked_write(router, durable) == []

    def test_no_replica_past_the_cut_refuses_promotion(self, clock):
        """One replica: killing the new primary before the rejoined one
        caught up leaves no device that can replay the tail, and the
        shard says so instead of serving a stale replica."""
        router, __ = loaded_router(clock, keys=20)
        pair = pair_for(router, ("node", 0))
        router.kill_shard(pair.name)
        router.ensure_healthy()
        router.kill_shard(pair.name)
        with pytest.raises(ShardUnavailableError):
            router.ensure_healthy()
