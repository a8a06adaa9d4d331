"""Tests for breaker-driven failover: kill -> deferred promotion ->
tail replay -> epoch fencing -> role swap -> rejoin re-replication,
plus the GuardStats open-episode accounting the promotion closes out."""

import pytest

from repro.cluster import FailoverController, ShardGroup, ShardRouter
from repro.errors import ShardUnavailableError
from repro.host.resilience import BREAKER_CLOSED, BREAKER_OPEN
from repro.sim.clock import SimClock
from repro.sim.events import EventScheduler
from repro.ssd.device import Ssd

from conftest import small_ssd_config

from test_cluster_router import make_cluster


def loaded_router(clock, keys=30, pump=True):
    router, pairs = make_cluster(clock)
    for n in range(keys):
        router.put(("node", n), ("v", n))
    if pump:
        router.pump_replication()
    return router, pairs


class TestKillAndPromote:
    def test_kill_marks_pair_and_defers_promotion(self, clock):
        router, __ = loaded_router(clock)
        pair = router.pair_for(("node", 0))
        router.kill_shard(pair.name)
        assert pair.primary_down
        assert pair.needs_promotion    # breaker listener fired
        assert pair.guard.breaker.state == BREAKER_OPEN
        assert router.stats.failovers == 0    # not yet — op boundary

    def test_next_op_promotes_and_serves(self, clock):
        router, __ = loaded_router(clock)
        pair = router.pair_for(("node", 0))
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
        pair = router.pair_for(("node", 0))
        lag_before = pair.repl_lag
        router.kill_shard(pair.name)
        router.ensure_healthy()
        event = router.controller.events[-1]
        assert event.replayed == lag_before
        for n in range(30):
            assert router.get(("node", n)) == ("v", n)

    def test_promotion_bumps_epoch(self, clock):
        router, __ = loaded_router(clock)
        pair = router.pair_for(("node", 0))
        router.kill_shard(pair.name)
        assert router.ensure_healthy() == 1
        assert pair.log.epoch == 1
        event = router.controller.events[-1]
        assert event.epoch == 1
        assert event.shard == pair.name
        assert event.old_primary != event.new_primary
        assert router.stats.failover_duration_us == event.duration_us

    def test_rejoin_rereplicates_full_log(self, clock):
        """The demoted device gets a fresh applier; pumping replays the
        whole log from seq 1 onto it (idempotent on its media)."""
        router, __ = loaded_router(clock, keys=25)
        pair = router.pair_for(("node", 0))
        log_tip = pair.log.tip
        router.kill_shard(pair.name)
        router.ensure_healthy()
        assert pair.replicas[0].applier.watermark == 0
        applied = router.pump_replication()
        assert applied == log_tip == pair.replicas[0].applier.watermark
        assert pair.repl_lag == 0

    def test_writes_continue_through_failover(self, clock):
        router, __ = loaded_router(clock)
        pair = router.pair_for(("node", 0))
        router.kill_shard(pair.name)
        record = router.put(("node", 0), ("v2", 0))
        assert record.epoch == 1    # post-fencing regime
        assert router.get(("node", 0)) == ("v2", 0)

    def test_second_kill_promotes_back(self, clock):
        router, __ = loaded_router(clock)
        pair = router.pair_for(("node", 0))
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
        pair = router.pair_for(("node", 0))
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
        pair = router.pair_for(("node", 0))
        router.kill_shard(pair.name)
        controller = FailoverController(clock, on_promoted=seen.append)
        controller.promote(pair)
        assert len(seen) == 1
        assert seen[0].shard == pair.name
