"""Tests for ring resize and live key migration: post-avalanche ring
balance and minimal movement, the dual-read handoff window, early
settlement by client writes, SHARE-aware transfers, migration-epoch
fencing (StaleEpochError), shard removal, and a kill landing
mid-migration."""

import pytest

from repro.cluster import HashRing, ShardGroup, ShardRouter
from repro.errors import ClusterError, StaleEpochError
from repro.sim.events import EventScheduler
from repro.ssd.device import Ssd

from conftest import pair_for, small_ssd_config

from test_cluster_failover import assert_converged


def make_router(clock, shards=3, replicas=1, spare=True):
    events = EventScheduler(clock)

    def device(name):
        return Ssd(clock, small_ssd_config(), name=name, events=events)

    def group(index):
        return ShardGroup(f"shard{index}", device(f"s{index}p"),
                          [device(f"s{index}r{j}") for j in range(replicas)])

    groups = [group(i) for i in range(shards)]
    router = ShardRouter(groups, clock)
    return router, (group(shards) if spare else None)


def load(router, keys=60):
    for n in range(keys):
        router.put(("node", n), ("v", n))
    return [("node", n) for n in range(keys)]


# ---------------------------------------------------------------- HashRing


class TestRingRebalance:
    def test_avalanched_points_balance_the_ring(self):
        """Vnode names differ only in a short suffix; without the mix
        finalizer their points collapse into one arc per node."""
        ring = HashRing(["shard0", "shard1", "shard2"])
        owners = [ring.lookup(("node", n)) for n in range(600)]
        counts = [owners.count(node) for node in ring.nodes]
        assert min(counts) * 4 > max(counts)

    def test_add_moves_a_minority_of_keys(self):
        old = HashRing(["shard0", "shard1", "shard2"])
        new = old.rebalance(add=["shard3"])
        keys = [("node", n) for n in range(400)]
        moved = {key: new.lookup(key) for key in keys
                 if old.lookup(key) != new.lookup(key)}
        assert 0 < len(moved) < len(keys) // 2
        # Consistent hashing: every move lands on the new node, and the
        # new node serves real load afterwards.
        assert set(moved.values()) == {"shard3"}
        assert sum(new.lookup(key) == "shard3" for key in keys) \
            == len(moved)

    def test_remove_relocates_only_the_departed_nodes_keys(self):
        old = HashRing(["shard0", "shard1", "shard2"])
        new = old.rebalance(remove=["shard1"])
        keys = [("node", n) for n in range(400)]
        moved = {k for k in keys if old.lookup(k) != new.lookup(k)}
        assert moved == {k for k in keys if old.lookup(k) == "shard1"}

    def test_membership_validation(self):
        ring = HashRing(["shard0", "shard1"])
        with pytest.raises(ValueError):
            ring.rebalance(add=["shard0"])
        with pytest.raises(ValueError):
            ring.rebalance(remove=["shard9"])
        with pytest.raises(ValueError):
            ring.rebalance(remove=["shard0", "shard1"])


# ------------------------------------------------------- live migration


class TestLiveMigration:
    def test_stepped_migration_moves_every_pending_key(self, clock):
        router, spare = make_router(clock)
        keys = load(router)
        rebalancer = router.start_rebalance(add=spare)
        assert router.migration_pending > 0
        assert "shard3" in router.pairs          # ring swapped already
        while not rebalancer.done:
            rebalancer.step()
        assert router.migration_pending == 0
        assert rebalancer.moved == router.stats.migrated_keys > 0
        for key in keys:
            assert router.get(key) == ("v", key[1])
        assert any(key in router.pairs["shard3"].directory for key in keys)

    def test_dual_read_serves_pending_keys_from_old_owner(self, clock):
        router, spare = make_router(clock)
        keys = load(router)
        router.start_rebalance(add=spare)
        # Nothing migrated yet: every key must still read through the
        # old owner, including keys the ring now maps to shard3.
        routed_to_new = [k for k in keys if router.ring.lookup(k) == "shard3"]
        assert routed_to_new
        for key in keys:
            assert router.get(key) == ("v", key[1])

    def test_client_write_settles_a_pending_key_early(self, clock):
        router, spare = make_router(clock)
        load(router)
        router.start_rebalance(add=spare)
        state = router._migration
        key = next(iter(state.pending))
        old_owner = router._group(state.pending[key])
        router.put(key, "fresh")
        assert key not in state.pending          # superseded, not moved
        assert key not in old_owner.directory    # retired from the source
        assert router.get(key) == "fresh"

    def test_share_provenance_migrates_as_remap(self, clock):
        """A snapshot whose source lands on the same destination moves
        as a SHARE remap, not a byte copy."""
        router, spare = make_router(clock)
        load(router, keys=80)
        # Same-shard snapshots: provenance recorded on the old owner.
        snaps = []
        for n in range(80):
            src = ("node", n)
            dst = ("snap", n)
            if pair_for(router, src) is pair_for(router, dst):
                router.share(dst, src)
                snaps.append((dst, src))
        assert snaps
        rebalancer = router.start_rebalance(add=spare)
        rebalancer.run()
        for dst, src in snaps:
            assert router.get(dst) == router.get(src)
        # At least one pair landed together on shard3 in most layouts;
        # assert only consistency plus the counter when it happened.
        assert router.stats.shared_migrations == rebalancer.shared

    def test_remove_retires_the_shard(self, clock):
        router, __ = make_router(clock, spare=False)
        keys = load(router)
        victim = pair_for(router, keys[0]).name
        rebalancer = router.start_rebalance(remove=victim)
        rebalancer.run()
        assert victim not in router.pairs
        assert victim in router.retired
        assert router._group(victim).directory == {}
        for key in keys:
            assert router.get(key) == ("v", key[1])

    def test_second_rebalance_fences_the_stale_rebalancer(self, clock):
        router, spare = make_router(clock)
        load(router)
        stale = router.start_rebalance(add=spare)
        router.finish_rebalance()                # drains via the state
        second = router.start_rebalance(remove="shard3")
        with pytest.raises(StaleEpochError):
            stale.step()
        assert router.migration_epoch == second.epoch == 2
        second.run()

    def test_one_rebalance_at_a_time(self, clock):
        router, spare = make_router(clock)
        load(router)
        router.start_rebalance(add=spare)
        with pytest.raises(ClusterError):
            router.start_rebalance(remove="shard0")

    def test_empty_ownership_diff_ends_the_migration_at_once(self, clock):
        """A rebalance that moves no key is over when it starts: an add
        leaves no migration behind, and a remove retires its shard."""
        router, spare = make_router(clock)
        rebalancer = router.start_rebalance(add=spare)
        assert rebalancer.done and rebalancer.run() == 0
        assert router._migration is None
        assert router.finish_rebalance() == 0
        router.start_rebalance(remove="shard3")   # not "in progress"
        assert router._migration is None
        assert "shard3" not in router.pairs
        assert "shard3" in router.retired
        router.put(("node", 0), "v")
        assert router.get(("node", 0)) == "v"

    def test_put_of_an_equal_key_routed_to_the_old_owner_keeps_its_ack(
            self, clock):
        """``(0.0, 0) == (0, 0)`` but the ring hashes their ``repr``s:
        here the float form routes to the pending key's old owner, so
        the put overwrites that copy, which then must not be retired."""
        router, spare = make_router(clock)
        router.put((0, 0), "old")
        router.start_rebalance(add=spare)
        old_owner = router._migration.pending[(0, 0)]
        assert router.ring.lookup((0, 0)) == "shard3"
        assert router.ring.lookup((0.0, 0)) == old_owner
        router.put((0.0, 0), "acked")
        assert router._migration is None         # that was the last key
        assert router.get((0.0, 0)) == "acked"
        assert (0, 0) in router.pairs[old_owner].directory

    def test_kill_mid_migration_loses_nothing(self, clock):
        router, spare = make_router(clock)
        keys = load(router)
        router.pump_replication()
        rebalancer = router.start_rebalance(add=spare)
        rebalancer.step()                        # partial progress
        victim = sorted(router.pairs)[0]
        router.kill_shard(victim)
        router.ensure_healthy()                  # promote, then resume
        router.finish_rebalance()
        assert router.migration_pending == 0
        for key in keys:
            assert router.get(key) == ("v", key[1])


# --------------------------------------------------- epoch fencing (log)


class TestStaleEpochRejoin:
    def test_rejoined_old_primary_replays_cleanly_across_epochs(self, clock):
        """The demoted primary rejoins at watermark 0, below the log's
        cut, while the log holds an epoch-1 tail; its catch-up (a
        snapshot of the new primary) must not trip the fence and must
        leave it converged at the new epoch."""
        router, __ = make_router(clock, spare=False)
        keys = load(router, keys=20)
        pair = pair_for(router, keys[0])
        router.pump_replication()
        router.kill_shard(pair.name)
        router.ensure_healthy()                  # epoch 0 -> 1
        router.put(keys[0], "post-failover")     # epoch-1 tail
        assert pair.log.epoch == 1
        router.pump_replication()                # no StaleEpochError
        assert pair.repl_lag == 0
        assert pair.replicas[0].applier.epoch == 1
        assert_converged(pair)
        assert router.get(keys[0]) == "post-failover"


# ------------------------------------- breaker-open source, share path


class TestShareWithSourceBreakerOpen:
    def test_cross_shard_share_degrades_to_copy_through_promotion(
            self, clock):
        """Source shard's breaker latched open (primary dead): the
        cross-shard share must promote the source's replica, read the
        value there, and land the copy on the destination."""
        router, __ = make_router(clock, spare=False)
        load(router, keys=40)
        router.pump_replication()                # replicas caught up
        # Find a cross-shard (src, dst) pair.
        src_key = dst_key = None
        for n in range(40):
            for m in range(40):
                if pair_for(router, ("node", n)) \
                        is not pair_for(router, ("snap", m)):
                    src_key, dst_key = ("node", n), ("snap", m)
                    break
            if src_key:
                break
        src_pair = pair_for(router, src_key)
        router.kill_shard(src_pair.name)         # breaker open on source
        copies_before = router.stats.cross_shard_copies
        record = router.share(dst_key, src_key)
        assert record is not None
        assert router.stats.cross_shard_copies == copies_before + 1
        assert router.stats.failovers == 1       # promoted to serve read
        assert router.get(dst_key) == router.get(src_key) \
            == ("v", src_key[1])

    def test_same_shard_share_survives_open_breaker(self, clock):
        router, __ = make_router(clock, spare=False)
        load(router, keys=40)
        router.pump_replication()
        src_key = ("node", 0)
        pair = pair_for(router, src_key)
        dst_key = next(("snap", m) for m in range(200)
                       if pair_for(router, ("snap", m)) is pair)
        router.kill_shard(pair.name)
        record = router.share(dst_key, src_key)
        assert record is not None
        assert router.get(dst_key) == ("v", 0)
