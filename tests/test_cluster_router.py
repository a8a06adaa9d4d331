"""Tests for the consistent-hash ring and the shard router's client
API: deterministic placement, the ack contract, same-shard SHARE vs
cross-shard copy degradation, deletes, and replication pumping."""

import pytest

from repro.cluster import HashRing, ShardGroup, ShardRouter, fnv1a64
from repro.errors import ClusterError
from repro.sim.clock import SimClock
from repro.sim.events import EventScheduler
from repro.ssd.device import Ssd

from conftest import small_ssd_config


def make_cluster(clock, shards=3, **pair_kwargs):
    events = EventScheduler(clock)
    pairs = []
    for index in range(shards):
        primary = Ssd(clock, small_ssd_config(), name=f"s{index}p",
                      events=events)
        replica = Ssd(clock, small_ssd_config(), name=f"s{index}r",
                      events=events)
        pairs.append(ShardGroup(f"shard{index}", primary, [replica],
                                **pair_kwargs))
    return ShardRouter(pairs, clock), pairs


# --------------------------------------------------------------- HashRing


class TestHashRing:
    def test_fnv1a64_is_stable(self):
        # Known-answer: the empty string hashes to the FNV offset basis.
        assert fnv1a64(b"") == 0xCBF29CE484222325
        assert fnv1a64(b"a") == fnv1a64(b"a")
        assert fnv1a64(b"a") != fnv1a64(b"b")

    def test_lookup_is_deterministic_across_rings(self):
        nodes = ["shard0", "shard1", "shard2"]
        ring_a = HashRing(nodes)
        ring_b = HashRing(nodes)
        keys = [("node", n) for n in range(200)]
        assert [ring_a.lookup(k) for k in keys] \
            == [ring_b.lookup(k) for k in keys]

    def test_every_node_gets_load(self):
        ring = HashRing(["shard0", "shard1", "shard2"])
        spread = ring.spread([("node", n) for n in range(600)])
        assert sum(spread.values()) == 600
        assert all(count > 0 for count in spread.values())

    def test_validation(self):
        with pytest.raises(ValueError):
            HashRing([])
        with pytest.raises(ValueError):
            HashRing(["a", "a"])
        with pytest.raises(ValueError):
            HashRing(["a"], vnodes=0)

    def test_len(self):
        assert len(HashRing(["a", "b"])) == 2


# ------------------------------------------------------------ ShardRouter


class TestShardRouter:
    def test_put_get_roundtrip(self, clock):
        router, __ = make_cluster(clock)
        for n in range(40):
            router.put(("node", n), ("v", n))
        for n in range(40):
            assert router.get(("node", n)) == ("v", n)
        assert router.get(("node", 999)) is None
        assert router.stats.acked_writes == 40
        assert router.stats.reads == 41

    def test_put_returns_the_ack_record(self, clock):
        router, __ = make_cluster(clock)
        record = router.put("k", "v")
        pair = router.pair_for("k")
        assert record.kind == "write"
        assert record.seq == pair.log.tip
        assert pair.directory["k"] == record.lpn

    def test_routing_is_sticky(self, clock):
        router, __ = make_cluster(clock)
        owner = router.pair_for(("node", 7))
        router.put(("node", 7), "v")
        assert router.pair_for(("node", 7)) is owner
        assert ("node", 7) in owner.directory

    def test_same_shard_share_is_a_remap(self, clock):
        router, __ = make_cluster(clock)
        # Find a destination key on the same shard as the source.
        src = ("node", 0)
        src_pair = router.pair_for(src)
        dst = next(("snap", n) for n in range(1000)
                   if router.pair_for(("snap", n)) is src_pair)
        router.put(src, "payload")
        before = src_pair.shares
        record = router.share(dst, src)
        assert src_pair.shares == before + 1
        assert record.kind == "share"
        assert router.stats.cross_shard_copies == 0
        assert router.get(dst) == "payload"

    def test_cross_shard_share_degrades_to_copy(self, clock):
        router, __ = make_cluster(clock)
        src = ("node", 0)
        src_pair = router.pair_for(src)
        dst = next(("snap", n) for n in range(1000)
                   if router.pair_for(("snap", n)) is not src_pair)
        router.put(src, "payload")
        record = router.share(dst, src)
        assert record.kind == "write"    # a put on the destination shard
        assert router.stats.cross_shard_copies == 1
        assert router.get(dst) == "payload"

    def test_share_missing_source_raises(self, clock):
        router, __ = make_cluster(clock)
        src = ("node", 0)
        dst = next(("snap", n) for n in range(1000)
                   if router.pair_for(("snap", n))
                   is router.pair_for(src))
        with pytest.raises(ClusterError):
            router.share(dst, src)

    def test_delete_then_get_none(self, clock):
        router, __ = make_cluster(clock)
        router.put("k", "v")
        acked_before = router.stats.acked_writes
        assert router.delete("k") is not None
        assert router.delete("k") is None    # absent: no ack, no record
        assert router.get("k") is None
        assert router.stats.acked_writes == acked_before + 1

    def test_deleted_lpn_is_reused(self, clock):
        router, __ = make_cluster(clock)
        record = router.put("k", "v")
        pair = router.pair_for("k")
        router.delete("k")
        assert record.lpn in pair._free_lpns
        router.put("k", "v2")
        assert pair.directory["k"] == record.lpn
        assert not pair._free_lpns

    def test_pump_replication_catches_replicas_up(self, clock):
        router, pairs = make_cluster(clock)
        for n in range(30):
            router.put(("node", n), ("v", n))
        assert any(pair.repl_lag > 0 for pair in pairs)
        applied = router.pump_replication()
        assert applied == 30
        assert all(pair.repl_lag == 0 for pair in pairs)
        assert router.stats.repl_applied == 30
        # Replicas now hold every payload at the primary's LPNs.
        for pair in pairs:
            for key, lpn in pair.directory.items():
                assert pair.replicas[0].ssd.read(lpn) == pair.primary.read(lpn)

    def test_pump_limit_bounds_the_batch(self, clock):
        router, __ = make_cluster(clock, shards=1)
        for n in range(10):
            router.put(n, n)
        assert router.pump_replication(limit=4) == 4
        assert router.pump_replication() == 6

    def test_shard_full_raises(self, clock):
        router, pairs = make_cluster(clock, shards=1)
        pairs[0].capacity = 3
        for n in range(3):
            router.put(n, n)
        with pytest.raises(ClusterError):
            router.put("overflow", "v")

    def test_constructor_validation(self, clock):
        with pytest.raises(ValueError):
            ShardRouter([], clock)
        __, pairs = make_cluster(clock, shards=2)
        pairs[1].name = pairs[0].name
        with pytest.raises(ValueError):
            ShardRouter(pairs, clock)
