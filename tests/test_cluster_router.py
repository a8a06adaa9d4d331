"""Tests for the consistent-hash ring and the shard router's client
API: deterministic placement, the ack contract, same-shard SHARE vs
cross-shard copy degradation, deletes, replication pumping, and the
absent-key answer that gets and deletes take before routing."""

import hashlib
from bisect import bisect_right
from collections import namedtuple

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster import HashRing, ShardGroup, ShardRouter, fnv1a64
from repro.errors import ClusterError, ReproError
from repro.obs import Telemetry
from repro.sim.clock import SimClock
from repro.sim.events import EventScheduler
from repro.ssd.device import Ssd
from repro.ssd.ncq import DeviceSession

from conftest import pair_for, small_ssd_config


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

#: Known answers recorded before ``HashRing.lookup`` was inlined:
#: ``(key, owner shard on the 3-shard ring, its vnode point, owner shard
#: after ``rebalance(add=["shard3"])``, its vnode point)``.
PLACEMENT = (
    (("node", 7), 1, 0xD37CD2C6F0031A6C, 1, 0xD37CD2C6F0031A6C),
    (("link", 3, 1, 250), 2, 0x7952EC9D5E7F0E29, 2, 0x7952EC9D5E7F0E29),
    (("count", 12, 2), 0, 0x9C5125DED0E3A409, 0, 0x9C5125DED0E3A409),
    (("snap", 41), 0, 0xBFC14C36CE93A589, 3, 0xBF617388889E3BED),
    ("k", 1, 0xDD2B924EAA8D077A, 3, 0xDA91A60430D4AE9A),
    ("overflow", 0, 0xCDEC88795DCDF034, 0, 0xCDEC88795DCDF034),
    (0, 2, 0xC66EC828081A85DB, 2, 0xC66EC828081A85DB),
    (12345, 0, 0x2DBDFA5CF81BDA68, 3, 0x2CD4A910755F05F8),
)

#: SHA-256 over ``"<owner>:<point hex>;"`` of every key of
#: :func:`placement_keys` on both rings, recorded with ``PLACEMENT``: a
#: single key that moves changes it.
PLACEMENT_DIGEST = \
    "68f202db84fe7d7afce88b69bdaa9cbf7c4ad8adf68d40bdbf81dd2824e8326f"


def placement_keys():
    for n in range(300):
        yield ("node", n)
        yield ("link", n, n % 3, (n * 7919) % 1000)
        yield ("count", n, n % 3)
        yield ("snap", n)
        yield f"key{n}"
        yield n


def reference_hash(data: bytes) -> int:
    """One FNV-1a fold over all of ``data``, then fmix64: the ring hash
    written out without the prefix-state cache."""
    h = 0xCBF29CE484222325
    for byte in data:
        h = ((h ^ byte) * 0x100000001B3) % 2 ** 64
    h ^= h >> 33
    h = h * 0xFF51AFD7ED558CCD % 2 ** 64
    h ^= h >> 33
    h = h * 0xC4CEB9FE1A85EC53 % 2 ** 64
    return h ^ (h >> 33)


class ReferenceRing:
    """Placement as the first vnode point clockwise of
    :func:`reference_hash` of ``repr(key)``."""

    def __init__(self, nodes, vnodes=64):
        self.points = sorted(
            (reference_hash(f"{node}#{replica}".encode()), node)
            for node in nodes for replica in range(vnodes))
        self.hashes = [point for point, __ in self.points]

    def lookup_point(self, key):
        index = bisect_right(self.hashes, reference_hash(repr(key).encode()))
        return self.points[index % len(self.points)]


RINGS = [(HashRing(nodes), ReferenceRing(nodes))
         for nodes in (["shard0", "shard1", "shard2"],
                       ["shard0", "shard1", "shard2", "shard3"])]

Pair = namedtuple("Pair", "left right")

SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(),
    st.text(), st.text(alphabet=", '\"\\x1\u00e9\u952e\U0001F600"))

KEYS = st.recursive(
    SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4).map(tuple),
        st.builds(Pair, inner, inner)),
    max_leaves=8)


def assert_placed_like_the_reference(keys):
    """Look ``keys`` up in order, from an empty prefix-state cache."""
    for ring, reference in RINGS:
        ring._prefix_state.cache_clear()
        for key in keys:
            point = reference.lookup_point(key)
            assert ring.lookup_point(key) == point, key
            assert ring.lookup(key) == point[1], key


class TestHashRing:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(KEYS, max_size=12))
    def test_placement_equals_one_fold_over_the_whole_repr(self, keys):
        assert_placed_like_the_reference(keys)

    def test_prefix_state_is_keyed_by_the_string(self):
        # (1,) == (True,) == (1.0,) and they hash alike: a cache keyed
        # by a key's leading elements would hand (True, 5) the state of
        # "(1, ".
        assert_placed_like_the_reference(
            [(1, 5), (True, 5), (1.0, 5), ("a", 1, 2), ("a", True, 2)])

    def test_fnv1a64_is_stable(self):
        # Known-answer: the empty string hashes to the FNV offset basis.
        assert fnv1a64(b"") == 0xCBF29CE484222325
        assert fnv1a64(b"a") == fnv1a64(b"a")
        assert fnv1a64(b"a") != fnv1a64(b"b")
        # A left fold: the state after a prefix resumes exactly.
        assert fnv1a64("d\u00e9f)".encode(), fnv1a64(b"('abc', ")) \
            == fnv1a64("('abc', d\u00e9f)".encode())

    def test_placement_matches_the_known_answers(self):
        ring = HashRing(["shard0", "shard1", "shard2"])
        grown = ring.rebalance(add=["shard3"])
        for key, owner, point, grown_owner, grown_point in PLACEMENT:
            assert ring.lookup_point(key) == (point, f"shard{owner}"), key
            assert ring.lookup(key) == f"shard{owner}", key
            assert grown.lookup_point(key) \
                == (grown_point, f"shard{grown_owner}"), key
            assert grown.lookup(key) == f"shard{grown_owner}", key

    def test_placement_digest_pins_every_key(self):
        ring = HashRing(["shard0", "shard1", "shard2"])
        grown = ring.rebalance(add=["shard3"])
        digest = hashlib.sha256()
        for key in placement_keys():
            for each in (ring, grown):
                point, owner = each.lookup_point(key)
                assert each.lookup(key) == owner
                digest.update(f"{owner}:{point:x};".encode())
        assert digest.hexdigest() == PLACEMENT_DIGEST

    def test_lookup_is_deterministic_across_rings(self):
        nodes = ["shard0", "shard1", "shard2"]
        ring_a = HashRing(nodes)
        ring_b = HashRing(nodes)
        keys = [("node", n) for n in range(200)]
        assert [ring_a.lookup(k) for k in keys] \
            == [ring_b.lookup(k) for k in keys]

    def test_every_node_gets_load(self):
        ring = HashRing(["shard0", "shard1", "shard2"])
        owners = {ring.lookup(("node", n)) for n in range(600)}
        assert owners == set(ring.nodes)

    def test_validation(self):
        with pytest.raises(ValueError):
            HashRing([])
        with pytest.raises(ValueError):
            HashRing(["a", "a"])

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
        pair = pair_for(router, "k")
        assert record.kind == "write"
        assert record.seq == pair.log.tip
        assert pair.directory["k"] == record.lpn

    def test_routing_is_sticky(self, clock):
        router, __ = make_cluster(clock)
        owner = pair_for(router, ("node", 7))
        router.put(("node", 7), "v")
        assert pair_for(router, ("node", 7)) is owner
        assert ("node", 7) in owner.directory

    def test_same_shard_share_is_a_remap(self, clock):
        router, __ = make_cluster(clock)
        # Find a destination key on the same shard as the source.
        src = ("node", 0)
        src_pair = pair_for(router, src)
        dst = next(("snap", n) for n in range(1000)
                   if pair_for(router, ("snap", n)) is src_pair)
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
        src_pair = pair_for(router, src)
        dst = next(("snap", n) for n in range(1000)
                   if pair_for(router, ("snap", n)) is not src_pair)
        router.put(src, "payload")
        record = router.share(dst, src)
        assert record.kind == "write"    # a put on the destination shard
        assert router.stats.cross_shard_copies == 1
        assert router.get(dst) == "payload"

    def test_share_missing_source_raises(self, clock):
        router, __ = make_cluster(clock)
        src = ("node", 0)
        dst = next(("snap", n) for n in range(1000)
                   if pair_for(router, ("snap", n))
                   is pair_for(router, src))
        with pytest.raises(ClusterError):
            router.share(dst, src)

    def test_cross_shard_share_missing_source_raises(self, clock):
        router, __ = make_cluster(clock)
        src = ("node", 0)
        src_pair = pair_for(router, src)
        dst = next(("snap", n) for n in range(1000)
                   if pair_for(router, ("snap", n)) is not src_pair)
        dst_pair = pair_for(router, dst)
        tip = dst_pair.log.tip
        with pytest.raises(ClusterError):
            router.share(dst, src)
        assert dst not in dst_pair.directory
        assert dst_pair.log.tip == tip
        assert router.stats.cross_shard_copies == 0

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
        pair = pair_for(router, "k")
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


# ------------------------------------------------------ absent-key answer


class RoutedRouter(ShardRouter):
    """The router with every get and delete sent down the routed path:
    the reference the absent-key answer must be indistinguishable from."""

    def _absent(self, key):
        return False


#: Keys ops write: ``(1, 5)``, ``(True, 5)`` and ``(1.0, 5)`` are equal
#: but print differently, so the ring may place them on different shards.
WRITTEN_KEYS = [("node", 1), ("node", 2), ("link", 1, 2), "k", 7,
                (1, 5), (True, 5), (1.0, 5)]
#: Keys ops read or delete: the written ones and two that never are.
PROBED_KEYS = WRITTEN_KEYS + [("node", 99), "never"]

CLUSTER_OPS = st.one_of(
    st.tuples(st.just("put"), st.sampled_from(WRITTEN_KEYS),
              st.integers(0, 3)),
    st.tuples(st.just("get"), st.sampled_from(PROBED_KEYS)),
    st.tuples(st.just("delete"), st.sampled_from(PROBED_KEYS)),
    st.tuples(st.just("share"), st.sampled_from(WRITTEN_KEYS),
              st.sampled_from(PROBED_KEYS)),
    st.tuples(st.just("kill"), st.integers(0, 3)),
    # Start a rebalance (add the spare, else remove a shard) and drain
    # 0-2 of its vnode batches; "step" drains more later.
    st.tuples(st.just("rebalance"), st.integers(0, 3), st.integers(0, 2)),
    st.tuples(st.just("step"), st.integers(1, 2)),
    st.tuples(st.just("pump"), st.integers(1, 4)),
    st.tuples(st.just("client"), st.integers(0, 2)),
)


class ClusterRun:
    """One 3-shard quorum-2 cluster (a primary and two replicas per
    group) with a spare group ready to join, every device tracing its
    commands, driven op by op."""

    def __init__(self, router_cls, mode):
        self.clock = SimClock()
        events = EventScheduler(self.clock)
        self.telemetry = Telemetry(mode=mode)
        self.devices = []

        def group(index):
            members = [Ssd(self.clock, small_ssd_config(trace=4096),
                           name=f"s{index}{role}", events=events,
                           telemetry=self.telemetry)
                       for role in ("p", "r0", "r1")]
            self.devices.extend(members)
            return ShardGroup(f"shard{index}", members[0], members[1:],
                              write_quorum=2)

        self.router = router_cls([group(index) for index in range(3)],
                                 self.clock, telemetry=self.telemetry)
        self.spare = group(3)
        self.sessions = [None, DeviceSession(client=1),
                         DeviceSession(client=2)]
        self.rebalancer = None
        self.outcomes = []

    def apply(self, op):
        router = self.router
        kind = op[0]
        if kind == "put":
            return router.put(op[1], op[2])
        if kind == "get":
            return router.get(op[1])
        if kind == "delete":
            return router.delete(op[1])
        if kind == "share":
            return router.share(op[1], op[2])
        if kind == "pump":
            return router.pump_replication(op[1])
        if kind == "client":
            return router.use_session(self.sessions[op[1]])
        names = sorted(router.pairs)
        if kind == "kill":
            return router.kill_shard(names[op[1] % len(names)])
        if kind == "rebalance":
            if self.spare.name in router.pairs:
                self.rebalancer = router.start_rebalance(
                    remove=names[op[1] % len(names)])
            else:
                self.rebalancer = router.start_rebalance(add=self.spare)
            return [self.rebalancer.step() for __ in range(op[2])]
        if self.rebalancer is None:         # "step" before any rebalance
            return None
        return [self.rebalancer.step() for __ in range(op[1])]

    def run(self, ops):
        for op in ops:
            try:
                self.outcomes.append(("ok", self.apply(op)))
            except (ReproError, ValueError) as exc:
                self.outcomes.append((type(exc).__name__, str(exc)))
        return self

    def observed(self):
        """Everything the absent-key answer could perturb: return values,
        the router's counters, each shard's latency samples, each
        device's command stream, and the clock."""
        latency = {}
        if self.telemetry.mode != "off":
            latency = {name: (hist.count, list(hist._samples))
                       for name, hist in self.router._m_latency.items()}
        return (self.outcomes, self.router.stats, latency,
                {ssd.name: (list(ssd.trace), ssd.trace.snapshot())
                 for ssd in self.devices},
                self.clock.now_us)


@pytest.mark.parametrize("mode", ["full", "off"])
@settings(max_examples=80, deadline=None)
@given(ops=st.lists(CLUSTER_OPS, max_size=40))
@example(ops=[("put", "k", 1), ("kill", 0), ("get", ("node", 99)),
              ("delete", "never"), ("get", "k")])
def test_absent_key_answer_equals_the_routed_path(mode, ops):
    fast = ClusterRun(ShardRouter, mode).run(ops)
    routed = ClusterRun(RoutedRouter, mode).run(ops)
    assert fast.observed() == routed.observed()


def test_absent_key_answer_skips_the_ring(monkeypatch):
    """A miss is answered without a ring lookup; it is routed when an
    equal key is held, when a group awaits promotion (the routed path
    promotes it) and while a migration is active."""
    run = ClusterRun(ShardRouter, "off")
    router = run.router
    for n in range(20):
        router.put(("node", n), n)
    lookups = []
    lookup = HashRing.lookup
    monkeypatch.setattr(HashRing, "lookup", lambda ring, key: lookups.append(
        key) or lookup(ring, key))
    assert router.get(("node", 99)) is None
    assert router.delete(("node", 99)) is None
    assert lookups == []
    assert router.stats.ops == 22 and router.stats.reads == 1
    router.put((1, 5), "x")
    lookups.clear()
    router.get((True, 5))
    assert lookups == [(True, 5)]
    router.kill_shard("shard0")
    lookups.clear()
    assert router.get(("node", 99)) is None
    assert lookups == [("node", 99)] and router.stats.failovers == 1
    rebalancer = router.start_rebalance(add=run.spare)
    assert router.migration_pending
    lookups.clear()
    assert router.delete(("node", 99)) is None
    assert lookups == [("node", 99)]
    rebalancer.run()
    lookups.clear()
    assert router.get(("node", 99)) is None
    assert lookups == []
