"""Tests for the shard-pair replication machinery: the epoch-fenced
delta log and its cut, the in-order applier (idempotence, gap refusal,
stale-epoch fencing), and the SHARE-record degradation path on the
replica."""

import random

import pytest

from repro.cluster import (REPL_SHARE, REPL_TRIM, REPL_WRITE, LogApplier,
                           ReplicationLog, ReplRecord, ShardGroup,
                           ShardRouter)
from repro.errors import ClusterError, StaleEpochError, UnmappedPageError
from repro.sim.clock import SimClock
from repro.sim.events import EventScheduler
from repro.ssd.device import Ssd

from conftest import small_ssd_config


@pytest.fixture
def replica(clock):
    return Ssd(clock, small_ssd_config(), name="replica")


def quorum_cluster(clock, shards=3, replicas=2, write_quorum=2):
    """A router over ``shards`` groups of a primary and ``replicas``
    replica devices on one scheduler."""
    events = EventScheduler(clock)
    groups = []
    for index in range(shards):
        names = ["p"] + [f"r{j}" for j in range(replicas)]
        devices = [Ssd(clock, small_ssd_config(), name=f"s{index}{name}",
                       events=events) for name in names]
        groups.append(ShardGroup(f"shard{index}", devices[0], devices[1:],
                                 write_quorum=write_quorum))
    return ShardRouter(groups, clock)


# --------------------------------------------------------- ReplicationLog


class TestReplicationLog:
    def test_append_assigns_contiguous_seqs(self):
        log = ReplicationLog()
        first = log.append(REPL_WRITE, "a", 0, value="v0")
        second = log.append(REPL_TRIM, "a", 0)
        assert (first.seq, second.seq) == (1, 2)
        assert first.epoch == second.epoch == 0
        assert log.tip == 2
        assert len(log) == 2

    def test_append_rejects_unknown_kind(self):
        log = ReplicationLog()
        with pytest.raises(ValueError):
            log.append("compact", "a", 0)

    def test_bump_epoch_stamps_later_records(self):
        log = ReplicationLog()
        before = log.append(REPL_WRITE, "a", 0, value="v")
        assert log.bump_epoch() == 1
        after = log.append(REPL_WRITE, "b", 1, value="w")
        assert before.epoch == 0
        assert after.epoch == 1
        assert after.seq == before.seq + 1   # seq never resets

    def test_record_at_indexes_from_base(self):
        log = ReplicationLog()
        for n in range(5):
            log.append(REPL_WRITE, n, n, value=n)
        log.truncate(2)
        assert (log.base, log.tip, len(log)) == (2, 5, 3)
        assert [log.record_at(seq).value for seq in (3, 4, 5)] == [2, 3, 4]
        log.truncate(1)                  # at or below the cut: no-op
        assert (log.base, len(log)) == (2, 3)
        log.truncate(5)
        assert (log.base, len(log)) == (5, 0)
        assert log.append(REPL_TRIM, 0, 0).seq == 6
        assert log.record_at(6).kind == REPL_TRIM

    def test_record_at_or_below_the_cut_raises(self):
        log = ReplicationLog()
        for n in range(4):
            log.append(REPL_WRITE, n, n, value=n)
        log.truncate(3)
        for seq in (0, 1, 3, 5):
            with pytest.raises(ValueError):
                log.record_at(seq)
        assert log.record_at(4).value == 3


# ------------------------------------------------------------- LogApplier


class TestLogApplier:
    def test_applies_in_order_and_reads_back(self, replica):
        log = ReplicationLog()
        applier = LogApplier()
        log.append(REPL_WRITE, "a", 0, value=("v", 1))
        log.append(REPL_WRITE, "b", 1, value=("v", 2))
        for seq in range(1, log.tip + 1):
            record = log.record_at(seq)
            assert applier.apply(replica, record) is True
        assert replica.read(0) == ("v", 1)
        assert replica.read(1) == ("v", 2)
        assert applier.watermark == 2
        assert applier.applied == 2

    def test_reapply_is_idempotent_skip(self, replica):
        log = ReplicationLog()
        applier = LogApplier()
        record = log.append(REPL_WRITE, "a", 0, value="v")
        assert applier.apply(replica, record) is True
        assert applier.apply(replica, record) is False
        assert applier.applied == 1

    def test_gap_refused(self, replica):
        log = ReplicationLog()
        applier = LogApplier()
        log.append(REPL_WRITE, "a", 0, value="v")
        second = log.append(REPL_WRITE, "b", 1, value="w")
        with pytest.raises(ClusterError):
            applier.apply(replica, second)
        assert applier.watermark == 0    # nothing half-applied

    def test_stale_epoch_refused_after_promotion(self, replica):
        """A lagging replica must never replay a pre-failover record
        over post-failover state (the fencing the docs promise)."""
        log = ReplicationLog()
        applier = LogApplier()
        stale = log.append(REPL_WRITE, "a", 0, value="old")
        log.bump_epoch()
        fresh = ReplRecord(1, 1, REPL_WRITE, "a", 0, "new")
        assert applier.apply(replica, fresh) is True
        assert applier.epoch == 1
        with pytest.raises(StaleEpochError):
            applier.apply(replica, stale._replace(seq=2))

    def test_share_record_remaps(self, replica):
        log = ReplicationLog()
        applier = LogApplier()
        log.append(REPL_WRITE, "src", 0, value="payload")
        log.append(REPL_SHARE, "dst", 1, value="payload", src_lpn=0)
        for seq in range(1, log.tip + 1):
            record = log.record_at(seq)
            applier.apply(replica, record)
        assert replica.read(1) == "payload"

    def test_share_fallback_carries_payload(self, replica):
        """A SHARE record whose source LPN was never written on this
        device degrades to a plain write of the carried payload."""
        applier = LogApplier()
        record = ReplRecord(0, 1, REPL_SHARE, "dst", 1,
                            value="payload", src_lpn=7)
        assert applier.apply(replica, record) is True
        assert replica.read(1) == "payload"
        assert applier.share_fallbacks == 1

    def test_trim_record(self, replica):
        log = ReplicationLog()
        applier = LogApplier()
        log.append(REPL_WRITE, "a", 0, value="v")
        log.append(REPL_TRIM, "a", 0)
        for seq in range(1, log.tip + 1):
            record = log.record_at(seq)
            applier.apply(replica, record)
        with pytest.raises(UnmappedPageError):
            replica.read(0)

    def test_unknown_kind_refused(self, replica):
        applier = LogApplier()
        with pytest.raises(ClusterError):
            applier.apply(replica,
                          ReplRecord(0, 1, "compact", "a", 0))


# ---------------------------------------------------------------- log cut


class TestLogCut:
    def test_every_pump_leaves_only_the_lag(self, clock):
        """A long healthy run with budgeted pumps: after each one the
        log holds no record every replica has applied."""
        router = quorum_cluster(clock)
        rng = random.Random(7)
        groups = list(router.pairs.values())
        for step in range(1200):
            node = rng.randrange(150)
            key = ("node", node)
            roll = rng.random()
            if roll < 0.65:
                router.put(key, ("v", node, step))
            elif roll < 0.75 and router.get(key) is not None:
                router.share(("snap", node), key)
            elif roll < 0.85:
                router.delete(key)
            else:
                router.get(key)
            if step % 8 == 7:
                router.pump_replication(limit=rng.randrange(1, 10))
                for group in groups:
                    floor = min(rep.applier.watermark
                                for rep in group.replicas)
                    assert len(group.log) <= group.log.tip - floor
        router.pump_replication()
        for group in groups:
            assert group.log.base == group.log.tip > 100
            assert len(group.log) == 0
