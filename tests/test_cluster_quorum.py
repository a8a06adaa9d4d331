"""Tests for the R-replica ShardGroup: write-quorum acks (and the
degraded primary-only mode), read-your-writes replica routing with the
LPN-recycling fence, transient-vs-terminal replica apply errors, and
the router's round-robin pump fairness across groups."""

import pytest

from repro.cluster import Replica, ShardGroup, ShardRouter
from repro.sim.clock import SimClock
from repro.sim.events import EventScheduler
from repro.sim.faults import DeviceBusy, FaultPlan, ProgramFault
from repro.ftl.pagemap import PROGRAM_RETRY_LIMIT
from repro.ssd.device import Ssd
from repro.ssd.ncq import DeviceSession

from conftest import small_ssd_config


def make_group(clock, replicas=2, write_quorum=1, replica_plans=None):
    """One ShardGroup; ``replica_plans[i]`` arms faults on replica i."""
    events = EventScheduler(clock)
    primary = Ssd(clock, small_ssd_config(), name="p", events=events)
    reps = []
    for index in range(replicas):
        plan = (replica_plans or {}).get(index)
        reps.append(Ssd(clock, small_ssd_config(), name=f"r{index}",
                        events=events,
                        faults=plan if plan is not None else FaultPlan()))
    return ShardGroup("shard0", primary, reps, write_quorum=write_quorum)


class TestWriteQuorum:
    def test_quorum_ack_syncs_a_replica(self, clock):
        group = make_group(clock, replicas=2, write_quorum=2)
        for n in range(5):
            record = group.put(("k", n), ("v", n))
            # The ack means a quorum holds the record *now*, not later.
            holders = 1 + sum(rep.applier.watermark >= record.seq
                              for rep in group.replicas)
            assert holders >= 2
        assert group.quorum_syncs > 0
        assert group.quorum_degraded == 0

    def test_quorum_syncs_most_caught_up_replica_first(self, clock):
        group = make_group(clock, replicas=2, write_quorum=2)
        group.put(("k", 0), "a")
        # Quorum pulls one replica forward; the other stays behind until
        # a pump — the sync targets the least work, not every replica.
        marks = sorted(rep.applier.watermark for rep in group.replicas)
        assert marks == [0, 1]

    def test_all_replicas_failed_degrades_to_primary_only(self, clock):
        group = make_group(clock, replicas=2, write_quorum=2)
        for rep in group.replicas:
            rep.failed = True
        record = group.put(("k", 0), "a")
        assert record is not None                    # still acked
        assert group.get(("k", 0)) == "a"
        assert group.quorum_degraded == 1

    def test_quorum_validation(self, clock):
        with pytest.raises(ValueError):
            make_group(clock, replicas=1, write_quorum=3)
        with pytest.raises(ValueError):
            make_group(clock, replicas=1, write_quorum=0)


class TestReplicaReads:
    def test_caught_up_replica_serves_the_read(self, clock):
        group = make_group(clock, replicas=2)
        record = group.put(("k", 0), "a")
        group.pump_replication()
        value = group.get(("k", 0), min_seq=record.seq)
        assert value == "a"
        assert group.replica_reads == 1

    def test_lagging_replicas_leave_the_read_on_the_primary(self, clock):
        group = make_group(clock, replicas=2)
        record = group.put(("k", 0), "a")        # no pump: replicas at 0
        assert group.get(("k", 0), min_seq=record.seq) == "a"
        assert group.replica_reads == 0
        assert group.replica_read_fallbacks == 0

    def test_entry_seq_fences_recycled_lpns(self, clock):
        """Delete then re-put reuses the LPN; a replica that applied the
        old write but not the recycle must not serve the stale bytes."""
        group = make_group(clock, replicas=1)
        group.put(("k", 0), "old")
        group.pump_replication()                  # replica holds "old"
        group.delete(("k", 0))
        group.put(("k", 1), "new")                # recycles the LPN
        assert group.directory[("k", 1)] == 0
        # min_seq 0, but the entry fence still forces the primary.
        assert group.get(("k", 1)) == "new"
        assert group.replica_reads == 0

    def test_failed_replica_is_skipped(self, clock):
        group = make_group(clock, replicas=2)
        group.put(("k", 0), "a")
        group.pump_replication()
        group.mark_replica_failed("r0")
        for __ in range(4):
            assert group.get(("k", 0)) == "a"
        assert group.replica_reads == 4
        assert group.replica_drops == 1

    def test_rejoin_restores_replica_service(self, clock):
        group = make_group(clock, replicas=1)
        group.put(("k", 0), "a")
        group.pump_replication()
        demoted = group.replicas[0].ssd
        group.replicas.clear()
        rep = group.rejoin(demoted)
        assert isinstance(rep, Replica)
        assert rep.applier.watermark == 0          # fresh applier
        group.pump_replication()                   # idempotent replay
        assert group.get(("k", 0)) == "a"
        assert group.replica_reads == 1


class TestReplicaApplyErrors:
    def test_transient_busy_keeps_replica_in_rotation(self, clock):
        plan = FaultPlan()
        plan.commands.arm(DeviceBusy("write", nth=1, clears_after=1))
        group = make_group(clock, replicas=1, replica_plans={0: plan})
        group.put(("k", 0), "a")
        assert group.pump_replication() == 0       # busy rejected it
        rep = group.replicas[0]
        assert not rep.failed                      # transient: no drop
        assert group.replica_drops == 0
        assert group.pump_replication() == 1       # retried and applied
        assert rep.applier.watermark == 1

    def test_media_error_drops_the_replica(self, clock):
        plan = FaultPlan()
        # Back-to-back program failures past the retry limit (twice as
        # many as the limit: a retirement programs as well): the
        # replica's write comes back as a host-visible MediaError.
        for nth in range(1, 2 * PROGRAM_RETRY_LIMIT + 1):
            plan.media.arm(ProgramFault(nth=nth))
        group = make_group(clock, replicas=1, replica_plans={0: plan})
        group.put(("k", 0), "a")
        group.pump_replication()
        rep = group.replicas[0]
        assert rep.failed
        assert group.replica_drops == 1
        assert group.live_replicas() == []
        # The group still serves from the primary.
        assert group.get(("k", 0)) == "a"


class TestPumpFairness:
    def make_two_shard_router(self, clock):
        events = EventScheduler(clock)

        def device(name):
            return Ssd(clock, small_ssd_config(), name=name, events=events)

        groups = [ShardGroup(f"shard{i}", device(f"s{i}p"),
                             [device(f"s{i}r")]) for i in range(2)]
        return ShardRouter(groups, clock), groups

    def test_round_robin_pump_shares_the_budget(self, clock):
        """A hot shard's backlog must not starve the other group: a
        limited pump spends its budget one record per group per turn."""
        router, groups = self.make_two_shard_router(clock)
        hot, cold = groups
        for n in range(20):
            hot.put(("h", n), n)
        for n in range(6):
            cold.put(("c", n), n)
        applied = router.pump_replication(limit=12)
        assert applied == 12
        # Fair split: the cold group drains fully (6), the hot group
        # gets the remaining budget (6) — not 12-and-0.
        assert cold.replicas[0].applier.watermark == 6
        assert hot.replicas[0].applier.watermark == 6

    def test_pump_cursor_rotates_across_calls(self, clock):
        """With budget 1 per call, consecutive calls serve *different*
        groups instead of re-draining whichever sorts first."""
        router, groups = self.make_two_shard_router(clock)
        for group in groups:
            for n in range(3):
                group.put(("k", n), n)
        served = []
        for __ in range(4):
            before = [g.replicas[0].applier.watermark for g in groups]
            assert router.pump_replication(limit=1) == 1
            after = [g.replicas[0].applier.watermark for g in groups]
            served.append(after[0] - before[0])    # 1 iff group0 served
        assert 0 < sum(served) < 4                 # both groups served

    def test_unlimited_pump_drains_everything(self, clock):
        router, groups = self.make_two_shard_router(clock)
        for group in groups:
            for n in range(5):
                group.put(("k", n), n)
        router.pump_replication()
        for group in groups:
            assert group.repl_lag == 0


class TestRouterReadYourWrites:
    def make_router(self, clock, shards=2, replicas=2):
        events = EventScheduler(clock)

        def device(name):
            return Ssd(clock, small_ssd_config(), name=name, events=events)

        groups = [ShardGroup(f"shard{i}", device(f"s{i}p"),
                             [device(f"s{i}r{j}") for j in range(replicas)])
                  for i in range(shards)]
        return ShardRouter(groups, clock), events

    def test_writer_sees_own_write_before_any_pump(self, clock):
        router, events = self.make_router(clock)
        session = DeviceSession(1, 0)
        clock.issuer = session
        for n in range(10):
            router.put(("k", n), ("v", n))
            events.run_until(session.now_us)
            assert router.get(("k", n)) == ("v", n)
            events.run_until(session.now_us)
        # Nothing was pumped, so no replica could legally serve these.
        assert router.stats.replica_reads == 0

    def test_other_client_may_read_from_replica(self, clock):
        router, events = self.make_router(clock)
        writer, reader = DeviceSession(1, 0), DeviceSession(2, 0)
        clock.issuer = writer
        router.put(("k", 0), "a")
        events.run_until(writer.now_us)
        clock.issuer = clock
        router.pump_replication()
        clock.issuer = reader
        assert router.get(("k", 0)) == "a"
        events.run_until(reader.now_us)
        assert router.stats.replica_reads == 1
