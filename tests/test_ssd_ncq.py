"""Native command queue, sessions, and the event-driven device core."""

import pytest

from repro.errors import DeviceError
from repro.flash.geometry import FlashGeometry
from repro.flash.timing import FAST_TIMING
from repro.ftl.config import FtlConfig
from repro.sim.clock import SimClock
from repro.ssd.device import Ssd, SsdConfig
from repro.ssd.ncq import DeviceSession, NativeCommandQueue, issuing


def build(queue_depth=1, channel_count=1, plane_ways=1, block_count=32,
          **ssd_kwargs):
    clock = SimClock()
    ssd = Ssd(clock, SsdConfig(
        geometry=FlashGeometry(page_size=4096, pages_per_block=16,
                               block_count=block_count,
                               channel_count=channel_count),
        timing=FAST_TIMING, ftl=FtlConfig(map_block_count=4),
        queue_depth=queue_depth, plane_ways=plane_ways), **ssd_kwargs)
    return clock, ssd


class TestNativeCommandQueue:
    def test_depth_one_serialises(self):
        ncq = NativeCommandQueue(1)
        assert ncq.admit(0) == 0
        ncq.commit(100)
        # Second command arriving early waits for the first completion.
        assert ncq.admit(10) == 100

    def test_deeper_queue_admits_immediately(self):
        ncq = NativeCommandQueue(2)
        assert ncq.admit(0) == 0
        ncq.commit(100)
        assert ncq.admit(10) == 10   # a free tag exists
        ncq.commit(150)
        assert ncq.admit(20) == 100  # both tags busy: wait for earliest

    def test_completed_commands_free_tags(self):
        ncq = NativeCommandQueue(2)
        ncq.commit(50)
        ncq.commit(60)
        assert ncq.admit(70) == 70   # both completed by arrival
        assert ncq.inflight == 0

    def test_depth_validation(self):
        with pytest.raises(ValueError):
            NativeCommandQueue(0)

    def test_reset_forgets_outstanding(self):
        ncq = NativeCommandQueue(1)
        ncq.commit(500)
        ncq.reset()
        assert ncq.admit(0) == 0


class TestSessions:
    def test_session_cursor_chains_commands(self):
        clock, ssd = build()
        session = DeviceSession(0, 0)
        with issuing(session, ssd):
            ssd.write(1, "a")
            first_end = session.now_us
            ssd.write(2, "b")
        assert first_end > 0
        assert session.now_us > first_end
        # Submissions did not advance the shared clock.
        assert clock.now_us == 0
        ssd.drain()
        assert clock.now_us == session.now_us

    def test_conflicting_session_attach_raises(self):
        clock, ssd = build()
        ssd.attach_session(DeviceSession(0, 0))
        with pytest.raises(DeviceError):
            ssd.attach_session(DeviceSession(1, 0))
        ssd.detach_session()

    def test_poll_reports_inflight(self):
        clock, ssd = build(queue_depth=4)
        session = DeviceSession(0, 0)
        with issuing(session, ssd):
            for lpn in range(4):
                ssd.write(lpn, ("v", lpn))
        assert ssd.poll(0) >= 0
        ssd.drain()
        assert ssd.poll() == 0

    def test_drain_can_leave_commands_in_flight(self):
        clock, ssd = build(queue_depth=4)
        session = DeviceSession(0, 0)
        with issuing(session, ssd):
            ssd.trim(1)
            session.now_us = 0
            ssd.trim(2)                 # completes with the first
            for lpn in range(3):
                ssd.write(lpn, ("v", lpn))
        # One wait frees both TRIMs: they share a completion timestamp.
        assert ssd.drain(leave=3) == 1
        assert ssd.inflight == 3
        assert ssd.drain(leave=3) == 0
        assert ssd.drain() == 3
        assert ssd.inflight == 0
        assert clock.now_us == session.now_us

    def test_two_clients_overlap_only_with_depth(self):
        # At depth 1 two clients' commands serialise; at depth 2 they
        # overlap, so the makespan shrinks.
        def run(depth):
            clock, ssd = build(queue_depth=depth, channel_count=2)
            sessions = [DeviceSession(c, 0) for c in range(2)]
            for index in range(40):
                session = sessions[index % 2]
                with issuing(session, ssd):
                    ssd.write(index % 48, ("v", index))
                ssd.poll(session.now_us)
            ssd.drain()
            return clock.now_us

        assert run(2) < run(1)


class TestDeferredAcks:
    def test_sync_write_acks_at_completion(self):
        from repro.sim.faults import FaultPlan

        plan = FaultPlan()
        clock = SimClock()
        ssd = Ssd(clock, SsdConfig(
            geometry=FlashGeometry(page_size=4096, pages_per_block=16,
                                   block_count=32),
            timing=FAST_TIMING, ftl=FtlConfig(map_block_count=4)),
            faults=plan)
        ssd.write(1, "a")
        assert plan.unacked_ops() == []

    def test_power_cycle_strands_inflight_ops(self):
        from repro.sim.faults import FaultPlan

        plan = FaultPlan()
        clock = SimClock()
        ssd = Ssd(clock, SsdConfig(
            geometry=FlashGeometry(page_size=4096, pages_per_block=16,
                                   block_count=32),
            timing=FAST_TIMING, ftl=FtlConfig(map_block_count=4),
            queue_depth=8), faults=plan)
        session = DeviceSession(0, 0)
        with issuing(session, ssd):
            for lpn in range(5):
                ssd.write(lpn, ("v", lpn))
        inflight = ssd.inflight
        assert inflight > 0
        ssd.power_cycle()
        unacked = plan.unacked_ops()
        assert len(unacked) == inflight
        assert all(record.status == "unacked" for record in unacked)

    def test_power_cycle_strands_ops_in_completion_order(self):
        # Eight clients at QD 8 over four channels: the channel-free
        # TRIMs finish ahead of the page programs submitted before them,
        # and two programs on one channel finish one after the other.
        # The stranded set comes back in (completion, submission) order.
        from repro.sim.faults import FaultPlan

        plan = FaultPlan()
        clock, ssd = build(queue_depth=8, channel_count=4, faults=plan)
        submitted = []
        for client in range(8):
            session = DeviceSession(client, 0)
            with issuing(session, ssd):
                if client in (2, 5):
                    ssd.trim(40 + client)
                    lpns = (40 + client,)
                else:
                    ssd.write(client, ("v", client))
                    lpns = (client,)
            submitted.append((session.now_us, client, lpns))
        in_completion_order = [lpns for __, __, lpns in sorted(submitted)]
        assert in_completion_order != [lpns for __, __, lpns in submitted]
        ssd.power_cycle()
        assert [op.lpns for op in plan.unacked_ops()] == in_completion_order


class TestChannelOverlap:
    def test_multi_channel_beats_single_channel(self):
        # The same write stream finishes sooner with channels to overlap
        # on — the tentpole property the scaling benchmark measures.
        def makespan(channels):
            clock, ssd = build(queue_depth=8, channel_count=channels,
                               block_count=64)
            sessions = [DeviceSession(c, 0) for c in range(8)]
            for index in range(160):
                session = sessions[index % 8]
                with issuing(session, ssd):
                    ssd.write(index % 96, ("v", index))
                ssd.poll(session.now_us)
            ssd.drain()
            return clock.now_us

        assert makespan(4) < makespan(1)

    def test_single_channel_qd1_matches_sync_model(self):
        # One session over a QD1 single-channel device reproduces the
        # synchronous model's clock exactly, command by command.
        ops = [(lpn % 48, ("v", lpn)) for lpn in range(120)]

        clock_sync, ssd_sync = build()
        sync_times = []
        for lpn, value in ops:
            ssd_sync.write(lpn, value)
            sync_times.append(clock_sync.now_us)

        clock_ses, ssd_ses = build()
        session = DeviceSession(0, 0)
        session_times = []
        for lpn, value in ops:
            with issuing(session, ssd_ses):
                ssd_ses.write(lpn, value)
            session_times.append(session.now_us)
        ssd_ses.drain()
        assert session_times == sync_times
        assert clock_ses.now_us == clock_sync.now_us

    def test_queue_report_shape(self):
        clock, ssd = build(channel_count=2)
        ssd.write(1, "a")
        report = ssd.queue_report()
        assert report["queue_depth"] == 1
        assert report["channel_count"] == 2
        assert len(report["channel_busy_us"]) == 2
        assert len(report["channel_utilization"]) == 2
        assert report["inflight"] == 0
