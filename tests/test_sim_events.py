"""Completion queue: (completion, seq) order, clock motion, discard, and
what a raising completion leaves behind."""

import random

import pytest

from repro.errors import CommandTimeoutError, PowerFailure
from repro.flash.geometry import FlashGeometry
from repro.flash.timing import FAST_TIMING
from repro.ftl.config import FtlConfig
from repro.sim.clock import SimClock
from repro.sim.events import EventScheduler
from repro.sim.faults import CommandTimeout, FaultPlan, PowerFailAfter
from repro.ssd.device import Ssd, SsdConfig
from repro.ssd.ncq import DeviceSession, issuing


class Sink:
    """Stand-in device: the queue only ever calls ``_on_complete``."""

    def __init__(self, fired):
        self.fired = fired

    def _on_complete(self, ticket):
        self.fired.append(ticket)


def make():
    clock = SimClock()
    fired = []
    return clock, EventScheduler(clock), Sink(fired), fired


def queued_ssd(plan=None, clock=None, events=None, name="ssd"):
    """A QD4 single-channel device; commands issued under a session
    stay in flight until the test runs the queue."""
    clock = clock or SimClock()
    ssd = Ssd(clock, SsdConfig(
        geometry=FlashGeometry(page_size=4096, pages_per_block=16,
                               block_count=32),
        timing=FAST_TIMING, ftl=FtlConfig(map_block_count=4),
        queue_depth=4), faults=plan or FaultPlan(), name=name,
        events=events)
    return clock, ssd


class TestOrdering:
    def test_fires_in_time_order(self):
        clock, events, sink, fired = make()
        events.push(30, sink, "c")
        events.push(10, sink, "a")
        events.push(20, sink, "b")
        events.run_until(100)
        assert fired == ["a", "b", "c"]
        assert clock.now_us == 30
        assert events.fired == 3

    def test_same_timestamp_fires_in_registration_order(self):
        # The load-bearing determinism property: ties break by seq, never
        # by heap-internal order.
        clock, events, sink, fired = make()
        for tag in range(8):
            events.push(50, sink, tag)
        events.run_until(50)
        assert fired == list(range(8))

    def test_same_timestamp_across_devices_fires_in_submission_order(self):
        # seq is global across the scheduler's devices: interleaved
        # submissions to two devices that complete at one timestamp ack
        # in the order the host issued them, not grouped per device.
        clock = SimClock()
        events = EventScheduler(clock)
        plan = FaultPlan()
        __, first = queued_ssd(plan, clock, events, "first")
        __, second = queued_ssd(plan, clock, events, "second")
        plan.enable_trace()
        session = DeviceSession(0, 0)
        completions = []
        with issuing(session, first, second):
            for n in range(3):
                # A one-page TRIM and a FLUSH with nothing dirty are both
                # firmware-only commands of one whole microsecond.
                session.now_us = 0
                first.trim(n)
                completions.append(session.now_us)
                session.now_us = 0
                second.flush()
                completions.append(session.now_us)
        assert len(set(completions)) == 1   # genuinely the same timestamp
        events.run_until(completions[0])
        acks = [point for point in plan.trace
                if point in ("device.trim.ack", "device.flush.ack")]
        assert acks == ["device.trim.ack", "device.flush.ack"] * 3

    def test_identical_runs_fire_identically(self):
        # Two schedulers fed the same schedule produce the same firing
        # sequence — the property that makes benchmark runs reproducible.
        def one_run(seed):
            clock, events, sink, fired = make()
            rng = random.Random(seed)
            for i in range(200):
                events.push(rng.randrange(1000), sink, i)
            events.run_until(1000)
            return fired

        assert one_run(99) == one_run(99)

    def test_past_event_fires_without_rewinding_clock(self):
        clock, events, sink, fired = make()
        clock.advance(500)
        events.push(100, sink, "late")
        events.run_until(clock.now_us)
        assert fired == ["late"]
        assert clock.now_us == 500

    def test_run_until_stops_at_horizon(self):
        clock, events, sink, fired = make()
        events.push(10, sink, "in")
        events.push(99, sink, "out")
        events.run_until(50)
        assert fired == ["in"]
        assert clock.now_us == 10       # not the horizon: nothing happened there
        events.run_until(99)
        assert fired == ["in", "out"]

    def test_event_scheduled_by_callback_fires_in_same_run(self):
        clock, events, sink, fired = make()

        class Chaining:
            def _on_complete(self, ticket):
                events.push(20, sink, "chained")

        events.push(10, Chaining(), None)
        events.run_until(100)
        assert fired == ["chained"]


class TestCancellation:
    def test_discard_takes_only_the_callers_tickets(self):
        clock, events, sink, fired = make()
        other_fired = []
        other = Sink(other_fired)
        events.push(30, sink, "late")
        events.push(10, other, "theirs-1")
        events.push(20, sink, "early")
        events.push(20, sink, "early-2")
        events.push(40, other, "theirs-2")
        # Firing order, not push order.
        assert events.discard(sink) == ["early", "early-2", "late"]
        assert events.discard(sink) == []
        events.run_until(100)
        assert fired == []
        assert other_fired == ["theirs-1", "theirs-2"]

    def test_power_cycle_cancels_inflight_completions(self):
        # A crashed device's queued completions must not fire after
        # reboot: power_cycle takes them back from the scheduler.
        clock, ssd = queued_ssd()
        session = DeviceSession(0, 0)
        with issuing(session, ssd):
            for lpn in range(6):
                ssd.write(lpn, ("v", lpn))
        assert ssd.inflight == 6
        ssd.power_cycle()
        assert ssd.inflight == 0
        # Draining after the cycle fires nothing from the old timeline.
        fired_before = ssd.events.fired
        ssd.events.run_until(10**9)
        assert ssd.events.fired == fired_before


class TestRoundingConvention:
    def test_price_media_total_uses_the_same_rounding(self):
        # Serial-vs-event bit-identity depends on SimClock.advance and the
        # device's _price_media agreeing on int(round()) — Python's
        # round-half-to-even ("banker's") rounding.  Pin the convention on
        # the half-microsecond boundary where conventions differ.
        __, ssd = queued_ssd()
        for whole, rounded in zip(range(6), [0, 2, 2, 4, 4, 6]):
            dram_us, pieces = ssd._price_media(whole + 0.5, [])
            assert dram_us == rounded, whole + 0.5
            assert pieces == {}
            assert SimClock().advance(whole + 0.5) == rounded, whole + 0.5


class TestBatchedDrain:
    def test_same_timestamp_completions_drain_in_submission_order(self):
        # Two identical commands submitted at the same cursor complete at
        # the identical timestamp; the queue must deliver them in
        # (completion_us, seq) order — observable through the deferred-ack
        # journal: the *second* submission must be the last one acked.
        plan = FaultPlan()
        clock, ssd = queued_ssd(plan)
        plan.enable_trace()
        session = DeviceSession(0, 0)
        with issuing(session, ssd):
            ssd.trim(1)
            first_done = session.now_us
            session.now_us = 0          # same arrival for the second command
            ssd.trim(2)
        assert session.now_us == first_done   # genuinely the same timestamp
        ssd.events.run_until(first_done)
        acks = [point for point in plan.trace
                if point == "device.trim.ack"]
        assert acks == ["device.trim.ack", "device.trim.ack"]
        acked = plan.last_acked_op()
        assert acked is not None and acked.lpns == (2,)

    def test_power_cycle_cancels_queued_drain_event(self):
        # Nothing queued before a power cycle fires after it, and the
        # device queues and completes cleanly on the post-cycle timeline.
        clock, ssd = queued_ssd()
        session = DeviceSession(0, 0)
        with issuing(session, ssd):
            for lpn in range(3):
                ssd.write(lpn, ("v", lpn))
        ssd.power_cycle()
        fired_before = ssd.events.fired
        ssd.events.run_until(10**9)
        assert ssd.events.fired == fired_before
        ssd.write(7, ("post", 7))
        assert ssd.events.fired == fired_before + 1
        assert ssd.read(7) == ("post", 7)

    def test_completion_timeout_leaves_later_tickets_queued(self):
        # A completion that raises has already left the queue; the ones
        # behind it stay queued and the next run reaches them.
        plan = FaultPlan()
        clock, ssd = queued_ssd(plan)
        ssd.write(0, "src")
        plan.commands.arm(CommandTimeout("share", nth=1, after_apply=True))
        session = DeviceSession(0, clock.now_us)
        with issuing(session, ssd):
            ssd.share(8, 0)             # mapping-only: completes first
            ssd.write(1, "a")
            ssd.write(2, "b")
        with pytest.raises(CommandTimeoutError):
            ssd.drain()
        assert ssd.inflight == 2
        ssd.drain()
        assert ssd.inflight == 0
        assert plan.unacked_ops() == []
        assert plan.last_acked_op().lpns == (2,)
        assert ssd.read(8) == "src"     # applied: only the completion was lost

    def test_journal_power_failure_leaves_later_tickets_queued(self):
        plan = FaultPlan()
        clock, ssd = queued_ssd(plan)
        plan.arm(PowerFailAfter("device.write.ack", 2))
        session = DeviceSession(0, 0)
        with issuing(session, ssd):
            for lpn in range(3):
                ssd.write(lpn, ("v", lpn))
        with pytest.raises(PowerFailure):
            ssd.drain()
        assert plan.last_acked_op().lpns == (0,)
        assert ssd.inflight == 1        # the third write is still queued
        ssd.power_cycle()               # ... where the reboot finds it
        assert [op.lpns for op in plan.unacked_ops()] == [(1,), (2,)]


class TestValidation:
    def test_clock_reset_drops_device_queue_state(self):
        # The harness resets the clock between warm-up and measurement;
        # devices must not stay anchored to the old timeline.
        clock, ssd = queued_ssd()
        for lpn in range(4):
            ssd.write(lpn, ("v", lpn))
        session = DeviceSession(0, clock.now_us)
        with issuing(session, ssd):
            ssd.write(5, ("queued", 5))
        assert clock.now_us > 0 and ssd.inflight == 1
        clock.reset()
        assert ssd.inflight == 0
        assert ssd.ncq.inflight == 0
        assert ssd.channels.horizon_us() == 0
        fired_before = ssd.events.fired
        ssd.events.run_until(10**9)     # the queued completion is gone
        assert ssd.events.fired == fired_before
        before = clock.now_us
        ssd.write(9, ("post", 9))
        assert clock.now_us > before   # commands run on the new timeline
