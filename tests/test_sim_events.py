"""Completion queue: (completion, seq) order, clock motion, discard, and
what a raising completion leaves behind; the synchronous issuer's
in-line completion against the push-and-run it replaces, and the
ticket-less entries a passive command leaves in the queue."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CommandTimeoutError, PowerFailure
from repro.flash.geometry import FlashGeometry
from repro.flash.timing import FAST_TIMING
from repro.ftl.config import FtlConfig
from repro.sim.clock import SimClock
from repro.sim.events import EventScheduler
from repro.sim.faults import (
    NO_FAULTS, CommandTimeout, FaultPlan, PowerFailAfter)
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

    def test_submit_and_wait_fires_in_line_on_an_empty_queue(self):
        clock, events, sink, fired = make()
        events.submit_and_wait(40, sink, "sync")
        assert fired == ["sync"]
        assert clock.now_us == 40
        assert events.fired == 1
        assert events.due(sink) == []

    def test_submit_and_wait_runs_what_is_due_first(self):
        # A queued completion due at or before the synchronous one fires
        # first — at an equal timestamp too, having been submitted
        # earlier; a later one stays queued.
        clock, events, sink, fired = make()
        events.push(20, sink, "earlier")
        events.push(30, sink, "tie")
        events.push(31, sink, "later")
        events.submit_and_wait(30, sink, "sync")
        assert fired == ["earlier", "tie", "sync"]
        assert clock.now_us == 30
        assert events.fired == 3
        assert events.due(sink) == [31]

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


def mixed_device(clock, events, name, plan, queue_depth, trace):
    ssd = Ssd(clock, SsdConfig(
        geometry=FlashGeometry(page_size=4096, pages_per_block=16,
                               block_count=32),
        timing=FAST_TIMING, ftl=FtlConfig(map_block_count=4),
        queue_depth=queue_depth, trace_capacity=trace),
        faults=plan, name=name, events=events)
    for lpn in range(16):
        ssd.write(lpn, (name, lpn))
    return ssd


def run_mixed(schedule, journalled, sync_trace, reference):
    """A synchronous and a session-driven device on one scheduler, fed
    ``schedule``; returns every completion as it fired (device, clock,
    LPN when the entry carries a ticket), the ``fired`` count and the
    final clock.  ``reference`` swaps the in-line wait for the
    push + run_until it replaces."""
    clock = SimClock()
    events = EventScheduler(clock)
    if reference:
        def push_and_run(completion_us, device, ticket):
            events.push(completion_us, device, ticket)
            events.run_until(completion_us)
        events.submit_and_wait = push_and_run
    plan = FaultPlan() if journalled else NO_FAULTS
    sync = mixed_device(clock, events, "sync", plan, 1,
                        8 if sync_trace else 0)
    queued = mixed_device(clock, events, "queued", plan, 4, 0)
    log = []
    for ssd in (sync, queued):
        def spy(ticket, ssd=ssd, complete=ssd._on_complete):
            log.append((ssd.name, clock.now_us,
                        None if ticket is None else ticket.lpn))
            complete(ticket)
        ssd._on_complete = spy
    session = DeviceSession(1, 0)
    for index, (op, lpn, offset) in enumerate(schedule):
        if op == "sync_read":
            sync.read(lpn)
        elif op == "sync_write":
            sync.write(lpn, ("w", index))
        elif op == "sync_share":
            if offset != lpn:
                sync.share(lpn, offset)
        elif op == "poll":
            events.run_until(clock.now_us + offset)
        else:
            session.now_us = clock.now_us + offset
            with issuing(session, queued):
                if op == "queued_read":
                    queued.read(lpn)
                else:
                    queued.write(lpn, ("q", index))
    queued.drain()
    assert sync.inflight == queued.inflight == 0
    return log, events.fired, clock.now_us


class TestSynchronousInLineCompletion:
    @settings(max_examples=150, deadline=None)
    @given(schedule=st.lists(st.tuples(
        st.sampled_from(["sync_read", "sync_write", "sync_share",
                         "queued_read", "queued_write", "poll"]),
        st.integers(0, 15), st.integers(0, 15)), max_size=40),
        journalled=st.booleans(), sync_trace=st.booleans())
    def test_matches_push_and_run_until(self, schedule, journalled,
                                        sync_trace):
        # Offsets of 0-15 µs against 4 µs reads and 13 µs writes put
        # queued completions on the very timestamps synchronous ones
        # wait for: the in-line path must fire the same completions in
        # the same order, with the same count and clock.
        assert (run_mixed(schedule, journalled, sync_trace, False)
                == run_mixed(schedule, journalled, sync_trace, True))

    def test_power_cycle_accepts_ticketless_entries(self):
        # Unjournalled commands under a session leave ticket-less
        # entries; a power cycle takes them back with the journalled
        # ones and abandons exactly the latter.
        plan = FaultPlan()
        clock, ssd = queued_ssd(plan)
        ssd.write(9, "old")
        session = DeviceSession(0, clock.now_us)
        with issuing(session, ssd):
            ssd.write(0, "a")
            ssd.write_txn(ssd.begin_txn(), 9, "staged")   # no ack journal
            ssd.write(1, "b")
        assert ssd.inflight == 3
        ssd.power_cycle()
        assert ssd.inflight == 0
        assert [op.lpns for op in plan.unacked_ops()] == [(0,), (1,)]
        fired_before = ssd.events.fired
        ssd.events.run_until(10**9)
        assert ssd.events.fired == fired_before
        assert ssd.read(9) == "old"

    def test_power_cycle_of_a_passive_session_device(self):
        clock = SimClock()
        ssd = mixed_device(clock, EventScheduler(clock), "passive",
                           NO_FAULTS, 4, 0)
        session = DeviceSession(0, clock.now_us)
        with issuing(session, ssd):
            for lpn in range(4):
                ssd.write(lpn, ("v", lpn))
        assert ssd.inflight == 4
        ssd.power_cycle()
        assert ssd.inflight == 0

    def test_journalled_sync_command_is_queued_before_its_ack(self):
        # Under a real plan the completion goes through the queue, and
        # a power failure at its ack leaves it retired and unacked.
        plan = FaultPlan()
        clock, ssd = queued_ssd(plan)
        events = ssd.events
        pushed = []
        push = events.push

        def spy(completion_us, device, ticket):
            pushed.append((completion_us, device is ssd, ticket is not None))
            push(completion_us, device, ticket)
        events.push = spy
        plan.arm(PowerFailAfter("device.write.ack"))
        with pytest.raises(PowerFailure):
            ssd.write(3, "v")
        assert pushed == [(clock.now_us, True, True)]
        assert ssd.inflight == 0
        assert [op.lpns for op in plan.unacked_ops()] == [(3,)]

    def test_power_cut_inside_the_ack_scope_finds_the_command_queued(self):
        plan = FaultPlan()
        clock, ssd = queued_ssd(plan)
        issue = ssd._issue

        def issue_then_cut(*args, **kwargs):
            issue(*args, **kwargs)
            raise PowerFailure("power cut after submission")
        ssd._issue = issue_then_cut
        with pytest.raises(PowerFailure):
            ssd.write(4, "v")
        del ssd._issue
        assert ssd.inflight == 1
        assert len(ssd.events.due(ssd)) == 1
        ssd.power_cycle()
        assert ssd.inflight == 0
        assert ssd.events.due(ssd) == []
        assert [op.lpns for op in plan.unacked_ops()] == [(4,)]


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
        # journal: the *second* submission must be the last one acked,
        # so a power cut at the second ack leaves it ambiguous.
        plan = FaultPlan()
        clock, ssd = queued_ssd(plan)
        plan.enable_trace()
        plan.arm(PowerFailAfter("device.trim.ack", 2))
        session = DeviceSession(0, 0)
        with issuing(session, ssd):
            ssd.trim(1)
            first_done = session.now_us
            session.now_us = 0          # same arrival for the second command
            ssd.trim(2)
        assert session.now_us == first_done   # genuinely the same timestamp
        with pytest.raises(PowerFailure):
            ssd.events.run_until(first_done)
        acks = [point for point in plan.trace
                if point == "device.trim.ack"]
        assert acks == ["device.trim.ack", "device.trim.ack"]
        [unacked] = plan.unacked_ops()
        assert unacked.lpns == (2,)

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
        plan.enable_trace()
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
        # Both writes behind the lost completion acked; the share never did.
        assert [point for point in plan.trace if point.startswith(
            "device.")] == ["device.write.ack", "device.write.ack"]
        assert ssd.read(8) == "src"     # applied: only the completion was lost

    def test_journal_power_failure_leaves_later_tickets_queued(self):
        plan = FaultPlan()
        clock, ssd = queued_ssd(plan)
        plan.enable_trace()
        plan.arm(PowerFailAfter("device.write.ack", 2))
        session = DeviceSession(0, 0)
        with issuing(session, ssd):
            for lpn in range(3):
                ssd.write(lpn, ("v", lpn))
        with pytest.raises(PowerFailure):
            ssd.drain()
        # The first write acked; the cut came at the second's ack.
        assert [point for point in plan.trace if point.startswith(
            "device.")] == ["device.write.ack", "device.write.ack"]
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
        assert max(ssd.channels._free_us) == 0
        fired_before = ssd.events.fired
        ssd.events.run_until(10**9)     # the queued completion is gone
        assert ssd.events.fired == fired_before
        before = clock.now_us
        ssd.write(9, ("post", 9))
        assert clock.now_us > before   # commands run on the new timeline
