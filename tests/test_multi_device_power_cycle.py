"""Satellite: multiple devices on one EventScheduler must fail
independently — ``power_cycle()`` on one device discards only its own
in-flight tickets, leaving its neighbours' queued completions to fire
on schedule (the property the sharded tier's
single-shard kills depend on)."""

from repro.sim.clock import SimClock
from repro.sim.events import EventScheduler
from repro.ssd.device import Ssd
from repro.ssd.ncq import DeviceSession

from conftest import issuing, small_ssd_config


def make_two(clock):
    events = EventScheduler(clock)
    first = Ssd(clock, small_ssd_config(), name="first", events=events)
    second = Ssd(clock, small_ssd_config(), name="second", events=events)
    return events, first, second


def queue_writes(ssd, session, count, base_lpn=0):
    with issuing(session, ssd.clock):
        for n in range(count):
            ssd.write(base_lpn + n, (ssd.name, n))


def test_power_cycle_cancels_only_own_inflight(clock):
    events, first, second = make_two(clock)
    session_a = DeviceSession(client=0, now_us=clock.now_us)
    session_b = DeviceSession(client=1, now_us=clock.now_us)
    queue_writes(first, session_a, 4)
    queue_writes(second, session_b, 4)
    assert first.inflight and second.inflight

    first.power_cycle()

    # The victim's queue is gone; the neighbour's is untouched.
    assert not first.inflight
    assert second.inflight == 4
    second.drain()
    assert not second.inflight
    for n in range(4):
        assert second.read(n) == ("second", n)


def test_neighbour_completions_survive_the_cycle(clock):
    """Drain after the kill must complete exactly the survivor's work:
    the dead device's discarded tickets never fire."""
    events, first, second = make_two(clock)
    session_a = DeviceSession(client=0, now_us=clock.now_us)
    session_b = DeviceSession(client=1, now_us=clock.now_us)
    queue_writes(first, session_a, 3)
    queue_writes(second, session_b, 3)
    first.power_cycle()
    pages_queued = second.stats.host_write_pages
    first.drain()      # no-op: nothing in flight on the dead device
    second.drain()
    assert second.stats.host_write_pages == pages_queued == 3
    assert not second.inflight


def test_dead_device_recovers_while_neighbour_runs(clock):
    events, first, second = make_two(clock)
    for n in range(6):
        first.write(n, ("first", n))
    session_b = DeviceSession(client=1, now_us=clock.now_us)
    queue_writes(second, session_b, 4)

    first.power_cycle()    # recovery runs with second's work in flight

    assert second.inflight == 4
    for n in range(6):
        assert first.read(n) == ("first", n)    # recovered from media
    second.drain()
    for n in range(4):
        assert second.read(n) == ("second", n)
