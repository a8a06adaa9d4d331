"""The completion queue: one heap of in-flight device commands per clock.

Components never advance the shared :class:`SimClock` by the latency of
their own work; a device prices a command, pushes its ticket here under
its completion time, and the clock only moves when :meth:`run_until`
delivers that completion.  A synchronous command, which waits for its
own completion at once, goes through :meth:`submit_and_wait`: when
nothing queued is due at or before it, it fires in line — the same clock
move, ``fired`` count and ``_on_complete`` call, without a heap round
trip — and otherwise it is pushed and run like any other entry.  Two
properties are load-bearing:

* **Determinism** — entries fire in ``(completion_us, seq)`` order,
  where ``seq`` is the submission order across *every* device on the
  scheduler.  Two completions at one timestamp fire in the order the
  host issued them, whichever devices they are on, never in
  heap-internal or hash order — the global completion order the fault
  journal's ack boundary relies on.
* **Monotonicity** — delivering a completion moves the clock *up* to
  its timestamp and never back: a completion computed for a lagging
  closed-loop client (already in the clock's past) fires without
  rewinding time.

The queue holds no callbacks: an entry names the device and the ticket,
and firing it is ``device._on_complete(ticket)``.  The ticket is opaque
here: a device may queue ``None`` for a command whose completion has
nothing to deliver but the in-flight count.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, List, Tuple

from repro.sim.clock import SimClock


class EventScheduler:
    """Deterministic completion queue over a shared :class:`SimClock`.

    A single scheduler is shared by every device on a clock (the
    benchmark stacks register the data and log SSD on one scheduler; the
    cluster tier registers every shard's devices).
    """

    def __init__(self, clock: SimClock) -> None:
        self.clock = clock
        self._heap: List[Tuple[int, int, Any, Any]] = []
        self._seq = 0
        self.fired = 0

    def push(self, completion_us: int, device, ticket) -> None:
        """Queue ``ticket`` to complete on ``device`` at ``completion_us``
        (at or before the current time is allowed: it fires on the next
        run without moving the clock)."""
        self._seq += 1
        heappush(self._heap, (completion_us, self._seq, device, ticket))

    def run_until(self, time_us: int) -> None:
        """Deliver every completion due at or before ``time_us``.  The
        clock ends at the last one delivered (not at ``time_us``): time
        only materialises where something happened.

        An entry leaves the queue before its completion runs, so a
        completion that raises (a completion-phase command fault, a
        journal-delivered power failure) loses nothing: the rest stay
        queued for the next run."""
        heap = self._heap
        clock = self.clock
        while heap and heap[0][0] <= time_us:
            completion_us, __, device, ticket = heappop(heap)
            if completion_us > clock.now_us:
                clock.now_us = completion_us
            self.fired += 1
            device._on_complete(ticket)

    def submit_and_wait(self, completion_us: int, device, ticket) -> None:
        """:meth:`push` then :meth:`run_until` ``completion_us``: the
        synchronous issuer's wait for its own command.  When the queue
        holds nothing due at or before ``completion_us`` the entry would
        be the first and only one popped, so it fires in line instead —
        same clock, same ``fired`` count, same ``(completion, seq)``
        order, since every queued entry fires after it either way."""
        heap = self._heap
        if heap and heap[0][0] <= completion_us:
            self.push(completion_us, device, ticket)
            self.run_until(completion_us)
            return
        clock = self.clock
        if completion_us > clock.now_us:
            clock.now_us = completion_us
        self.fired += 1
        device._on_complete(ticket)

    def due(self, device) -> List[int]:
        """Completion times of ``device``'s queued tickets, ascending.
        A scan — for drains and backpressure waits, not the per-command
        path."""
        return sorted([entry[0] for entry in self._heap
                       if entry[2] is device])

    def discard(self, device) -> List[Any]:
        """Remove ``device``'s queued tickets and return them in firing
        order; its neighbours' entries stay.  Cold path: a power cycle
        abandons the tickets' operations, a clock reset drops them."""
        entries = sorted(self._heap)   # seq is unique: never compares devices
        # A sorted list is a valid heap.
        self._heap[:] = [entry for entry in entries if entry[2] is not device]
        return [entry[3] for entry in entries if entry[2] is device]
