"""Native command queue and host submission sessions.

The event-driven device admits commands through a bounded
:class:`NativeCommandQueue` (NCQ-style): a command *arrives* when the
host issues it, is *admitted* once a queue slot is free, occupies its
NAND channels after a front DRAM/firmware phase, and *completes* when
the last channel piece finishes.  At ``depth=1`` admission fully
serialises commands, which is exactly the old caller-advances-the-clock
model — the default everywhere, so existing results are reproduced
bit-for-bit.

A :class:`DeviceSession` is one closed-loop submission context (a host
thread / benchmark client).  It carries a virtual *cursor*: the time at
which its next command arrives.  Attaching a session to a device turns
the synchronous command methods into submissions — they queue the
command, advance the session cursor to the command's completion time
and return without blocking the simulated clock; the workload driver
``poll()``s completions and ``drain()``s at the end.  One session may
be attached to several devices (data + log SSD) so a client's
cross-device command chain stays ordered.
"""

from __future__ import annotations

import heapq
from typing import Any, List, Optional, Tuple


class CommandTicket:
    """One in-flight device command: timing plus completion bookkeeping.

    Everything completion needs is captured at submission so
    ``Ssd._on_complete`` is self-contained: the priced latency (float, for
    the latency histograms), its integer service time, arrival and
    completion instants (their difference less the service time is the
    queue wait), the deferred ack-journal record, and whether the
    command was issued under a recording span (``recorded``: only those
    commands land in the latency and queue-wait histograms, so they hold
    the same commands as the trace).  A command with none of these to
    deliver is queued without a ticket.
    """

    __slots__ = ("kind", "lpn", "count", "latency_us", "service_us",
                 "arrival_us", "completion_us", "gc_events",
                 "copyback_pages", "op_kind", "op_record", "gate_kind",
                 "gate_lpns", "recorded")

    def __init__(self, kind: str, lpn: int, count: int, latency_us: float,
                 service_us: int, arrival_us: int, completion_us: int,
                 gc_events: int = 0, copyback_pages: int = 0,
                 op_kind: Optional[str] = None, op_record: Any = None,
                 gate_kind: Optional[str] = None,
                 gate_lpns: Optional[Tuple[int, ...]] = None,
                 recorded: bool = False) -> None:
        self.kind = kind
        self.lpn = lpn
        self.count = count
        self.latency_us = latency_us
        self.service_us = service_us
        self.arrival_us = arrival_us
        self.completion_us = completion_us
        self.gc_events = gc_events
        self.copyback_pages = copyback_pages
        self.op_kind = op_kind
        self.op_record = op_record
        self.gate_kind = gate_kind
        self.gate_lpns = gate_lpns
        self.recorded = recorded

    def __repr__(self) -> str:
        return (f"CommandTicket({self.kind!r}, lpn={self.lpn}, "
                f"arrival={self.arrival_us}, "
                f"completion={self.completion_us})")


class NativeCommandQueue:
    """Bounded command admission: at most ``depth`` commands between
    admission and completion.

    The queue tracks outstanding completion times in a heap.  Admitting
    a command first retires every completion at or before its arrival;
    if the queue is still full, the command waits for the earliest
    outstanding completion — FIFO admission against a bounded tag set,
    the shape of SATA/NVMe native command queueing.  ``depth=1``
    degenerates to a single server: each command starts when the
    previous one completes, reproducing the serial device model.
    """

    __slots__ = ("depth", "_completions")

    def __init__(self, depth: int = 1) -> None:
        if depth < 1:
            raise ValueError(f"queue depth must be >= 1: {depth}")
        self.depth = depth
        self._completions: List[int] = []

    def admit(self, arrival_us: int) -> int:
        """Admit a command arriving at ``arrival_us``; returns the time
        its queue slot frees (= earliest possible service start).

        Timestamps are integer microseconds throughout the simulator, so
        no defensive conversion here — this runs once per command."""
        heap = self._completions
        while heap and heap[0] <= arrival_us:
            heapq.heappop(heap)
        admit = arrival_us
        while len(heap) >= self.depth:
            freed = heapq.heappop(heap)
            if freed > admit:
                admit = freed
        return admit

    def commit(self, completion_us: int) -> None:
        """Record an admitted command's completion time."""
        heapq.heappush(self._completions, completion_us)

    @property
    def inflight(self) -> int:
        """Outstanding commands not yet retired by an admission."""
        return len(self._completions)

    def reset(self) -> None:
        """Forget all outstanding commands (power cycle)."""
        self._completions = []


class DeviceSession:
    """One closed-loop submission context (a host thread).

    ``now_us`` is the session cursor: when the session is attached to a
    device, each command arrives at the cursor and the cursor jumps to
    the command's completion — so a client's commands chain in order
    while other clients' commands overlap with them in device time.
    """

    __slots__ = ("client", "now_us")

    def __init__(self, client: int = 0, now_us: int = 0) -> None:
        self.client = client
        self.now_us = int(now_us)

    def __repr__(self) -> str:
        return f"DeviceSession(client={self.client}, now_us={self.now_us})"


class issuing:
    """Attach ``session`` to every device for the duration of one
    operation::

        with issuing(session, data_ssd, log_ssd):
            engine.do_one_op()

    A plain class-based context manager (not ``@contextmanager``): the
    workload drivers enter it once per operation, and the generator
    machinery costs roughly 3x a slotted instance on that path.
    """

    __slots__ = ("session", "devices")

    def __init__(self, session: DeviceSession, *devices) -> None:
        self.session = session
        self.devices = devices

    def __enter__(self) -> DeviceSession:
        for device in self.devices:
            device.attach_session(self.session)
        return self.session

    def __exit__(self, exc_type, exc, tb) -> None:
        for device in self.devices:
            device.detach_session()
