"""Optional I/O trace capture.

A trace records every host command the device served, with its virtual
timestamp and the internal work (copybacks, erases) it triggered.  Tests
use traces to assert ordering properties; analysis examples use them to
plot jitter (the paper's "consistent IO performance with less performance
jitter" claim); the Chrome-trace exporter
(:mod:`repro.obs.chrometrace`) turns them into per-device timeline
lanes.

Both captures here are bounded rings that keep the newest entries: once
full, each new record overwrites the oldest slot and counts one
``dropped`` — the interesting jitter of a long soak is at its end, and
the exporter wants the run's tail.

:class:`IoTrace` stores a flat tuple of fields per command, written by
the allocation-free :meth:`IoTrace.record_fields` hot path;
:class:`TraceEvent` objects are materialised lazily on read.  That keeps
per-command trace cost at one tuple pack + one list store.

:class:`IntervalTrace` is the channel-side companion: bounded capture of
``(channel, busy_start_us, busy_end_us)`` intervals, feeding the
per-channel lanes of the exported timeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Tuple


@dataclass(frozen=True)
class TraceEvent:
    """One host command as the device served it.

    ``arrival_us``/``wait_us`` place the command on a queueing timeline:
    arrival is when the host submitted it, ``wait_us`` is the admission
    delay spent behind other commands before service started.
    """

    timestamp_us: int
    kind: str                  # "read" | "write" | "trim" | "share" | "flush"
    lpn: int
    count: int
    latency_us: float
    gc_events: int = 0
    copyback_pages: int = 0
    arrival_us: int = 0
    wait_us: float = 0.0


class _Ring:
    """Keep-newest ring of ``capacity`` records.

    The slot list grows to ``capacity`` and is then overwritten in place
    — recording never allocates beyond the record itself, however far
    past capacity the run goes.  ``capacity`` 0 keeps nothing and counts
    every record as dropped."""

    def __init__(self, capacity: int) -> None:
        if capacity < 0:
            raise ValueError(f"capacity must be non-negative: {capacity}")
        # Plain attribute (fixed at construction): the device tests it
        # once per completion.
        self.capacity = capacity
        self._slots: List[Any] = []
        self._head = 0          # next slot to overwrite once full
        self._count = 0         # live records in _slots
        self.dropped = 0        # records overwritten or never kept

    def _store(self, record: Any) -> None:
        capacity = self.capacity
        if self._count < capacity:
            self._slots.append(record)
            self._count += 1
            return
        self.dropped += 1
        if not capacity:
            return
        self._slots[self._head] = record
        self._head += 1
        if self._head == capacity:
            self._head = 0

    def _ordered(self) -> List[Any]:
        if self.dropped and self.capacity:
            # The ring has wrapped: the oldest retained record is at _head.
            return self._slots[self._head:] + self._slots[:self._head]
        return list(self._slots)

    def snapshot(self) -> Dict[str, int]:
        """Machine-readable capture health: how much was kept vs dropped."""
        return {
            "capacity": self.capacity,
            "recorded": self._count,
            "dropped": self.dropped,
        }

    def __len__(self) -> int:
        return self._count

    def clear(self) -> None:
        self._slots.clear()
        self._head = 0
        self._count = 0
        self.dropped = 0


class IoTrace(_Ring):
    """Bounded in-memory command trace.  Disabled (capacity 0) by default
    in the device so steady-state benchmarks pay nothing for it."""

    def record_fields(self, timestamp_us: int, kind: str, lpn: int,
                      count: int, latency_us: float, gc_events: int = 0,
                      copyback_pages: int = 0, arrival_us: int = 0,
                      wait_us: float = 0.0) -> None:
        """Hot-path record: packs one field tuple straight into the ring,
        no :class:`TraceEvent` allocation."""
        self._store((timestamp_us, kind, lpn, count, latency_us, gc_events,
                     copyback_pages, arrival_us, wait_us))

    def __iter__(self) -> Iterator[TraceEvent]:
        for fields in self._ordered():
            yield TraceEvent(*fields)

    def events(self, kind: Optional[str] = None) -> List[TraceEvent]:
        if kind is None:
            return list(self)
        return [event for event in self if event.kind == kind]

    def max_latency_us(self, kind: Optional[str] = None) -> float:
        events = self.events(kind)
        if not events:
            raise ValueError("trace holds no matching events")
        return max(event.latency_us for event in events)


class IntervalTrace(_Ring):
    """Bounded capture of per-channel busy intervals.

    Each record is ``(channel, start_us, end_us)`` — the window one
    flash command occupied its channel, as returned by
    :meth:`repro.flash.timing.ChannelSet.acquire`.
    """

    def record(self, channel: int, start_us: int, end_us: int) -> None:
        self._store((channel, start_us, end_us))

    def intervals(self, channel: Optional[int] = None
                  ) -> List[Tuple[int, int, int]]:
        ordered = self._ordered()
        if channel is None:
            return ordered
        return [iv for iv in ordered if iv[0] == channel]

    def busy_us(self, channel: Optional[int] = None) -> int:
        """Total busy time across retained intervals (per channel or
        overall)."""
        return sum(end - start for __, start, end in self.intervals(channel))

    def channels(self) -> List[int]:
        return sorted({iv[0] for iv in self.intervals()})
