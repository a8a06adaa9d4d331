"""Optional I/O trace capture.

A trace records every host command the device served, with its virtual
timestamp and the internal work (copybacks, erases) it triggered.  Tests
use traces to assert ordering properties; analysis examples use them to
plot jitter (the paper's "consistent IO performance with less performance
jitter" claim); the Chrome-trace exporter
(:mod:`repro.obs.chrometrace`) turns them into per-device timeline
lanes.

Since the unified telemetry subsystem (:mod:`repro.obs`) landed, the
device's primary instrumentation is span-based: each command emits a
``device.<kind>`` span carrying the same fields.  :class:`IoTrace`
remains the stable flat-event API; :meth:`IoTrace.from_span_records`
rebuilds one as a compatibility view over exported span records, so any
pre-existing trace analysis keeps working against JSONL artifacts.

Two retention modes handle long soak runs:

* ``keep="oldest"`` (default, the historical behaviour) — once full,
  new events are dropped and counted, preserving the run's head;
* ``keep="newest"`` — a preallocated ring buffer that overwrites the
  oldest slot, preserving the tail (what you want when the interesting
  jitter is at the end of a multi-hour soak).

Storage is a flat list of field tuples, written by the allocation-free
:meth:`IoTrace.record_fields` hot path; :class:`TraceEvent` objects are
materialised lazily on read.  That keeps per-command trace cost at one
tuple pack + one list store.

:class:`IntervalTrace` is the channel-side companion: bounded capture of
``(channel, busy_start_us, busy_end_us)`` intervals, feeding the
per-channel lanes of the exported timeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

KEEP_MODES = ("oldest", "newest")


@dataclass(frozen=True)
class TraceEvent:
    """One host command as the device served it.

    ``arrival_us``/``wait_us`` (added with the Chrome-trace exporter)
    place the command on a queueing timeline: arrival is when the host
    submitted it, ``wait_us`` is the admission delay spent behind other
    commands before service started.  Both default to 0 for events
    recorded by older call sites.
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


def _fields_of(event: TraceEvent) -> Tuple:
    return (event.timestamp_us, event.kind, event.lpn, event.count,
            event.latency_us, event.gc_events, event.copyback_pages,
            event.arrival_us, event.wait_us)


def trace_event_from_span(record: Dict[str, Any]) -> TraceEvent:
    """Convert one exported ``device.*`` span record into a TraceEvent."""
    attrs = record.get("attrs", {})
    return TraceEvent(
        timestamp_us=record["end_us"],
        kind=attrs.get("kind", record["name"].rsplit(".", 1)[-1]),
        lpn=attrs.get("lpn", 0),
        count=attrs.get("count", 0),
        latency_us=attrs.get("latency_us", record["duration_us"]),
        gc_events=attrs.get("gc_events", 0),
        copyback_pages=attrs.get("copyback_pages", 0),
        arrival_us=attrs.get("arrival_us", 0),
        wait_us=attrs.get("wait_us", 0.0),
    )


class IoTrace:
    """Bounded in-memory trace.  Disabled (capacity 0) by default in the
    device so steady-state benchmarks pay nothing for it.

    ``keep="newest"`` preallocates its slot list once and then
    overwrites in place — recording never allocates beyond the field
    tuple itself, regardless of how far past capacity the run goes.
    """

    def __init__(self, capacity: int = 1_000_000,
                 keep: str = "oldest") -> None:
        if capacity < 0:
            raise ValueError(f"capacity must be non-negative: {capacity}")
        if keep not in KEEP_MODES:
            raise ValueError(
                f"keep must be one of {KEEP_MODES}, got {keep!r}")
        # Plain attribute (fixed at construction): the device tests it
        # once per completion.
        self.capacity = capacity
        self._keep = keep
        self._slots: List[Optional[Tuple]] = []
        self._head = 0          # ring write cursor (keep="newest" only)
        self._count = 0         # live records in _slots
        self.dropped = 0        # events not retained (either mode)

    @property
    def keep(self) -> str:
        return self._keep

    # ------------------------------------------------------------ recording

    def record_fields(self, timestamp_us: int, kind: str, lpn: int,
                      count: int, latency_us: float, gc_events: int = 0,
                      copyback_pages: int = 0, arrival_us: int = 0,
                      wait_us: float = 0.0) -> None:
        """Hot-path record: packs one field tuple straight into the ring,
        no :class:`TraceEvent` allocation."""
        self._store((timestamp_us, kind, lpn, count, latency_us, gc_events,
                     copyback_pages, arrival_us, wait_us))

    def record(self, event: TraceEvent) -> None:
        """Compatibility record for call sites holding a TraceEvent."""
        self._store(_fields_of(event))

    def _store(self, fields: Tuple) -> None:
        capacity = self.capacity
        if self._count < capacity:
            self._slots.append(fields)
            self._count += 1
            return
        # Full (or capacity 0): one event is lost either way.
        self.dropped += 1
        if self._keep == "oldest" or not capacity:
            return
        self._slots[self._head] = fields
        self._head += 1
        if self._head == capacity:
            self._head = 0

    # -------------------------------------------------------------- reading

    def _ordered_fields(self) -> List[Tuple]:
        if self._keep == "newest" and self.dropped and self.capacity:
            # Ring has wrapped: oldest retained record sits at _head.
            return self._slots[self._head:] + self._slots[:self._head]
        return list(self._slots)

    def snapshot(self) -> Dict[str, int]:
        """Machine-readable trace health: how much was kept vs dropped."""
        return {
            "capacity": self.capacity,
            "recorded": self._count,
            "dropped": self.dropped,
            "keep": self._keep,  # type: ignore[dict-item]
        }

    @classmethod
    def from_span_records(cls, records: Iterable[Dict[str, Any]],
                          capacity: int = 1_000_000,
                          keep: str = "oldest") -> "IoTrace":
        """Compatibility view: rebuild a flat trace from exported span
        records (e.g. loaded from a JSONL artifact), using only the
        device-command spans."""
        trace = cls(capacity, keep)
        for record in records:
            if record.get("type") == "span" and \
                    record.get("name", "").startswith("device."):
                trace.record(trace_event_from_span(record))
        return trace

    def __len__(self) -> int:
        return self._count

    def __iter__(self) -> Iterator[TraceEvent]:
        for fields in self._ordered_fields():
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

    def clear(self) -> None:
        self._slots.clear()
        self._head = 0
        self._count = 0
        self.dropped = 0


class IntervalTrace:
    """Bounded capture of per-channel busy intervals.

    Each record is ``(channel, start_us, end_us)`` — the window one
    flash command occupied its channel/way, as returned by
    :meth:`repro.flash.timing.ChannelSet.acquire`.  Retention is always
    keep-newest (the exporter wants the run's tail); like
    :class:`IoTrace` the ring is preallocated on the fly and overwritten
    in place.
    """

    def __init__(self, capacity: int = 0) -> None:
        if capacity < 0:
            raise ValueError(f"capacity must be non-negative: {capacity}")
        self.capacity = capacity   # plain attribute, fixed at construction
        self._slots: List[Optional[Tuple[int, int, int]]] = []
        self._head = 0
        self._count = 0
        self.dropped = 0

    def record(self, channel: int, start_us: int, end_us: int) -> None:
        capacity = self.capacity
        if self._count < capacity:
            self._slots.append((channel, start_us, end_us))
            self._count += 1
            return
        self.dropped += 1
        if not capacity:
            return
        self._slots[self._head] = (channel, start_us, end_us)
        self._head += 1
        if self._head == capacity:
            self._head = 0

    def intervals(self, channel: Optional[int] = None
                  ) -> List[Tuple[int, int, int]]:
        if self.dropped and self.capacity:
            ordered = self._slots[self._head:] + self._slots[:self._head]
        else:
            ordered = list(self._slots)
        if channel is None:
            return ordered  # type: ignore[return-value]
        return [iv for iv in ordered if iv[0] == channel]  # type: ignore

    def busy_us(self, channel: Optional[int] = None) -> int:
        """Total busy time across retained intervals (per channel or
        overall)."""
        return sum(end - start for __, start, end in self.intervals(channel))

    def channels(self) -> List[int]:
        return sorted({iv[0] for iv in self.intervals()})

    def snapshot(self) -> Dict[str, int]:
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
