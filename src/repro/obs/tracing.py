"""Span tracing on the virtual clock.

A span brackets one unit of work with virtual-time start/end stamps and
free-form attributes.  Spans nest: the tracer keeps an open-span stack, so
a single host operation is attributed all the way down —

    innodb.txn -> innodb.flush_batch -> innodb.dwb.flush
      -> host.file.pwrite -> device.write -> ftl.gc

— and the GC pass that stalled a doublewrite batch is one parent-chain
walk away.  Finished spans are emitted to the telemetry sink as plain
dicts (``{"type": "span", ...}``), which is also the JSONL schema.

All timestamps come from the shared :class:`repro.sim.clock.SimClock`'s
current issuer (``clock.issuer.now_us``): the issuing client's session
cursor, or the clock itself under synchronous issue — the "now" the
device commands inside the span arrive at and complete on.  Each span
records the issuer's ``client`` (None for the clock).  The tracer never
reads wall-clock time, so traces are exactly reproducible.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.sim.clock import SimClock


class Span:
    """One traced operation.  Use as a context manager; attach data with
    :meth:`set`.  Attributes must be JSON-serialisable."""

    __slots__ = ("_tracer", "name", "span_id", "parent_id", "trace_id",
                 "start_us", "end_us", "attrs", "client")

    def __init__(self, tracer: "Tracer", name: str, span_id: int,
                 parent_id: Optional[int], trace_id: int, start_us: int,
                 attrs: Dict[str, Any], client: Optional[int]) -> None:
        self._tracer = tracer
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.trace_id = trace_id
        self.start_us = start_us
        self.client = client
        self.end_us: Optional[int] = None
        self.attrs = attrs

    def set(self, **attrs: Any) -> "Span":
        self.attrs.update(attrs)
        return self

    @property
    def duration_us(self) -> int:
        if self.end_us is None:
            raise ValueError(f"span {self.name!r} is still open")
        return self.end_us - self.start_us

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        self._tracer.finish(self)

    def __repr__(self) -> str:
        return (f"Span({self.name!r}, id={self.span_id}, "
                f"parent={self.parent_id}, start_us={self.start_us})")


class _NullSpan:
    """Shared do-nothing span returned while tracing is disabled."""

    __slots__ = ()
    name = ""
    span_id = 0
    parent_id = None
    trace_id = 0

    def set(self, **attrs: Any) -> "_NullSpan":
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


NULL_SPAN = _NullSpan()


class _SuppressedRoot:
    """Marker for a sampled-out *root* span.

    While it is open the tracer is not :attr:`~Tracer.recording`, so it
    hands NULL_SPAN to every child and guarded sites skip their span
    altogether — a skipped operation skips its whole subtree, and the
    emitted trace never contains orphaned children whose parent was
    dropped.  Closing it (``__exit__``) re-arms the tracer for the next
    root."""

    __slots__ = ("_tracer",)
    name = ""
    span_id = 0
    parent_id = None
    trace_id = 0

    def __init__(self, tracer: "Tracer") -> None:
        self._tracer = tracer

    def set(self, **attrs: Any) -> "_SuppressedRoot":
        return self

    def __enter__(self) -> "_SuppressedRoot":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._tracer.resume()


class Tracer:
    """Factory and stack for nested spans.

    The sink is any object with ``emit(record: dict)``; the clock is bound
    late (the harness builds the telemetry object before the stack's
    clock exists; until then spans are stamped 0).

    ``sample_every`` (1 = keep everything) implements sampled telemetry
    mode at *root-span* granularity: 1-in-N roots are traced in full, the
    other N-1 are suppressed together with their entire subtree.  Keeping
    whole trees (rather than sampling spans independently) preserves
    parent chains in the output, which the Chrome-trace exporter and the
    report's span tables both rely on.  This root decision is the only
    sampling decision in the stack.

    :attr:`recording` is the one flag hot sites test before opening a
    span or recording a per-command sample: a plain attribute, false
    while the tracer is disabled (``enabled = False``, which is what
    paused or off telemetry sets) and while a sampled-out root is open.
    :attr:`current` is a plain attribute too: the innermost open span,
    or the null span when none is open (a sampled-out root is not on
    the stack).
    """

    def __init__(self, sink: Any, sample_every: int = 1) -> None:
        self._sink = sink
        self._clock = SimClock()
        self._stack: List[Span] = []
        self.current: Any = NULL_SPAN
        self._next_id = 1
        self._enabled = True
        self.recording = True
        self.sample_every = sample_every
        self._root_seq = 0
        self._suppressing = False
        self._suppressed_root = _SuppressedRoot(self)

    @property
    def enabled(self) -> bool:
        return self._enabled

    @enabled.setter
    def enabled(self, value: bool) -> None:
        self._enabled = value
        self.recording = value and not self._suppressing

    def bind_clock(self, clock: SimClock) -> None:
        self._clock = clock

    @property
    def depth(self) -> int:
        return len(self._stack)

    def sample_out(self) -> bool:
        """The root decision for a hot root site, taken before it opens
        its span: True when the root about to open is sampled out — the
        tracer stops recording, so the site runs its work bare, and calls
        :meth:`resume` when the work ends — False when the site's
        :meth:`span` is kept (or is not a root), which then counts it.
        A sampled-out root costs these two calls instead of a
        :meth:`span` and its marker's ``__enter__`` / ``__exit__``, and
        the 1-in-N sequence is one, however the roots are opened."""
        if self._stack or not self._root_seq % self.sample_every:
            return False
        self._root_seq += 1
        self._suppressing = True
        self.recording = False
        return True

    def resume(self) -> None:
        """End a root :meth:`sample_out` sampled out: re-arm the tracer
        for the next root."""
        self._suppressing = False
        self.recording = self._enabled

    def span(self, name: str, **attrs: Any) -> Any:
        """Open a child of the current span (or a new root)."""
        if not self.recording:
            return NULL_SPAN
        if not self._stack and self.sample_every > 1:
            if self.sample_out():
                return self._suppressed_root
            self._root_seq += 1
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        issuer = self._clock.issuer
        span = Span(
            tracer=self,
            name=name,
            span_id=span_id,
            parent_id=parent.span_id if parent is not None else None,
            trace_id=parent.trace_id if parent is not None else span_id,
            start_us=issuer.now_us,
            attrs=attrs,
            client=issuer.client,
        )
        self._stack.append(span)
        self.current = span
        return span

    def finish(self, span: Span) -> None:
        """Close ``span`` and emit its record (the JSONL schema of a
        finished span).  Closing out of order also closes any younger
        spans still open, innermost first (defensive; normal use is
        strictly nested ``with`` blocks)."""
        stack = self._stack
        end_us = self._clock.issuer.now_us
        emit = self._sink.emit
        while True:
            if stack:
                top = stack[-1]
                del stack[-1]
            else:
                top = span
            top.end_us = end_us
            emit({
                "type": "span",
                "name": top.name,
                "trace_id": top.trace_id,
                "span_id": top.span_id,
                "parent_id": top.parent_id,
                "start_us": top.start_us,
                "end_us": end_us,
                "duration_us": end_us - top.start_us,
                "client": top.client,
                "attrs": top.attrs,
            })
            if top is span:
                break
        self.current = stack[-1] if stack else NULL_SPAN
