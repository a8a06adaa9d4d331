"""The telemetry facade wired through the stack.

One :class:`Telemetry` object is shared by every layer of a simulated
stack (device, FTL, filesystem, engines, benchmark driver).  It bundles

* a :class:`~repro.obs.registry.MetricsRegistry` holding the stack's
  histograms and the collector rows components register over their own
  stats (:meth:`Telemetry.histogram`, :meth:`Telemetry.collect`),
* a :class:`~repro.obs.tracing.Tracer` whose span stack threads
  attribution across layers, and
* a sink receiving finished spans and periodic metric snapshots.

Construction order: the harness creates the telemetry (with its sink and
snapshot interval), then builds the stack; the device binds the shared
clock via :meth:`bind_clock` and, as virtual time passes, compares each
completion against :attr:`Telemetry.snapshot_due_us` — the periodic
snapshotter costs a call only when a snapshot is due.

``NULL_TELEMETRY`` is the ``mode="off"`` instance every component
defaults to.  It registers nothing, keeps no clock and hands out
``None`` for a histogram handle: every ``record`` site sits behind the
tracer's ``recording`` flag or ``telemetry.enabled`` (False forever
here), so a stack built without telemetry makes no call into this
package per operation — and a site that forgot its guard fails on the
``None`` instead of silently paying for a null object.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Iterable, Optional

from repro.obs.registry import BoundedHistogram, MetricsRegistry, Row
from repro.obs.sinks import NULL_SINK, NullSink
from repro.obs.tracing import Tracer
from repro.sim.clock import SimClock

#: Valid values of the ``mode`` argument.
OBS_MODES = ("off", "sampled", "full")

#: 1-in-N root spans sampled mode traces.
SAMPLE_EVERY = 64


class Telemetry:
    """Live telemetry: metrics + tracing + sink + periodic snapshots.

    ``mode`` selects the observability cost tier (default ``"full"``):

    * ``"full"`` — every event recorded, every span traced.
    * ``"sampled"`` — 1-in-N root spans are traced with their whole
      subtree (the tracer's root decision, :attr:`Tracer.recording`),
      and the per-command histograms — device latency and queue wait,
      FTL SHARE batch shape, map-log records per commit — record
      exactly the commands of those trees, so the trace and the
      histograms describe the same sample.
      Counters and gauges are exact in every mode, because they are read
      from their owners at snapshot time, not recorded per event.  N is
      :data:`SAMPLE_EVERY`, 64.
    * ``"off"`` — nothing registers (:meth:`collect` is a no-op,
      :meth:`histogram` returns ``None``), no clock is kept, the tracer
      is disabled and :meth:`resume` stays off, so snapshots are empty.
    """

    def __init__(self, sink: Optional[Any] = None,
                 snapshot_interval_us: int = 0,
                 mode: str = "full") -> None:
        if snapshot_interval_us < 0:
            raise ValueError(
                f"snapshot interval must be >= 0: {snapshot_interval_us}")
        if mode not in OBS_MODES:
            raise ValueError(f"mode must be one of {OBS_MODES}, got {mode!r}")
        self.mode = mode
        self.sink = sink if sink is not None else NullSink()
        self.metrics = MetricsRegistry()
        if mode == "sampled":
            self.tracer = Tracer(self.sink, sample_every=SAMPLE_EVERY)
            self.sample_every = SAMPLE_EVERY
        else:
            self.tracer = Tracer(self.sink)
            self.sample_every = 1 if mode == "full" else 0
        self.enabled = mode != "off"
        self.tracer.enabled = self.enabled
        self.snapshot_interval_us = snapshot_interval_us
        self._last_snapshot_us = 0
        self._clock: Optional[SimClock] = None
        self._reschedule()

    # ----------------------------------------------------------- lifecycle

    def bind_clock(self, clock: SimClock) -> None:
        """Attach the stack's virtual clock (idempotent; the first device
        built does this).  Off telemetry keeps none: the shared
        :data:`NULL_TELEMETRY` must not pin any stack's clock — or,
        through its reset hooks, the devices on it."""
        if self.mode != "off":
            self._clock = clock
            self.tracer.bind_clock(clock)

    def collect(self, scope: str, rows: Iterable[Row], owner: Any) -> None:
        """Register a component's collector table over ``owner`` (see
        :meth:`MetricsRegistry.collect`); nothing registers when off."""
        if self.mode != "off":
            self.metrics.collect(scope, rows, owner)

    def histogram(self, name: str) -> Optional[BoundedHistogram]:
        """A histogram handle, resolved once by the recording component
        — ``None`` when off, where neither ``enabled`` nor the tracer's
        ``recording`` ever lets a site use it."""
        if self.mode == "off":
            return None
        return self.metrics.histogram(name)

    def pause(self) -> None:
        """Stop emitting spans, periodic snapshots and histogram samples
        (load/warm-up phases).  Counters and gauges are their owners'
        own numbers and keep moving in every layer; call
        :meth:`reset_measurement` at the measurement boundary to start
        the interval they are reported over."""
        self.enabled = False
        self.tracer.enabled = False
        self._reschedule()

    def resume(self) -> None:
        if self.mode == "off":
            return
        self.enabled = True
        self.tracer.enabled = True
        self._reschedule()

    def reset_measurement(self) -> None:
        """Start a metrics interval (histograms empty, counters baseline)
        and restart the snapshot cadence — the telemetry side of
        ``Ssd.reset_measurement``."""
        self.metrics.reset()
        self._last_snapshot_us = self._clock.now_us if self._clock else 0
        self._reschedule()

    # ----------------------------------------------------------- snapshots

    def _reschedule(self) -> None:
        """Recompute :attr:`snapshot_due_us`, the virtual time the
        device's completion path compares against: one interval after
        the last snapshot, never while disabled or without a cadence."""
        self.snapshot_due_us = (
            self._last_snapshot_us + self.snapshot_interval_us
            if self.enabled and self.snapshot_interval_us else math.inf)

    def maybe_snapshot(self, now_us: int) -> bool:
        """Emit a metrics snapshot when at least one snapshot interval of
        virtual time has passed (``now_us >= snapshot_due_us``)."""
        if now_us < self.snapshot_due_us:
            return False
        self._last_snapshot_us = now_us
        self._reschedule()
        self.snapshot(now_us)
        return True

    def snapshot(self, now_us: Optional[int] = None) -> Dict[str, Any]:
        """Emit (and return) a metrics snapshot record."""
        if now_us is None:
            now_us = self._clock.now_us if self._clock else 0
        record = {"type": "metrics", "t_us": now_us,
                  "metrics": self.metrics.snapshot()}
        self.sink.emit(record)
        return record

    def close(self) -> Dict[str, Any]:
        """Final snapshot, then close the sink.  Returns the snapshot so
        callers can report without re-reading the artifact."""
        record = self.snapshot()
        self.sink.close()
        return record


#: The shared off instance every component defaults to.
NULL_TELEMETRY = Telemetry(NULL_SINK, mode="off")
