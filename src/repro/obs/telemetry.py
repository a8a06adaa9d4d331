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
clock via :meth:`bind_clock` and calls :meth:`maybe_snapshot` as virtual
time passes, which is what drives the periodic snapshotter.

``NULL_TELEMETRY`` is the always-disabled singleton every component
defaults to.  It registers nothing and hands out ``None`` for a
histogram handle: every ``record`` site sits behind ``telemetry.enabled``
(False forever here), so a stack built without telemetry makes no call
into this package per operation — and a site that forgot its guard fails
on the ``None`` instead of silently paying for a null object.
"""

from __future__ import annotations

import os
from typing import Any, Dict, Iterable, Optional

from repro.obs.registry import BoundedHistogram, MetricsRegistry, Row
from repro.obs.sinks import NULL_SINK, NullSink
from repro.obs.tracing import NULL_TRACER, Tracer
from repro.sim.clock import SimClock

#: Valid values of the REPRO_OBS environment variable / ``mode`` argument.
OBS_MODES = ("off", "sampled", "full")

#: Default 1-in-N rate for sampled mode (REPRO_OBS_SAMPLE overrides).
DEFAULT_SAMPLE_EVERY = 64


def obs_mode(default: str = "full") -> str:
    """Resolve the telemetry mode from ``REPRO_OBS`` (off|sampled|full)."""
    mode = os.environ.get("REPRO_OBS", default).strip().lower() or default
    if mode not in OBS_MODES:
        raise ValueError(
            f"REPRO_OBS must be one of {OBS_MODES}, got {mode!r}")
    return mode


def obs_sample_every(default: int = DEFAULT_SAMPLE_EVERY) -> int:
    """Resolve the sampled-mode 1-in-N rate from ``REPRO_OBS_SAMPLE``.

    A malformed value fails fast with an error naming the variable and
    what it accepts, instead of an anonymous ``int()`` traceback from
    deep inside telemetry setup."""
    raw = os.environ.get("REPRO_OBS_SAMPLE", "").strip()
    if not raw:
        return default
    try:
        every = int(raw)
    except ValueError:
        raise ValueError(
            f"REPRO_OBS_SAMPLE must be an integer >= 1 (the 1-in-N "
            f"sampling rate for REPRO_OBS=sampled), got {raw!r}") from None
    if every < 1:
        raise ValueError(
            f"REPRO_OBS_SAMPLE must be an integer >= 1 (the 1-in-N "
            f"sampling rate for REPRO_OBS=sampled), got {every}")
    return every


class Sampler:
    """Deterministic 1-in-N gate for hot-path recordings.

    ``hit()`` is True on the first call and then every ``every``-th call
    — counting, not randomness, so sampled runs are exactly reproducible.
    With ``every == 1`` it is always True (full mode).
    """

    __slots__ = ("every", "_countdown")

    def __init__(self, every: int = 1) -> None:
        if every < 1:
            raise ValueError(f"sampler period must be >= 1: {every}")
        self.every = every
        self._countdown = 1  # first event always hits

    def hit(self) -> bool:
        self._countdown -= 1
        if self._countdown:
            return False
        self._countdown = self.every
        return True

    def reset(self) -> None:
        self._countdown = 1


class _NeverSampler:
    """Shared always-miss gate used when telemetry is off entirely."""

    __slots__ = ()
    every = 0

    def hit(self) -> bool:
        return False

    def reset(self) -> None:
        pass


NEVER_SAMPLER = _NeverSampler()


class Telemetry:
    """Live telemetry: metrics + tracing + sink + periodic snapshots.

    ``mode`` selects the observability cost tier (default: the
    ``REPRO_OBS`` environment variable, falling back to ``"full"``):

    * ``"full"`` — every event recorded, every span traced (the
      behaviour of earlier PRs, bit-identical).
    * ``"sampled"`` — per-op histogram recordings pass a 1-in-N
      :class:`Sampler` gate and only 1-in-N root spans (with their whole
      subtree) are traced; counters and gauges are exact in every mode,
      because they are read from their owners at snapshot time, not
      recorded per event.  N defaults to ``REPRO_OBS_SAMPLE`` (64).
    * ``"off"`` — nothing registers (:meth:`collect` is a no-op,
      :meth:`histogram` returns ``None``), the tracer is disabled and
      :meth:`resume` stays off, so snapshots are empty.
    """

    def __init__(self, sink: Optional[Any] = None,
                 snapshot_interval_us: int = 0,
                 mode: Optional[str] = None,
                 sample_every: Optional[int] = None) -> None:
        if snapshot_interval_us < 0:
            raise ValueError(
                f"snapshot interval must be >= 0: {snapshot_interval_us}")
        if mode is None:
            mode = obs_mode()
        if mode not in OBS_MODES:
            raise ValueError(f"mode must be one of {OBS_MODES}, got {mode!r}")
        self.mode = mode
        self.sink = sink if sink is not None else NullSink()
        self.metrics = MetricsRegistry()
        if mode == "sampled":
            if sample_every is None:
                sample_every = obs_sample_every()
            self.sample_every = sample_every
            self.sampler: Any = Sampler(sample_every)
            self.tracer: Any = Tracer(self.sink, sample_every=sample_every)
            self.enabled = True
        elif mode == "off":
            self.sample_every = 0
            self.sampler = NEVER_SAMPLER
            self.tracer = Tracer(self.sink)
            self.tracer.enabled = False
            self.enabled = False
        else:  # full
            self.sample_every = 1
            self.sampler = Sampler(1)
            self.tracer = Tracer(self.sink)
            self.enabled = True
        self.snapshot_interval_us = snapshot_interval_us
        self._last_snapshot_us = 0
        self._clock: Optional[SimClock] = None

    # ----------------------------------------------------------- lifecycle

    def bind_clock(self, clock: SimClock) -> None:
        """Attach the stack's virtual clock (idempotent; the first device
        built does this)."""
        self._clock = clock
        self.tracer.bind_clock(clock)

    def collect(self, scope: str, rows: Iterable[Row], owner: Any) -> None:
        """Register a component's collector table over ``owner`` (see
        :meth:`MetricsRegistry.collect`); nothing registers when off."""
        if self.mode != "off":
            self.metrics.collect(scope, rows, owner)

    def histogram(self, name: str) -> Optional[BoundedHistogram]:
        """A histogram handle, resolved once by the recording component
        — ``None`` when off, where ``enabled`` never lets a site use it."""
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

    def resume(self) -> None:
        if self.mode == "off":
            return
        self.enabled = True
        self.tracer.enabled = True

    def reset_measurement(self) -> None:
        """Start a metrics interval (histograms empty, counters baseline)
        and restart the snapshot cadence — the telemetry side of
        ``Ssd.reset_measurement``."""
        self.metrics.reset()
        self._last_snapshot_us = self._clock.now_us if self._clock else 0

    # ----------------------------------------------------------- snapshots

    def maybe_snapshot(self, now_us: int) -> bool:
        """Emit a metrics snapshot when at least one snapshot interval of
        virtual time has passed.  Called from the device's command
        completion path; cheap when disabled or not yet due."""
        if (not self.enabled or not self.snapshot_interval_us
                or now_us - self._last_snapshot_us < self.snapshot_interval_us):
            return False
        self._last_snapshot_us = now_us
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


class _NullTelemetry:
    """The disabled singleton.  Everything is a no-op; ``enabled`` is
    False forever so guards can skip optional work."""

    __slots__ = ()
    enabled = False
    mode = "off"
    tracer = NULL_TRACER
    sink = NULL_SINK
    sampler = NEVER_SAMPLER
    sample_every = 0
    snapshot_interval_us = 0

    def bind_clock(self, clock: SimClock) -> None:
        pass

    def collect(self, scope: str, rows: Iterable[Row], owner: Any) -> None:
        pass

    def histogram(self, name: str) -> None:
        return None

    def pause(self) -> None:
        pass

    def resume(self) -> None:
        pass

    def reset_measurement(self) -> None:
        pass

    def maybe_snapshot(self, now_us: int) -> bool:
        return False

    def snapshot(self, now_us: Optional[int] = None) -> Dict[str, Any]:
        return {"type": "metrics", "t_us": now_us or 0, "metrics": {}}

    def close(self) -> Dict[str, Any]:
        return self.snapshot()


NULL_TELEMETRY = _NullTelemetry()
