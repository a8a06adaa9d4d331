"""Host-side resilience for vendor-unique device commands.

The paper assumes SHARE always succeeds; a production host cannot.  This
module is the layer between the engines and :mod:`repro.host.ioctl` that
makes the SHARE path survivable: a retry schedule (bounded attempts,
exponential backoff with deterministic jitter, per-command deadline —
all in virtual time, fixed by the module's constants), a
:class:`CircuitBreaker`
(closed→open→half-open, tripping on consecutive failures so a sick
device is not hammered), and a :class:`ShareGuard` facade the engines
call instead of the raw ioctl helpers.

Error contract:

* ``DeviceBusyError`` / ``CommandTimeoutError`` are **retryable**: the
  guard backs off (advancing the sim clock) and reissues.  Retrying
  SHARE is idempotent — remapping a dst LPN onto the same src physical
  page twice is a no-op — so the ambiguous applied-but-timed-out case
  is safe.
* Any other ``DeviceError`` (``CommandUnsupportedError``, media faults
  the firmware could not mask, FTL state errors) is **non-retryable**:
  the guard records the failure against the breaker and raises
  :class:`RetriesExhaustedError` immediately.
* When the breaker is open the guard raises :class:`CircuitOpenError`
  without touching the device.

Engines catch the single base type :class:`ResilienceError` and degrade
to their classic two-phase path (doublewrite, copy-compaction, rollback
journal, journal-copy checkpoint).  :class:`PowerFailure` is never
caught here — a crash is a crash.

Telemetry: shared counters ``resilience.retries`` /
``resilience.command_failures`` / ``resilience.breaker_trips`` /
``resilience.breaker_fast_fails`` / ``resilience.deadline_exceeded``,
plus per-engine ``resilience.fallbacks.<engine>`` counters and
``resilience.breaker_state.<engine>`` gauges (0=closed, 1=half-open,
2=open).  Because crash harnesses run with ``NULL_TELEMETRY``, the
guard also keeps a local :class:`GuardStats` the sweeps read directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Callable, List, Optional, Sequence, Tuple

from repro.errors import (CircuitOpenError, CommandTimeoutError,
                          DeviceBusyError, DeviceError, PowerFailure,
                          ResilienceError, RetriesExhaustedError)
from repro.host import ioctl as _ioctl
from repro.host.file import File
from repro.obs import COUNTER, GAUGE
from repro.sim.rng import make_rng

__all__ = [
    "CircuitBreaker",
    "ShareGuard",
    "GuardStats",
    "BREAKER_CLOSED",
    "BREAKER_HALF_OPEN",
    "BREAKER_OPEN",
    "RETRYABLE_ERRORS",
]

#: Errors worth a backoff-and-retry; everything else fails fast.
RETRYABLE_ERRORS = (DeviceBusyError, CommandTimeoutError)

BREAKER_CLOSED = "closed"
BREAKER_HALF_OPEN = "half-open"
BREAKER_OPEN = "open"

#: Gauge encoding of breaker states (monotone in severity).
_STATE_GAUGE = {BREAKER_CLOSED: 0, BREAKER_HALF_OPEN: 1, BREAKER_OPEN: 2}


#: The retry schedule, in virtual microseconds: backoff before retry
#: ``n`` is ``BASE_BACKOFF_US * BACKOFF_MULTIPLIER ** (n - 1)`` capped at
#: ``MAX_BACKOFF_US``, plus up to ``JITTER_FRACTION`` of itself drawn
#: from a private stream seeded with ``RETRY_SEED``
#: (:func:`repro.sim.rng.make_rng`), so a schedule is exactly
#: reproducible.  A call gives up after ``MAX_ATTEMPTS`` attempts or
#: when the next backoff would end past ``DEADLINE_US`` since its start.
MAX_ATTEMPTS = 4
BASE_BACKOFF_US = 200
BACKOFF_MULTIPLIER = 2.0
MAX_BACKOFF_US = 20_000
JITTER_FRACTION = 0.25
DEADLINE_US = 2_000_000
RETRY_SEED = 0x51C

#: The breaker: this many consecutive failures trip it open; it
#: half-opens after ``RECOVERY_TIMEOUT_US`` and admits
#: ``HALF_OPEN_PROBES`` probe commands.
FAILURE_THRESHOLD = 3
RECOVERY_TIMEOUT_US = 500_000
HALF_OPEN_PROBES = 1


def backoff_us(attempt: int, rng) -> int:
    """Backoff before retry number ``attempt`` (1-based)."""
    base = min(BASE_BACKOFF_US * BACKOFF_MULTIPLIER ** (attempt - 1),
               float(MAX_BACKOFF_US))
    return int(base + base * JITTER_FRACTION * rng.random())


class CircuitBreaker:
    """Consecutive-failure circuit breaker on the virtual clock.

    ``FAILURE_THRESHOLD`` consecutive failures trip CLOSED→OPEN; while
    OPEN, :meth:`allow` refuses until ``RECOVERY_TIMEOUT_US`` of virtual
    time has passed, then the breaker half-opens and admits
    ``HALF_OPEN_PROBES`` probe commands.  A probe success closes the
    breaker; a probe failure re-opens it (restarting the timeout).
    :meth:`force_open` latches the breaker open regardless of time —
    benchmarks use it to measure the pure-fallback path.  Every state
    change is announced to ``on_transition``.
    """

    def __init__(self, clock, on_transition: Callable[[str], None]) -> None:
        self.clock = clock
        self.on_transition = on_transition
        self.state = BREAKER_CLOSED
        self.trips = 0
        self._consecutive_failures = 0
        self._opened_at: Optional[int] = None
        self._probes_left = 0
        self._latched = False

    def _transition(self, state: str) -> None:
        if state == self.state:
            return
        self.state = state
        if state == BREAKER_OPEN:
            self.trips += 1
            self._opened_at = self.clock.now_us
        self.on_transition(state)

    def allow(self) -> bool:
        """May a command be attempted right now?  Half-opens an OPEN
        breaker once the recovery timeout has elapsed (consuming a probe
        slot per admitted command)."""
        if self._latched:
            return False
        if self.state == BREAKER_CLOSED:
            return True
        if self.state == BREAKER_OPEN:
            if (self.clock.elapsed_since(self._opened_at)
                    < RECOVERY_TIMEOUT_US):
                return False
            self._transition(BREAKER_HALF_OPEN)
            self._probes_left = HALF_OPEN_PROBES
        if self._probes_left <= 0:
            return False
        self._probes_left -= 1
        return True

    def record_success(self) -> None:
        self._consecutive_failures = 0
        if self.state != BREAKER_CLOSED:
            self._transition(BREAKER_CLOSED)

    def record_failure(self) -> None:
        if self.state == BREAKER_HALF_OPEN:
            self._transition(BREAKER_OPEN)
            return
        self._consecutive_failures += 1
        if (self.state == BREAKER_CLOSED
                and self._consecutive_failures >= FAILURE_THRESHOLD):
            self._transition(BREAKER_OPEN)

    def force_open(self) -> None:
        """Latch the breaker open (no time-based recovery) — used to
        force the pure-fallback path in benchmarks and tests."""
        self._latched = True
        self._transition(BREAKER_OPEN)

    def reset(self) -> None:
        """Unlatch and close the breaker.

        Always announces CLOSED through ``on_transition``, even when the
        breaker was already closed — the listeners of a promoted or
        recovered shard must hear it is healthy — and clears half-open
        probe accounting so a later trip starts clean."""
        self._latched = False
        self._consecutive_failures = 0
        self._probes_left = 0
        self._opened_at = None
        if self.state != BREAKER_CLOSED:
            self._transition(BREAKER_CLOSED)
        else:
            self.on_transition(BREAKER_CLOSED)


@dataclass
class GuardStats:
    """Local counters one :class:`ShareGuard` accumulates (readable even
    when telemetry is the NULL singleton, as in crash harnesses)."""

    calls: int = 0
    attempts: int = 0
    retries: int = 0
    failures: int = 0
    fast_fails: int = 0
    deadline_exceeded: int = 0
    fallbacks: int = 0
    backoff_us: int = field(default=0)
    #: Virtual time the breaker last entered an open episode (None until
    #: the first trip).  An episode spans open -> half-open -> open
    #: flapping; re-opens do not restart it.
    last_open_us: Optional[int] = None
    #: Total virtual time spent in open episodes that have since closed
    #: — failover latency is readable here without parsing span traces.
    open_duration_us: int = 0


def guard_rows(engine: str) -> tuple:
    """``resilience.*`` telemetry rows of one guard: the shared names sum
    over the stack's guards, ``fallbacks.<engine>`` and
    ``breaker_state.<engine>`` (0 closed / 1 half-open / 2 open) are its
    own."""
    return (
        ("retries", COUNTER, attrgetter("stats.retries")),
        ("command_failures", COUNTER, attrgetter("stats.failures")),
        ("breaker_trips", COUNTER, attrgetter("breaker.trips")),
        ("breaker_fast_fails", COUNTER, attrgetter("stats.fast_fails")),
        ("deadline_exceeded", COUNTER,
         attrgetter("stats.deadline_exceeded")),
        (f"fallbacks.{engine}", COUNTER, attrgetter("stats.fallbacks")),
        (f"breaker_state.{engine}", GAUGE,
         lambda guard: _STATE_GAUGE[guard.breaker.state]),
    )


class ShareGuard:
    """Resilient facade over the SHARE/atomic-write ioctl helpers.

    One guard per engine instance: it owns the retry RNG stream and a
    :class:`CircuitBreaker`, wraps any callable via :meth:`call`, and
    offers drop-in replacements for the three ioctl entry points.  On
    unrecoverable failure it raises a :class:`ResilienceError` subclass;
    the engine catches that one type, calls :meth:`record_fallback`, and
    serves the operation through its classic two-phase path.
    """

    def __init__(self, ssd, engine: str = "host") -> None:
        self.ssd = ssd
        self.clock = ssd.clock
        self.engine = engine
        self._rng = make_rng(RETRY_SEED)
        self.stats = GuardStats()
        self.breaker = CircuitBreaker(ssd.clock, self._observe)
        self._listeners: List[Callable[[str], None]] = []
        ssd.telemetry.collect("resilience", guard_rows(engine), self)
        self._open_since: Optional[int] = None

    def _observe(self, state: str) -> None:
        if state == BREAKER_OPEN and self._open_since is None:
            # Episode start; half-open flaps back to open do not restart
            # the clock, so open_duration_us measures trip-to-recovery,
            # i.e. failover latency.
            self._open_since = self.clock.now_us
            self.stats.last_open_us = self._open_since
        elif state == BREAKER_CLOSED and self._open_since is not None:
            self.stats.open_duration_us += self.clock.now_us - self._open_since
            self._open_since = None
        for listener in self._listeners:
            listener(state)

    # ------------------------------------------------------------- core

    def call(self, label: str, fn: Callable[..., object], *args):
        """Run ``fn(*args)`` under the retry policy and breaker.

        Returns ``fn``'s result.  Raises :class:`CircuitOpenError` when
        the breaker refuses the attempt, :class:`RetriesExhaustedError`
        when the command keeps failing (retryable errors past the
        attempt budget or deadline, or any non-retryable device error).
        """
        self.stats.calls += 1
        if not self.breaker.allow():
            self.stats.fast_fails += 1
            raise CircuitOpenError(
                f"{label}: circuit breaker is {self.breaker.state} "
                f"for engine {self.engine!r}")
        start_us = self.clock.now_us
        attempt = 0
        while True:
            attempt += 1
            self.stats.attempts += 1
            try:
                result = fn(*args)
            except PowerFailure:
                raise
            except RETRYABLE_ERRORS as exc:
                self.stats.failures += 1
                self.breaker.record_failure()
                if not self.breaker.allow():
                    raise RetriesExhaustedError(
                        f"{label}: breaker opened after {attempt} "
                        f"attempt(s): {exc}", attempts=attempt,
                        elapsed_us=self.clock.elapsed_since(start_us)
                    ) from exc
                if attempt >= MAX_ATTEMPTS:
                    raise RetriesExhaustedError(
                        f"{label}: {attempt} attempts failed, last: {exc}",
                        attempts=attempt,
                        elapsed_us=self.clock.elapsed_since(start_us)
                    ) from exc
                backoff = backoff_us(attempt, self._rng)
                elapsed = self.clock.elapsed_since(start_us)
                if elapsed + backoff > DEADLINE_US:
                    self.stats.deadline_exceeded += 1
                    raise RetriesExhaustedError(
                        f"{label}: deadline {DEADLINE_US}us exceeded "
                        f"after {attempt} attempt(s): {exc}",
                        attempts=attempt, elapsed_us=elapsed) from exc
                self.stats.retries += 1
                self.stats.backoff_us += backoff
                self.clock.advance(backoff)
            except DeviceError as exc:
                self.stats.failures += 1
                self.breaker.record_failure()
                raise RetriesExhaustedError(
                    f"{label}: non-retryable device error: {exc}",
                    attempts=attempt,
                    elapsed_us=self.clock.elapsed_since(start_us)) from exc
            else:
                self.breaker.record_success()
                return result

    def record_fallback(self) -> None:
        """Count one degradation to the engine's classic two-phase path."""
        self.stats.fallbacks += 1

    def add_listener(self, listener: Callable[[str], None]) -> None:
        """Announce every breaker state change to ``listener`` too, after
        the guard's own bookkeeping.

        The cluster failover controller registers its promotion trigger
        here, so a breaker trip marks the shard for promotion without
        the guard knowing anything about the tier above it."""
        self._listeners.append(listener)

    # ------------------------------------------------ ioctl replacements

    def share_file_ranges(self, dst_file: File, src_file: File,
                          ranges: Sequence[Tuple[int, int, int]]) -> int:
        return self.call("share_file_ranges", _ioctl.share_file_ranges,
                         dst_file, src_file, ranges)
