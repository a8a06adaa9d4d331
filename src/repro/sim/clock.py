"""Deterministic virtual clock.

Every simulated component charges time to a shared :class:`SimClock` instead
of sleeping.  Throughput numbers reported by the benchmark harness are
``operations / clock.now_seconds``, which makes every experiment exactly
reproducible regardless of host machine speed.

Time is tracked in integer microseconds to avoid floating-point drift when
millions of small latencies are accumulated.
"""

from __future__ import annotations

US_PER_SECOND = 1_000_000
US_PER_MS = 1_000


class SimClock:
    """Monotonic virtual clock with microsecond resolution, starting at 0.

    The clock only moves forward — via :meth:`advance`, or when the
    completion queue (:class:`~repro.sim.events.EventScheduler`) moves it
    up to a device completion it delivers; components never read
    wall-clock time.  A single clock instance is shared by the whole
    simulated stack (host CPU model, SSD, log device).

    ``now_us`` — current virtual time in microseconds — is a plain
    attribute, not a property: the device reads it on every command and
    completion.  Only the clock's own methods and the completion queue
    write it.

    ``issuer`` is the stack's one current issuer: the clock itself under
    synchronous issue, else the :class:`~repro.ssd.ncq.DeviceSession`
    being issued on.  Both carry ``now_us`` and ``client``, so
    ``clock.issuer.now_us`` is the one "now" devices, the cluster router
    and the tracer read.  To bind a session, save the issuer, set it and
    restore the saved one on exit (``try`` / ``finally``): binds nest.
    """

    __slots__ = ("now_us", "issuer", "_reset_hooks")

    #: The clock as an issuer is no client.
    client = None

    def __init__(self) -> None:
        self.now_us = 0
        self.issuer = self
        self._reset_hooks = []

    @property
    def now_ms(self) -> float:
        """Current virtual time in milliseconds."""
        return self.now_us / US_PER_MS

    @property
    def now_seconds(self) -> float:
        """Current virtual time in seconds."""
        return self.now_us / US_PER_SECOND

    def advance(self, delta_us: float) -> int:
        """Move time forward by ``delta_us`` microseconds.

        Fractional microseconds are accepted (latency models may scale) and
        rounded to the nearest whole microsecond.  Returns the new time.
        """
        if delta_us < 0:
            raise ValueError(f"cannot advance clock backwards: {delta_us}")
        self.now_us += int(round(delta_us))
        return self.now_us

    def elapsed_since(self, start_us: int) -> int:
        """Microseconds elapsed since a previously sampled timestamp."""
        return self.now_us - start_us

    def on_reset(self, hook) -> None:
        """Register a callback invoked whenever the clock is rewound.

        Components that cache absolute timestamps (the event-driven
        device holds queue completion times and channel busy horizons)
        register here so a harness ``reset()`` between experiment runs
        cannot leave them anchored in a future that no longer exists.
        """
        self._reset_hooks.append(hook)

    def reset(self) -> None:
        """Rewind to time zero.  Only the benchmark harness should use this,
        between independent experiment runs."""
        self.now_us = 0
        for hook in self._reset_hooks:
            hook()

    def __repr__(self) -> str:
        return f"SimClock(now_us={self.now_us})"
