"""The SSD block device.

``Ssd`` is what the host stack talks to: a page-addressed block device with
``read``/``write``/``trim``/``flush`` plus the paper's vendor-unique
``share`` command.  It wraps a :class:`PageMappingFtl`, prices every
command's latency (including GC work the command triggered), and maintains
the :class:`DeviceStats` counters Figure 6 reports.

Timing is event-driven.  Each command is *submitted*: it is admitted
through a bounded :class:`NativeCommandQueue`, spends a DRAM/firmware
phase, occupies the NAND channels its pages live on (per-channel busy
resources, so work on different channels overlaps), and its ticket is
pushed into the stack's :class:`~repro.sim.events.EventScheduler`
completion queue.  It *completes* when the queue delivers the ticket
back (:meth:`Ssd._on_complete`): telemetry, the I/O trace record,
completion-phase command faults and the deferred ack-boundary journal
entry — in global ``(completion, submission)`` order across every device
sharing the scheduler.  A command whose completion has none of those to
deliver carries no ticket: its entry only retires the in-flight count.

A command arrives at ``clock.issuer.now_us``.  While the clock is its
own issuer (the default), each command method submits and immediately
waits for its own completion
(:meth:`~repro.sim.events.EventScheduler.submit_and_wait`, which fires it
in line when nothing queued is due first), which at ``queue_depth=1`` and
one channel reproduces the old caller-advances-the-clock model
bit-for-bit.  While a :class:`DeviceSession` is the issuer, the same
methods are non-blocking submissions that move the session cursor to
their completion — that is how N closed-loop benchmark clients drive
the stack's devices concurrently.  Either happens inside the command's
span, so the span ends on the completion.

A second, plain :class:`Ssd` without SHARE enabled stands in for the
Samsung PM853T log device of the experimental setup.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Any, Dict, Optional, Sequence, Tuple

from repro.errors import DeviceError, ShareError
from repro.flash.geometry import FlashGeometry
from repro.flash.nand import NandArray
from repro.flash.timing import MLC_TIMING, ChannelSet, FlashTiming
from repro.ftl.config import FtlConfig
from repro.ftl.pagemap import FTL_ROWS, MEDIA_ROWS, PageMappingFtl
from repro.ftl.share_ext import expand_range
from repro.obs import COUNTER, GAUGE, NULL_TELEMETRY
from repro.sim.clock import SimClock
from repro.sim.events import EventScheduler
from repro.sim.faults import NO_FAULTS, FaultPlan
from repro.ssd.ncq import CommandTicket, DeviceSession, NativeCommandQueue
from repro.ssd.stats import DeviceStats
from repro.ssd.trace import IntervalTrace, IoTrace

#: The payload :meth:`Ssd.age` programs on every page it fills or
#: rewrites: one shared object, not a tuple per page — nothing reads an
#: aged page as data, and the page's spare stamp already names its LPN.
_AGED_PAGE = ("aged",)

#: Seed of :meth:`Ssd.age`'s random rewrite pass.
AGE_SEED = 17


@dataclass(frozen=True)
class SsdConfig:
    """Device assembly options.

    ``dram_cache_pages`` models the controller's I/O read cache — the
    DRAM that Section 4.2.1 says the reverse-mapping share table is
    traded against ("we trade a portion of cache space for the reverse
    mapping").  0 disables it.

    ``queue_depth`` bounds the native command queue: how many commands
    may be outstanding between admission and completion.  1 (the
    default) serialises commands exactly like the old synchronous
    model.

    ``trace_capacity`` / ``interval_capacity`` bound the command trace
    (:class:`~repro.ssd.trace.IoTrace`) and the per-channel busy-interval
    capture (:class:`~repro.ssd.trace.IntervalTrace`) the Chrome-trace
    exporter draws its lanes from; both rings keep the newest entries.
    0 (default) disables capture.
    """

    geometry: FlashGeometry = FlashGeometry()
    timing: FlashTiming = MLC_TIMING
    ftl: FtlConfig = FtlConfig()
    share_enabled: bool = True
    trace_capacity: int = 0
    dram_cache_pages: int = 0
    queue_depth: int = 1
    interval_capacity: int = 0


def _stat(field: str):
    # Through the device each time: reset_measurement swaps the object.
    return attrgetter("stats." + field)


def _through_ftl(prefix: str, rows) -> tuple:
    """``rows`` over the FTL as rows over the device that owns it — read
    through ``ssd.ftl`` at snapshot time, because the device outlives
    every FTL instance a power cycle rebuilds."""
    return tuple((f"{prefix}.{name}", kind,
                  lambda ssd, extract=extract: extract(ssd.ftl))
                 for name, kind, extract in rows)


#: What a device reports under ``device.<name>.*``: ``(metric name,
#: kind, extractor over the Ssd)``.  Every counter is a
#: :class:`DeviceStats` field (Figure 6's numbers, billed per command
#: from the work ledger) or one of the firmware's own.
DEVICE_ROWS = (
    # One page per read command: there is no multi-page read.
    ("read_commands", COUNTER, _stat("host_read_pages")),
    ("write_commands", COUNTER, _stat("write_commands")),
    ("trim_commands", COUNTER, _stat("trim_commands")),
    ("share_commands", COUNTER, _stat("share_commands")),
    ("flush_commands", COUNTER, _stat("flush_commands")),
    ("host_read_pages", COUNTER, _stat("host_read_pages")),
    ("host_write_pages", COUNTER, _stat("host_write_pages")),
    ("trim_pages", COUNTER, _stat("trim_pages")),
    ("share_pairs", COUNTER, _stat("share_pairs")),
    ("busy_us", COUNTER, _stat("busy_us")),
    ("queue.depth", GAUGE, attrgetter("ncq.inflight")),
    ("ftl.gc.events", COUNTER, _stat("gc_events")),
    ("ftl.gc.copyback_pages", COUNTER, _stat("copyback_pages")),
    ("ftl.gc.block_erases", COUNTER, _stat("block_erases")),
    ("ftl.gc.spill_lookups", COUNTER, _stat("spill_lookups")),
    ("ftl.wear.level_moves", COUNTER, _stat("wear_level_moves")),
    ("ftl.share.pairs", COUNTER, _stat("share_pairs")),
    ("ftl.share.spills", COUNTER, _stat("share_spill_pages")),
    ("ftl.share.log_spills", COUNTER, _stat("share_log_spills")),
    ("ftl.maplog.page_writes", COUNTER, _stat("map_page_writes")),
) + _through_ftl("ftl", FTL_ROWS) + _through_ftl("media", MEDIA_ROWS)


def channel_rows(channel: int) -> tuple:
    """One channel's busy time and utilisation over the measured
    interval (the figures :meth:`Ssd.queue_report` returns)."""
    return ((f"chan.{channel}.busy_us", COUNTER,
             lambda ssd: ssd.channels.busy_us[channel]),
            (f"chan.{channel}.util", GAUGE,
             lambda ssd: ssd.queue_report()["channel_utilization"][channel]))


class Ssd:
    """Page-addressed block device with the SHARE extension."""

    def __init__(self, clock: SimClock, config: Optional[SsdConfig] = None,
                 faults: FaultPlan = NO_FAULTS, telemetry=None,
                 name: str = "ssd",
                 events: Optional[EventScheduler] = None,
                 ncq: Optional[NativeCommandQueue] = None) -> None:
        self.config = config or SsdConfig()
        self.clock = clock
        self.faults = faults
        self.name = name
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self.telemetry.bind_clock(clock)
        self._tracer = self.telemetry.tracer
        self.nand = NandArray(self.config.geometry, faults=faults)
        self.ftl = PageMappingFtl(self.nand, self.config.ftl, faults,
                                  telemetry=self.telemetry)
        self.timing = self.config.timing
        self.stats = DeviceStats(page_size=self.config.geometry.page_size)
        self.trace = IoTrace(self.config.trace_capacity)
        self.intervals = IntervalTrace(self.config.interval_capacity)
        from repro.ssd.cache import DramReadCache
        self.cache = DramReadCache(self.config.dram_cache_pages)
        # The completion queue.  Devices of one stack (data + log SSD)
        # share a scheduler so completions fire in global order.
        self.events = events if events is not None \
            else EventScheduler(clock)
        self.channels = ChannelSet(self.config.geometry.channel_count)
        # A stack may pass one shared NCQ to several devices: at depth 1
        # that models a host doing synchronous I/O (one outstanding
        # command across the whole stack), which is what the serial
        # model's equivalence requires.
        self.ncq = ncq if ncq is not None \
            else NativeCommandQueue(self.config.queue_depth)
        #: Commands submitted and not yet completed (their tickets sit
        #: in ``events``).
        self.inflight = 0
        # Media cost per work-ledger kind, resolved once (replaces a
        # per-entry if-chain on the pricing path).
        timing = self.timing
        page_size = self.config.geometry.page_size
        self._work_cost: Dict[str, float] = {
            "host_read": timing.read_latency(page_size),
            "host_program": timing.program_latency(page_size),
            "copyback": timing.copyback_us,
            "erase": timing.erase_us,
            "map_write": timing.program_us,
            "spill_lookup": timing.read_us,
            "gc_event": 0.0, "wear_move": 0.0,
        }
        self._work_whole_us = {kind: int(round(cost))
                               for kind, cost in self._work_cost.items()}
        # Host command base latencies, resolved once for the read/write
        # fast paths (same values as the host_read/host_program entries),
        # and beside each the whole-microsecond total of a command that
        # triggered no internal work — constants, so rounded once here.
        self._read_latency_us = self._work_cost["host_read"]
        self._program_latency_us = self._work_cost["host_program"]
        self._overhead_us = timing.command_overhead_us
        self._read_whole_us = int(round(self._read_latency_us
                                        + self._overhead_us))
        self._program_whole_us = int(round(self._program_latency_us
                                           + self._overhead_us))
        self._overhead_whole_us = int(round(self._overhead_us))
        self._measure_start_us = clock.now_us
        clock.on_reset(self._on_clock_reset)
        # Counters and gauges are read from this device at snapshot time
        # (DEVICE_ROWS); only the histograms are pushed, through handles
        # resolved once (None when telemetry is off: every record site
        # sits behind a ticket issued while the tracer was recording).
        telemetry = self.telemetry
        scope = f"device.{name}"
        telemetry.collect(scope, DEVICE_ROWS, self)
        for channel in range(self.config.geometry.channel_count):
            telemetry.collect(scope, channel_rows(channel), self)
        self._m_latency = {
            kind: telemetry.histogram(f"{scope}.latency_us.{kind}")
            for kind in ("read", "write", "trim", "share", "flush")}
        self._m_queue_wait = telemetry.histogram(f"{scope}.queue.wait_us")

    # ---------------------------------------------------------- properties

    @property
    def page_size(self) -> int:
        return self.config.geometry.page_size

    @property
    def logical_pages(self) -> int:
        return self.ftl.logical_pages

    @property
    def max_share_batch(self) -> int:
        return self.ftl.max_share_batch

    def in_batches(self, command, items: Sequence) -> int:
        """``command(batch)`` for each slice of ``items`` that fits one
        mapping page (:attr:`max_share_batch`), each atomic on its own —
        the one place a batch is split.  Returns the number of commands."""
        limit = self.ftl.max_share_batch
        for start in range(0, len(items), limit):
            command(items[start:start + limit])
        return -(-len(items) // limit)

    @property
    def supports_share(self) -> bool:
        return self.config.share_enabled

    # ----------------------------------------------------- submission API

    def attach_session(self, session: DeviceSession) -> None:
        """Make ``session`` the stack's issuer until
        :meth:`detach_session`; unnested, so it refuses to replace
        another bound session."""
        clock = self.clock
        if clock.issuer is not clock and clock.issuer is not session:
            raise DeviceError(
                f"device {self.name!r} already has a session attached")
        clock.issuer = session

    def detach_session(self) -> None:
        """Return the stack to synchronous (submit-and-wait) issue."""
        self.clock.issuer = self.clock

    @property
    def _session(self) -> Optional[DeviceSession]:
        """The bound session, or None under synchronous issue.

        Read-only: perfbench's layer pass reads it to stamp a device
        span; ROADMAP item 12's benchmark follow-up retires it for
        ``clock.issuer``."""
        issuer = self.clock.issuer
        return None if issuer is self.clock else issuer

    def poll(self, now_us: int) -> int:
        """Fire every completion due at or before ``now_us``; returns how
        many commands are still in flight."""
        self.events.run_until(now_us)
        return self.inflight

    def drain(self, leave: int = 0) -> int:
        """Complete in-flight commands, earliest first, until at most
        ``leave`` remain (default: all of them, which advances the clock
        to the device's completion horizon).  Returns how many of the
        device's own completion timestamps it waited for."""
        excess = self.inflight - leave
        if excess <= 0:
            return 0
        due = self.events.due(self)
        self.events.run_until(due[excess - 1])
        return len(set(due[:excess]))

    # ------------------------------------------------------------ commands

    def _gate(self, kind: str, lpns: Sequence[int],
              phase: str = "submit") -> None:
        """Command-fault gate at the host→device boundary.

        Consulted at submission (before any media work) and completion
        (after the work, modelling a lost completion), and only while
        ``faults.commands.active`` — callers test that plain attribute,
        so a disarmed gate costs no call.  A fault raises a typed
        :class:`DeviceError` subclass the host resilience layer handles;
        the gate never moves the session cursor or the clock."""
        self.faults.commands.hit(kind, lpns, phase, phase == "submit")

    def _command(self, body, kind: str, op_kind: str,
                 lpns: Sequence[int], *args) -> None:
        """Run one journalled command: the submission fault gate, then
        ``body(op_kind, op, *args)``.

        Under :data:`NO_FAULTS` — every benchmark run — there is no
        journal, so ``body(None, None, *args)`` runs bare, or inside the
        ``device.<kind>`` span while the tracer is recording, and
        :meth:`_issue` does the wait.  A real fault plan brings back the
        deferred ack scope: the command is queued inside it (a power cut
        there finds it in flight) and :meth:`_wait` runs after it exits,
        so the ack is registered before it is delivered."""
        faults = self.faults
        if faults.commands.active:
            self._gate(kind, lpns)
        ftl = self.ftl
        if ftl.work or ftl.map_work:
            ftl.take_work()   # discard stale work from direct FTL use
        tracer = self._tracer
        if not faults.passive:
            with faults.operation(op_kind, lpns, deferred=True) as op, \
                    tracer.span("device." + kind):
                completion = body(op_kind, op, *args)
            self._wait(completion)
            return
        if not tracer.recording:
            body(None, None, *args)
        elif tracer.sample_every > 1 and tracer.sample_out():
            try:
                body(None, None, *args)
            finally:
                tracer.resume()
        else:
            with tracer.span("device." + kind):
                body(None, None, *args)

    def read(self, lpn: int) -> Any:
        """Read one page (through the controller DRAM cache if enabled)."""
        if self.faults.commands.active:
            self._gate("read", (lpn,))
        tracer = self._tracer
        if not tracer.recording:
            return self._read(lpn)
        if tracer.sample_every > 1 and tracer.sample_out():
            try:
                return self._read(lpn)
            finally:
                tracer.resume()
        with tracer.span("device.read"):
            return self._read(lpn)

    def _read(self, lpn: int) -> Any:
        ftl = self.ftl
        if ftl.work or ftl.map_work:
            ftl.take_work()   # discard stale work from direct FTL use
        cache = self.cache
        cached = cache.lookup(lpn) if cache.enabled else None
        if cached is not None:
            data = cached[0]
            self.stats.host_read_pages += 1
            self._issue("read", lpn, 1, 0.0,
                        self._overhead_whole_us)   # DRAM hit
        else:
            data = ftl.read(lpn)
            if cache.enabled:
                cache.insert(lpn, data)
            self.stats.host_read_pages += 1
            self._issue("read", lpn, 1, self._read_latency_us,
                        self._read_whole_us)
        return data

    def write(self, lpn: int, data: Any) -> None:
        """Write one page (out-of-place inside the device)."""
        self._command(self._write, "write", "device.write", (lpn,),
                      lpn, data)

    def _write(self, op_kind, op, lpn: int, data: Any) -> int:
        self.ftl.write(lpn, data)
        if self.cache.enabled:
            self.cache.insert(lpn, data)
        stats = self.stats
        stats.host_write_pages += 1
        stats.write_commands += 1
        return self._issue("write", lpn, 1, self._program_latency_us,
                           self._program_whole_us,
                           op_kind=op_kind, op_record=op)

    def write_multi(self, lpn: int, pages: Sequence[Any]) -> None:
        """Write consecutive pages in one host command (one command
        overhead, per-page programs)."""
        if not pages:
            raise DeviceError("write_multi with no pages")
        self._command(self._write_multi, "write", "device.write_multi",
                      tuple(range(lpn, lpn + len(pages))), lpn, pages)

    def _write_multi(self, op_kind, op, lpn: int,
                     pages: Sequence[Any]) -> int:
        # The whole range, before the first page: a batch that runs past
        # the logical end must not program (and leave unbilled) a prefix.
        ftl = self.ftl
        ftl._check_lpn_range(lpn, len(pages))
        cache = self.cache
        if cache.enabled:
            # A run that raises part-way leaves its written prefix
            # cached, as one insert per written page would.
            before = ftl.stats.host_page_writes
            try:
                ftl.write_run(lpn, pages)
            finally:
                for index in range(ftl.stats.host_page_writes - before):
                    cache.insert(lpn + index, pages[index])
        else:
            ftl.write_run(lpn, pages)
        self.stats.host_write_pages += len(pages)
        self.stats.write_commands += 1
        return self._issue("write", lpn, len(pages),
                           len(pages) * self._program_latency_us,
                           op_kind=op_kind, op_record=op)

    def write_atomic(self, items: Sequence) -> None:
        """Atomic multi-page write (the Section 6.1 baseline command:
        Park et al. / FusionIO-style).  All pages land or none do."""
        if not items:
            raise DeviceError("write_atomic with no pages")
        lpns = tuple(lpn for lpn, __ in items)
        if self.faults.commands.active:
            self._gate("awrite", lpns)
        with self.faults.operation("device.awrite", lpns,
                                   deferred=True) as op, \
                self._tracer.span("device.write", atomic=True):
            self.ftl.take_work()   # discard stale work from direct FTL use
            self.ftl.write_atomic(items)
            if self.cache.enabled:
                for item_lpn, data in items:
                    self.cache.insert(item_lpn, data)
            self.stats.host_write_pages += len(items)
            self.stats.write_commands += 1
            self.stats.extra["atomic_write_commands"] = (
                self.stats.extra.get("atomic_write_commands", 0) + 1)
            completion = self._issue(
                "write", items[0][0], len(items),
                len(items) * self._program_latency_us,
                op_kind="device.awrite", op_record=op,
                gate_kind="awrite", gate_lpns=lpns)
        self._wait(completion)

    # X-FTL transactional interface (Section 6.2 baseline) --------------

    def begin_txn(self) -> int:
        """Open an X-FTL transaction."""
        return self.ftl.begin_txn()

    def write_txn(self, txn_id: int, lpn: int, data: Any) -> None:
        """Stage one in-place page write under a transaction."""
        with self._tracer.span("device.write", txn=txn_id):
            self.ftl.take_work()   # discard stale work from direct FTL use
            self.ftl.write_txn(txn_id, lpn, data)
            self.stats.host_write_pages += 1
            self.stats.write_commands += 1
            self._issue("write", lpn, 1, self._program_latency_us)

    def commit_txn(self, txn_id: int) -> None:
        """Atomically publish a transaction's staged pages."""
        staged_lpns = self.ftl.txn_lpns(txn_id)
        with self.faults.operation("device.xcommit", staged_lpns,
                                   deferred=True) as op, \
                self._tracer.span("device.flush", txn=txn_id):
            self.ftl.take_work()   # discard stale work from direct FTL use
            self.ftl.commit_txn(txn_id)
            self.cache.invalidate(staged_lpns)
            completion = self._issue("flush", 0, 0, 0.0,
                                     op_kind="device.xcommit", op_record=op)
        self._wait(completion)

    def abort_txn(self, txn_id: int) -> None:
        """Discard a transaction's staged pages."""
        with self._tracer.span("device.trim", txn=txn_id):
            self.ftl.take_work()   # discard stale work from direct FTL use
            self.ftl.abort_txn(txn_id)
            self._issue("trim", 0, 0, 0.0)

    def trim(self, lpn: int, count: int = 1) -> None:
        """Invalidate a logical range."""
        lpns = range(lpn, lpn + max(count, 1))
        self._command(self._trim, "trim", "device.trim", lpns, lpn, count,
                      lpns)

    def _trim(self, op_kind, op, lpn: int, count: int,
              lpns: Sequence[int]) -> int:
        self.ftl.trim(lpn, count)
        if self.cache.enabled:
            self.cache.invalidate(lpns)
        self.stats.trim_commands += 1
        self.stats.trim_pages += count
        return self._issue("trim", lpn, count,
                           count * self.timing.map_update_us,
                           op_kind=op_kind, op_record=op)

    def idle_gc(self, max_blocks: int = 1,
                min_invalid_fraction: float = 0.5) -> int:
        """Host-initiated background GC (run during think time).  The
        reclaim work is charged like any other command, but it happens
        when no foreground request is waiting — trading idle time for
        smaller foreground stalls."""
        with self._tracer.span("device.idle_gc"):
            self.ftl.take_work()   # discard stale work from direct FTL use
            reclaimed = self.ftl.idle_gc(max_blocks, min_invalid_fraction)
            self._issue("trim", 0, reclaimed, 0.0)
        return reclaimed

    def flush(self) -> None:
        """Barrier: persist pending mapping changes.  Data-page writes are
        durable at command completion already (no volatile write cache is
        modelled), matching the paper's O_DIRECT setup."""
        self._command(self._flush, "flush", "device.flush", ())

    def _flush(self, op_kind, op) -> int:
        self.ftl.flush()
        self.stats.flush_commands += 1
        return self._issue("flush", 0, 0, 0.0, self._overhead_whole_us,
                           op_kind=op_kind, op_record=op)

    def share(self, dst_lpn: int, src_lpn: int, length: int = 1) -> None:
        """Vendor-unique SHARE command (ranged form).

        SHARE is a mapping-only command: it occupies no NAND channel,
        only the firmware/DRAM phase — the heart of the paper's claim
        that remapping replaces page writes.  A malformed range is the
        caller's error and raises before anything is submitted."""
        if not self.config.share_enabled:
            raise ShareError("device does not support the SHARE command")
        lpns = tuple(range(dst_lpn, dst_lpn + length))
        self._command(self._share, "share", "device.share", lpns,
                      expand_range(dst_lpn, src_lpn, length), lpns)

    def share_batch(self, pairs: Sequence[Tuple[int, int]]) -> None:
        """Vendor-unique SHARE command (batched form): ``(dst_lpn,
        src_lpn)`` tuples, which the firmware checks as one batch."""
        if not self.config.share_enabled:
            raise ShareError("device does not support the SHARE command")
        lpns = tuple([pair[0] for pair in pairs])
        self._command(self._share, "share", "device.share", lpns,
                      pairs, lpns)

    def _share(self, op_kind, op, pairs: Sequence[Tuple[int, int]],
               lpns: Tuple[int, ...]) -> int:
        # Log spills are bookkeeping, not media work: they reach the
        # device stats as one count per command, not as ledger entries.
        ftl_stats = self.ftl.stats
        log_spills = ftl_stats.share_log_spills
        self.ftl.share_batch(pairs)
        if self.cache.enabled:
            self.cache.invalidate(lpns)
        stats = self.stats
        stats.share_log_spills += ftl_stats.share_log_spills - log_spills
        stats.share_commands += 1
        stats.share_pairs += len(lpns)
        return self._issue("share", lpns[0], len(lpns),
                           len(lpns) * self.timing.map_update_us,
                           op_kind=op_kind, op_record=op,
                           gate_kind="share", gate_lpns=lpns)

    # ----------------------------------------------------------- internals

    def _price_media(self, latency_us: float,
                     work: Sequence[Tuple[str, int]],
                     whole_us: Optional[int] = None
                     ) -> Tuple[int, Dict[int, int]]:
        """Split one command's total latency into a front DRAM/firmware
        part and integer per-channel media occupancies.  The media time
        of a ledger entry only decides *placement*; the authoritative
        command total is the analytic formula in :meth:`_issue`.

        Conservation rule: the pieces always sum to
        ``int(round(latency_us))`` — the same rounding the serial model
        applied per command (``whole_us``, when the caller already holds
        it) — so the work ledger only decides *where*
        busy time lands, never how much there is.  At one channel the
        split is exact and the completion time equals the serial model's.
        """
        total_int = whole_us if whole_us is not None \
            else int(round(latency_us))
        if not work:
            return total_int, {}
        if len(work) == 1:
            # One ledger entry (the host's own page, or a lone
            # mapping-page program): skip the per-channel dict entirely.
            kind, channel = work[0]
            dur = self._work_whole_us[kind]
            if dur > total_int:
                dur = total_int
            if dur <= 0:
                return total_int, {}
            return total_int - dur, {channel: dur}
        work_cost = self._work_cost
        per_channel: Dict[int, float] = {}
        for kind, channel in work:
            cost = work_cost[kind]
            if cost > 0.0:
                if channel in per_channel:
                    per_channel[channel] += cost
                else:
                    per_channel[channel] = cost
        if not per_channel:
            return total_int, {}
        if len(per_channel) == 1:
            # Single-channel fast path (every 1ch stack, and most
            # commands on wider stacks): exactly the general algorithm
            # below with the shave step folded into a clamp.
            (channel, us), = per_channel.items()
            dur = int(round(us))
            if dur > total_int:
                dur = total_int
            if dur <= 0:
                return total_int, {}
            return total_int - dur, {channel: dur}
        pieces = {channel: int(round(us))
                  for channel, us in per_channel.items()}
        pieces = {channel: dur for channel, dur in pieces.items() if dur > 0}
        dram_us = total_int - sum(pieces.values())
        if dram_us < 0:
            # Per-channel rounding overshot the authoritative total
            # (only possible with 2+ channels): shave the largest piece.
            largest = max(pieces, key=lambda channel: pieces[channel])
            pieces[largest] = max(0, pieces[largest] + dram_us)
            if pieces[largest] == 0:
                del pieces[largest]
            dram_us = total_int - sum(pieces.values())
            if dram_us < 0:
                # Pathological: collapse to a pure firmware phase.
                pieces = {}
                dram_us = total_int
        return dram_us, pieces

    def _issue(self, kind: str, lpn: int, count: int,
               base_latency_us: float, whole_us: Optional[int] = None,
               op_kind: Optional[str] = None, op_record: Any = None,
               gate_kind: Optional[str] = None,
               gate_lpns: Optional[Tuple[int, ...]] = None) -> int:
        """Price the command (base latency plus the internal work — GC
        copybacks, erases, mapping-page programs, spill lookups — it
        triggered), admit it through the NCQ, occupy its channels and
        hand it to the completion queue.  Returns its completion time.

        Per-command work deltas come from the FTL's work ledger: every
        internal-work counter increment leaves a ledger entry (some,
        like ``gc_event``, at zero media cost), so counting entries
        reproduces the old before/after counter diff exactly — and the
        common no-internal-work command skips the accounting entirely.
        The ledger is drained here, once per command; the caller drains
        stale entries (direct FTL use between commands: aging, recovery)
        before mutating the FTL.  ``whole_us`` is the caller's
        precomputed ``int(round(base + overhead))``; it stands unless
        the command turns out to carry priced internal work.  A ledger
        that holds only the host's own page is read and emptied in
        place; anything longer is taken and goes through
        :meth:`_price_media`.

        The :class:`CommandTicket` is built only when the completion has
        something to deliver: a recorded command's histograms, a trace
        record, a completion gate or a deferred ack (``ticket`` is
        ``None`` otherwise).  The command arrives at the stack issuer's
        ``now_us``.  Under a session it is pushed and moves the cursor to
        its completion; under the clock it waits for itself here
        (:meth:`~repro.sim.events.EventScheduler.submit_and_wait`) unless
        it is journalled: then it is pushed inside its ack scope (where a
        power cut must find it in flight) and :meth:`_wait` runs after."""
        stats = self.stats
        ftl = self.ftl
        work = ftl.work
        gc_events = 0
        copybacks = 0
        # NOTE: base + overhead, then the internal-work terms in this
        # order, is the authoritative command latency the serial oracle
        # reproduces; adding the terms only when one is non-zero yields
        # the same float (x + 0.0*c == x for these non-negative
        # latencies).
        latency = base_latency_us + self._overhead_us
        if not work and not ftl.map_work:
            dram_us = whole_us if whole_us is not None \
                else int(round(latency))
            pieces = ()
        elif whole_us is not None and len(work) == 1 \
                and not ftl.map_work \
                and work[0][0] in ("host_read", "host_program"):
            # The ledger is just the host's own page: place it here, with
            # _price_media's one-entry rule (pre-rounded cost, clamped).
            work_kind, channel = work[0]
            del work[0]
            dur = self._work_whole_us[work_kind]
            if dur > whole_us:
                dur = whole_us
            dram_us = whole_us - dur
            pieces = ((channel, dur),) if dur > 0 else ()
        else:
            work = ftl.take_work()
            erases = map_writes = spill_lookups = wear_moves = 0
            for work_kind, __ in work:
                if work_kind == "map_write":
                    map_writes += 1
                elif work_kind == "copyback":
                    copybacks += 1
                elif work_kind == "erase":
                    erases += 1
                elif work_kind == "gc_event":
                    gc_events += 1
                elif work_kind == "spill_lookup":
                    spill_lookups += 1
                elif work_kind == "wear_move":
                    wear_moves += 1
            if copybacks or erases or map_writes or spill_lookups:
                timing = self.timing
                latency = (latency
                           + copybacks * timing.copyback_us
                           + erases * timing.erase_us
                           + map_writes * timing.program_us
                           + spill_lookups * timing.read_us)
                whole_us = None
            stats.copyback_pages += copybacks
            stats.block_erases += erases
            stats.map_page_writes += map_writes
            stats.spill_lookups += spill_lookups
            stats.gc_events += gc_events
            stats.wear_level_moves += wear_moves
            dram_us, pieces = self._price_media(latency, work, whole_us)
            pieces = pieces.items()
        stats.busy_us += latency

        # Timing: admission through the bounded queue, a DRAM/firmware
        # phase, then per-channel media occupancy.
        service_us = dram_us
        clock = self.clock
        issuer = clock.issuer
        arrival = issuer.now_us
        admit = self.ncq.admit(arrival)
        dram_end = admit + dram_us
        completion = dram_end
        if pieces:
            intervals = self.intervals
            for channel, duration in pieces:
                service_us += duration
                start, end = self.channels.acquire(channel, dram_end,
                                                   duration)
                if intervals.capacity:
                    intervals.record(channel, start, end)
                if end > completion:
                    completion = end
        self.ncq.commit(completion)

        tracer = self._tracer
        recorded = tracer.recording
        if recorded or op_kind is not None or gate_kind is not None \
                or self.trace.capacity:
            ticket = CommandTicket(
                kind, lpn, count, latency, service_us, arrival, completion,
                gc_events, copybacks, op_kind, op_record, gate_kind,
                gate_lpns, recorded)
        else:
            ticket = None
        self.inflight += 1
        if recorded:
            # Recording means this command's own device span is open.
            tracer.current.attrs.update(
                kind=kind, lpn=lpn, count=count, latency_us=latency,
                service_us=service_us, gc_events=gc_events,
                copyback_pages=copybacks)
        if issuer is not clock:
            issuer.now_us = completion
            self.events.push(completion, self, ticket)
        elif op_kind is None:
            self.events.submit_and_wait(completion, self, ticket)
        else:   # queued inside its ack scope
            self.events.push(completion, self, ticket)
        return completion

    def _wait(self, completion: int) -> None:
        """A journalled command's synchronous wait: run the completion
        queue up to it (:meth:`_issue` queued it inside its ack scope),
        advancing the clock — after that scope has exited, so the
        deferred ack is registered before it is delivered.  Under a
        session the cursor has moved already."""
        clock = self.clock
        if clock.issuer is clock:
            self.events.run_until(completion)

    def _on_complete(self, ticket: Optional[CommandTicket]) -> None:
        """Complete one command (the completion queue delivered it and
        moved the clock up to it): retire it from the in-flight count,
        then deliver telemetry, the trace record, the completion-phase
        fault gate and the deferred ack — in the order the device
        finishes work, not the order the host submitted it.  A
        ticket-less command (``None``) has only the first and the
        snapshot tick to deliver.

        The latency and queue-wait histograms record the commands issued
        under a recording span (``ticket.recorded``: the tracer's root
        decision, taken once at submission), in completion order; the
        periodic snapshot costs a call only once it is due.  Counters
        and gauges are not delivered at all — DEVICE_ROWS reads them on
        demand."""
        self.inflight -= 1
        now = self.clock.now_us
        telemetry = self.telemetry
        if ticket is None:
            if now >= telemetry.snapshot_due_us:
                telemetry.maybe_snapshot(now)
            return
        trace = self.trace
        if ticket.recorded or trace.capacity:
            # Time spent queued rather than serviced.
            wait_us = (ticket.completion_us - ticket.arrival_us
                       - ticket.service_us)
            if wait_us < 0:
                wait_us = 0
            if ticket.recorded:
                self._m_latency[ticket.kind].record(ticket.latency_us)
                self._m_queue_wait.record(wait_us)
        if now >= telemetry.snapshot_due_us:
            telemetry.maybe_snapshot(now)
        if trace.capacity:
            trace.record_fields(
                now, ticket.kind, ticket.lpn, ticket.count,
                ticket.latency_us, ticket.gc_events, ticket.copyback_pages,
                ticket.arrival_us, wait_us)
        if ticket.gate_kind is not None and self.faults.commands.active:
            try:
                self._gate(ticket.gate_kind, ticket.gate_lpns, "complete")
            except DeviceError:
                if ticket.op_kind is not None:
                    self.faults.fail_operation(ticket.op_kind,
                                               ticket.op_record)
                raise
        if ticket.op_kind is not None:
            self.faults.complete_operation(ticket.op_kind, ticket.op_record)

    def media_report(self) -> dict:
        """The FTL's ``media.*`` degradation counters plus the raw chip
        failure counts — how hard the medium fought and how the firmware
        coped."""
        report = self.ftl.media_report()
        report["nand_failed_reads"] = self.nand.failed_reads
        report["nand_failed_programs"] = self.nand.failed_programs
        report["nand_failed_erases"] = self.nand.failed_erases
        return report

    def queue_report(self) -> dict:
        """Queue and channel state for reports: per-channel busy time and
        utilisation over the measured interval, plus depth/inflight."""
        elapsed = self.clock.now_us - self._measure_start_us
        return {
            "queue_depth": self.ncq.depth,
            "inflight": self.inflight,
            "channel_count": self.channels.channel_count,
            "channel_busy_us": list(self.channels.busy_us),
            "channel_utilization": self.channels.utilization(elapsed),
        }

    def _on_clock_reset(self) -> None:
        """The harness rewound the clock between experiment runs: every
        absolute timestamp the device caches (queue completion times,
        channel busy horizons, queued completions) belongs to a
        timeline that no longer exists.  Drop them all."""
        self.events.discard(self)
        self.inflight = 0
        self.ncq.reset()
        self.channels.reset()
        self.channels.reset_accounting()
        self._measure_start_us = 0

    # ------------------------------------------------------------ recovery

    def power_cycle(self) -> None:
        """Simulate power loss + reboot: take every in-flight ticket
        back from the completion queue (those commands never acknowledge
        — their records become unacked in the fault journal, in the
        order they would have completed), drop all volatile state and
        run the FTL recovery scan over the surviving media."""
        for ticket in self.events.discard(self):
            if ticket is not None and ticket.op_kind is not None:
                self.faults.abandon_operation(ticket.op_kind,
                                              ticket.op_record)
        self.inflight = 0
        self.ncq.reset()
        self.channels.reset()
        self.ftl = PageMappingFtl.recover(self.nand, self.config.ftl,
                                          self.faults,
                                          telemetry=self.telemetry,
                                          predecessor=self.ftl)
        self.ftl.take_work()   # recovery-scan work is not billed
        self.cache.clear()

    # --------------------------------------------------------------- aging

    def age(self, fill_fraction: float, rewrite_fraction: float) -> None:
        """Pre-condition the device as in Section 5.1's aging pre-run.

        Fills ``fill_fraction`` of the logical space sequentially, then
        rewrites ``rewrite_fraction`` of it at random so blocks hold a mix
        of valid and stale pages and GC is active during measurement.
        Aging I/O is excluded from stats and virtual time.  The fill is
        one :meth:`~repro.ftl.pagemap.PageMappingFtl.write_run`, which
        programs whole rotation rounds a block at a time: its cost grows
        with the blocks it fills, not the pages; the random rewrites are
        one FTL write each.
        """
        if not 0.0 <= fill_fraction <= 1.0:
            raise ValueError(f"fill_fraction must be in [0, 1]: {fill_fraction}")
        if not 0.0 <= rewrite_fraction <= 1.0:
            raise ValueError(
                f"rewrite_fraction must be in [0, 1]: {rewrite_fraction}")
        import random
        rng = random.Random(AGE_SEED)
        pages = int(self.logical_pages * fill_fraction)
        self.ftl.write_run(0, [_AGED_PAGE] * pages)
        write = self.ftl.write
        for _ in range(int(pages * rewrite_fraction)):
            write(rng.randrange(pages), _AGED_PAGE)
        self.reset_measurement()

    def reset_measurement(self) -> None:
        """Zero the host-visible counters (keep media state) so the
        measured interval starts clean, as after the paper's warm-up."""
        self.drain()
        self.stats = DeviceStats(page_size=self.page_size)
        ftl_stats = self.ftl.stats
        for name in list(ftl_stats.__dict__):
            setattr(ftl_stats, name, 0)
        self.ftl.take_work()   # drop unbilled ledger entries (aging I/O)
        self.channels.reset_accounting()
        self._measure_start_us = self.clock.now_us
        self.trace.clear()
        self.intervals.clear()
        self.telemetry.reset_measurement()
