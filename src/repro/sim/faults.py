"""Power-failure, media, command and cluster fault injection.

The paper's atomicity argument (Section 4.2.2, Figure 4) is about what
survives a power cut at each step of a SHARE operation or a page write.  To
test it, the FTL and the engines call :meth:`FaultPlan.checkpoint` with a
named fault point at every step that could be interrupted; a test arms the
plan to blow up at a chosen point, catches :class:`PowerFailure`, throws
away all volatile state, and restarts from the persisted media image.

The plan also journals the **ack boundary** of durable operations: code
wraps each host-visible command in :meth:`FaultPlan.operation`, and the
plan remembers the operations that were in flight when a power failure
fired (:meth:`unacked_ops`).  That record is what lets crash tests
assert the strict contract — *acknowledged* operations must survive, and
only the unacknowledged operations may be ambiguous — instead of
guessing which LPNs were in flight.  Leaving the ``with`` block cleanly
first fires a ``<kind>.ack`` checkpoint (modelling power failing after
the media work but before completion reaches the caller), then marks the
operation acknowledged.

Alongside the power fuses, the plan carries three :class:`FaultSet`
instances, one per layer.  A set holds its armed faults, counts the
operations its layer reports per kind (so sweeps can target the nth of
each), and lets every matching fault act on the operation.  What a fault
*does* — raise a typed error, corrupt a read, or hand itself to the
shard router — lives on the fault's class.

* :attr:`FaultPlan.media` holds armable **media faults**: uncorrectable
  or correctable-after-retry read errors (:class:`ReadFault`), program
  failures (:class:`ProgramFault`), erase failures (:class:`EraseFault`)
  and silent bit corruption (:class:`CorruptRead`).  The NAND array
  consults the set on every read/program/erase; a disarmed set costs one
  attribute check per operation.  Unlike power fuses, media faults do not
  end the run — they are raised as typed :class:`MediaError` subclasses
  the FTL is expected to survive.
* :attr:`FaultPlan.commands` holds armable **command faults** at the
  host→device boundary: deadline-exceeded timeouts
  (:class:`CommandTimeout`), transient device-busy backpressure
  (:class:`DeviceBusy`), and a sticky SHARE-unsupported/hung outage
  (:class:`ShareOutage`).  A command fault raises or does nothing; it
  never changes a command's latency.  The SSD facade
  consults the set at command submission and completion; faults are
  targetable by nth occurrence of a command kind or by LPN range, like
  media faults.  These model the failures a production host sees without
  the medium being at fault — the host resilience layer
  (:mod:`repro.host.resilience`) is what is expected to survive them.
* :attr:`FaultPlan.cluster` holds armable **cluster faults**, which the
  shard router consults once per acknowledged write (the ``"ack"``
  count): sudden shard death (:class:`ShardKill`) and escalating media
  storms on one shard (:class:`ShardMediaStorm`).
"""

from __future__ import annotations

import sys
from bisect import insort
from functools import partialmethod
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import (
    CommandTimeoutError,
    CommandUnsupportedError,
    DeviceBusyError,
    EraseFailError,
    PowerFailure,
    ProgramFailError,
    UncorrectableReadError,
)


class PowerFailAfter:
    """Fire a :class:`PowerFailure` the ``nth`` time ``point`` is reached.

    ``nth`` is 1-based: ``PowerFailAfter("nand.program", 3)`` survives two
    page programs and dies during the third.
    """

    def __init__(self, point: str, nth: int = 1) -> None:
        if nth < 1:
            raise ValueError(f"nth must be >= 1: {nth}")
        self.point = point
        self.nth = nth

    def __repr__(self) -> str:
        return f"PowerFailAfter({self.point!r}, nth={self.nth})"


class OpRecord:
    """One journalled operation: what was asked, and whether it acked.

    ``status`` is ``"inflight"`` while the operation runs, ``"acked"``
    once it returned to the caller, ``"unacked"`` when a power failure
    interrupted it, and ``"failed"`` when it raised an ordinary error
    (a failed operation promises nothing, so it is not ambiguous)."""

    __slots__ = ("op_id", "kind", "lpns", "status")

    def __init__(self, op_id: int, kind: str, lpns: Tuple[int, ...]) -> None:
        self.op_id = op_id
        self.kind = kind
        self.lpns = lpns
        self.status = "inflight"

    def __repr__(self) -> str:
        return (f"OpRecord(id={self.op_id}, kind={self.kind!r}, "
                f"lpns={self.lpns!r}, status={self.status!r})")


class _OpScope:
    """Context manager for one :meth:`FaultPlan.operation` scope."""

    __slots__ = ("plan", "kind", "record", "deferred")

    def __init__(self, plan: "FaultPlan", kind: str,
                 record: Optional[OpRecord], deferred: bool = False) -> None:
        self.plan = plan
        self.kind = kind
        self.record = record
        self.deferred = deferred

    def __enter__(self) -> Optional[OpRecord]:
        return self.record

    def __exit__(self, exc_type, exc, tb) -> bool:
        plan = self.plan
        plan._op_depth -= 1
        record = self.record
        if exc_type is None:
            if self.deferred:
                # Queued device: the media work is submitted but the ack
                # only reaches the caller at the *completion* event.  The
                # op stays pending until complete_operation() fires the
                # ack checkpoint in completion order.
                plan._pending_acks.append((self.kind, record))
                return False
            # Power may fail after the media work but before completion
            # reaches the caller: the op's effect can be durable even
            # though it never acknowledged.
            try:
                plan.checkpoint(self.kind + ".ack")
            except PowerFailure:
                plan._mark_unacked(record)
                raise
            if record is not None:
                record.status = "acked"
            return False
        if issubclass(exc_type, PowerFailure):
            plan._mark_unacked(record)
        elif record is not None:
            record.status = "failed"
        return False


class FaultSet:
    """The armed faults of one layer of a :class:`FaultPlan`.

    The layer reports each operation through :meth:`hit`, but only while
    :attr:`active` is true.  ``active`` is a plain attribute recomputed
    wherever the armed set changes (arm, disarm, a one-shot fault
    consumed), so the disarmed common case costs one attribute load per
    operation and no call.  The set counts operations per kind in
    :attr:`op_counts` (from the moment counting is enabled by arming or
    :meth:`enable_counting`) so sweeps can enumerate every operation of
    a deterministic run and target each one in turn.

    ``kinds`` are the operation kinds the layer reports; ``accepts`` is
    the base class of the faults the set takes.  Every fault has a
    ``kind``, a ``fired`` flag, ``matches(count, target, detail)`` and
    ``act(faults, count, target, detail, result)``.
    """

    def __init__(self, kinds: Sequence[str], accepts: type) -> None:
        self._accepts = accepts
        self._faults: List = []
        self._counting = False
        self.active = False
        self.op_counts: Dict[str, int] = dict.fromkeys(kinds, 0)

    def _refresh(self) -> None:
        self.active = bool(self._faults) or self._counting

    def arm(self, fault) -> None:
        if not isinstance(fault, self._accepts):
            raise TypeError(f"not a {self._accepts.__name__}: {fault!r}")
        self._faults.append(fault)
        self.active = True

    def disarm(self) -> None:
        """Drop every armed fault (counting, once enabled, carries on)."""
        self._faults = []
        self._refresh()

    def consume(self, fault) -> None:
        """Drop one fault that has run its course: a one-shot that
        fired, or a transient that cleared."""
        self._faults.remove(fault)
        self._refresh()

    def enable_counting(self) -> None:
        """Count operations even with no fault armed (enumeration runs)."""
        self._counting = True
        self.active = True

    def armed(self) -> List:
        return list(self._faults)

    def fired_faults(self) -> List:
        return [fault for fault in self._faults if fault.fired]

    # ---------------------------------------------------------------- hook

    def hit(self, kind: str, target, detail=None, tally: bool = True):
        """Report one ``kind`` operation at ``target``.

        Counts the operation (unless ``tally`` is false: a later phase
        of an operation already counted), then lets every armed fault of
        that kind which matches it act, in arming order.  A fault may
        raise its layer's typed error; otherwise it folds its effect
        into the result — ``True`` for a corrupted read, the fired
        cluster fault for the router to perform — which is ``None`` when
        nothing acted (a command fault either raises or leaves it
        so)."""
        count = self.op_counts[kind]
        if tally:
            count += 1
            self.op_counts[kind] = count
        result = None
        # Walk a snapshot: a fault may consume itself, and the faults
        # armed after it must still see this operation.
        for fault in tuple(self._faults):
            if fault.kind == kind and fault.matches(count, target, detail):
                fault.fired = True
                result = fault.act(self, count, target, detail, result)
        return result

    #: The NAND array's chip hooks (``on_read(ppn)``, ``on_program(ppn)``,
    #: ``on_erase(block)``) and the shard router's
    #: ``on_ack(shard)``.
    on_read = partialmethod(hit, "read")
    on_program = partialmethod(hit, "program")
    on_erase = partialmethod(hit, "erase")
    on_ack = partialmethod(hit, "ack")


#: Sentinel wrapped around a page payload by :class:`CorruptRead`: the read
#: "succeeds" at the chip level but returns garbage.  Checksummed layers
#: (the mapping log, engine page checksums) are expected to detect it.
CORRUPT_PAYLOAD = "media-corrupt"


class MediaFault:
    """Base class for armable media faults.

    Each fault targets the *nth operation* of its kind counted from
    arming (``nth``, 1-based, global across every device sharing the
    plan).  Occurrence targeting is what lets the media-fault explorer
    sweep "every read/program/erase site" of a deterministic workload
    without knowing physical addresses up front: once the nth operation
    arrives, a sticky fault binds to whatever location it landed on.
    """

    kind = "?"

    def __init__(self, nth: int) -> None:
        if nth < 1:
            raise ValueError(f"nth must be >= 1: {nth}")
        self.nth = nth
        self.location: Optional[int] = None   # bound ppn or block
        self.fired = False         # has the fault triggered at least once?

    def matches(self, count: int, location: int, detail=None) -> bool:
        """Does this fault trigger for op number ``count`` at ``location``?"""
        if self.location is not None:
            return location == self.location
        if self.fired:
            return False
        return count == self.nth

    def __repr__(self) -> str:
        target = (f"nth={self.nth}" if self.location is None
                  else f"at={self.location}")
        return f"{type(self).__name__}({target}, fired={self.fired})"


class ReadFault(MediaFault):
    """Read failure at a page.

    ``retries_to_clear=None`` models a dead page: every read raises
    :class:`UncorrectableReadError` for as long as the fault stays armed
    (sticky — once an ``nth``-targeted fault fires, it binds to the PPN it
    hit).  ``retries_to_clear=k`` models a correctable error: the first
    ``k`` read attempts fail, attempt ``k+1`` succeeds and the fault
    clears — exactly the shape firmware read-retry is built for.
    """

    kind = "read"

    def __init__(self, nth: int,
                 retries_to_clear: Optional[int] = None) -> None:
        super().__init__(nth)
        if retries_to_clear is not None and retries_to_clear < 1:
            raise ValueError(
                f"retries_to_clear must be >= 1 or None: {retries_to_clear}")
        self.retries_to_clear = retries_to_clear
        self._failed_attempts = 0

    def act(self, faults: FaultSet, count: int, ppn: int, detail, corrupt):
        if self.location is None:
            self.location = ppn   # nth-fault binds to the page it hit
        if self.retries_to_clear is not None:
            if self._failed_attempts >= self.retries_to_clear:
                faults.consume(self)   # cleared by retry
                return corrupt
            self._failed_attempts += 1
        raise UncorrectableReadError(
            f"injected uncorrectable read at PPN {ppn} "
            f"(attempt {self._failed_attempts or 'n'})")


class CorruptRead(MediaFault):
    """Silent bit corruption: the read *succeeds* but returns garbage.

    The NAND returns ``(CORRUPT_PAYLOAD, ppn)`` instead of the stored
    payload.  Sticky once fired — a damaged page stays damaged.  This is
    the fault the mapping log's record checksums exist to catch.
    """

    kind = "read"

    def act(self, faults: FaultSet, count: int, ppn: int, detail,
            corrupt) -> bool:
        if self.location is None:
            self.location = ppn   # nth-fault binds to the page it hit
        return True


class ProgramFault(MediaFault):
    """One program operation fails; the target page is left unusable.

    One-shot: real program failures condemn the page (and, for the FTL,
    the block), but a re-program to a fresh page succeeds.
    """

    kind = "program"

    def act(self, faults: FaultSet, count: int, ppn: int, detail, result):
        faults.consume(self)   # one-shot
        raise ProgramFailError(f"injected program failure at PPN {ppn}")


class EraseFault(MediaFault):
    """An erase fails and the block grows bad: sticky — every further
    erase of the block fails too, so tests can prove the FTL really
    retired it instead of retrying forever."""

    kind = "erase"

    def act(self, faults: FaultSet, count: int, block: int, detail, result):
        if self.location is None:
            self.location = block   # sticky: the block stays bad
        raise EraseFailError(f"injected erase failure at block {block}")


#: Command kinds the device facade reports to the command-fault set.
COMMAND_KINDS = ("read", "write", "awrite", "trim", "flush", "share")


class CommandFault:
    """Base class for armable host-command faults.

    Each fault targets the *nth command* of its kind counted from arming
    (1-based, global across every device sharing the plan).  ``sticky``
    faults keep firing from their first match onward — the shape of a
    hung firmware unit — while non-sticky faults are one-shot.
    """

    def __init__(self, kind: str, nth: int, sticky: bool = False) -> None:
        if kind not in COMMAND_KINDS:
            raise ValueError(f"unknown command kind {kind!r} "
                             f"(choose from {', '.join(COMMAND_KINDS)})")
        if nth < 1:
            raise ValueError(f"nth must be >= 1: {nth}")
        self.kind = kind
        self.nth = nth
        self.sticky = sticky
        self.fired = False

    #: Which command phase the fault acts on: "submit" faults reject the
    #: command before the device does any work; "complete" faults let the
    #: work happen and lose the completion on the way back to the host.
    phase = "submit"

    def matches(self, count: int, lpns: Sequence[int], phase: str) -> bool:
        if phase != self.phase:
            return False
        if self.sticky:
            return count >= self.nth
        return not self.fired and count == self.nth

    def __repr__(self) -> str:
        return (f"{type(self).__name__}({self.kind!r}, nth={self.nth}, "
                f"sticky={self.sticky}, fired={self.fired})")


class CommandTimeout(CommandFault):
    """The command exceeds its deadline and the host sees
    :class:`CommandTimeoutError`.

    With ``after_apply=False`` (default) the command is rejected at
    submission — the device never executed it.  With ``after_apply=True``
    the device *does* execute the command and only the completion is
    lost: the ambiguous case real timeouts create, safe to retry only
    because SHARE is idempotent."""

    def __init__(self, kind: str, nth: int,
                 after_apply: bool = False) -> None:
        super().__init__(kind, nth)
        self.after_apply = after_apply

    @property
    def phase(self) -> str:
        return "complete" if self.after_apply else "submit"

    def act(self, faults: FaultSet, count: int, lpns, phase: str, result):
        faults.consume(self)   # one-shot
        raise CommandTimeoutError(
            f"injected {self.kind} timeout on command #{count} at "
            f"{phase} ({'applied' if phase == 'complete' else 'not applied'})")


class DeviceBusy(CommandFault):
    """Transient backpressure: the next ``clears_after`` matching
    commands are rejected with :class:`DeviceBusyError`, then the fault
    clears — the shape retry-with-backoff is built for.  Once the nth
    command of the kind arrives, every following command of that kind is
    rejected until the budget is spent (a busy device stays busy for the
    retry, too)."""

    def __init__(self, kind: str, nth: int, clears_after: int = 1) -> None:
        super().__init__(kind, nth, sticky=True)
        if clears_after < 1:
            raise ValueError(f"clears_after must be >= 1: {clears_after}")
        self.clears_after = clears_after
        self._rejected = 0

    def act(self, faults: FaultSet, count: int, lpns, phase: str, result):
        if self._rejected >= self.clears_after:
            faults.consume(self)   # backpressure drained
            return result
        self._rejected += 1
        raise DeviceBusyError(
            f"injected device-busy on {self.kind} command #{count} "
            f"(rejection {self._rejected}/{self.clears_after})")


class ShareOutage(CommandFault):
    """Sticky SHARE outage: from the nth SHARE command onward, every
    SHARE is rejected with :class:`CommandUnsupportedError` (or
    :class:`CommandTimeoutError` with ``error="timeout"`` — a hung
    firmware unit).  Retrying never helps; engines must degrade to
    their classic two-phase paths."""

    def __init__(self, nth: int = 1, error: str = "unsupported") -> None:
        super().__init__("share", nth=nth, sticky=True)
        if error not in ("unsupported", "timeout"):
            raise ValueError(f"error must be 'unsupported' or 'timeout': "
                             f"{error!r}")
        self.error = error

    def act(self, faults: FaultSet, count: int, lpns, phase: str, result):
        if self.error == "timeout":
            raise CommandTimeoutError(
                f"injected SHARE hang on command #{count} "
                f"(sticky from #{self.nth})")
        raise CommandUnsupportedError(
            f"injected SHARE outage on command #{count} "
            f"(sticky from #{self.nth})")


class ClusterFault:
    """Base class for the shard router's faults: one-shot, fired after
    the nth acknowledged cluster write.

    ``nth`` is 1-based and counts acknowledged writes across the whole
    cluster — the shard router reports every ack to the cluster fault
    set, so arming a fault at every ``nth`` sweeps it across every ack
    boundary of a run.  ``shard`` pins a victim by name; by default the
    shard that acknowledged the nth write is the victim (the interesting
    case — it holds the just-acked data).  The fired fault records its
    victim and hands itself to the router, which performs it so the run
    continues through failover rather than aborting.
    """

    kind = "ack"

    def __init__(self, nth: int = 1, shard: Optional[str] = None) -> None:
        if nth < 1:
            raise ValueError(f"nth must be >= 1: {nth}")
        self.nth = nth
        self.shard = shard
        self.fired = False
        self.victim: Optional[str] = None

    def matches(self, count: int, shard: str, detail=None) -> bool:
        return not self.fired and count == self.nth

    def act(self, faults: FaultSet, count: int, shard: str, detail,
            fired: Optional["ClusterFault"]) -> "ClusterFault":
        self.victim = self.shard or shard
        # One fault per ack: the router performs the first that fired.
        return self if fired is None else fired


class ShardKill(ClusterFault):
    """Kill one shard's primary device after the nth acknowledged
    cluster write: the router power-cycles it and latches its breaker."""

    def __repr__(self) -> str:
        return f"ShardKill(nth={self.nth}, shard={self.shard!r})"


class ShardMediaStorm(ClusterFault):
    """Escalating NAND degradation on one shard's primary after the nth
    acknowledged cluster write.

    Where :class:`ShardKill` models sudden death, the storm models the
    slow kind: it arms ``program_fails`` consecutive :class:`ProgramFault`
    (and ``erase_fails`` :class:`EraseFault`) occurrences on the victim
    *device's own* fault plan, targeting the next chip operations of each
    kind.  The device keeps serving — the FTL absorbs each failure by
    retiring the block onto a spare — so no client sees an error; only
    the ``media.*`` counters move.  The cluster health monitor is what
    must notice and trip a *proactive* failover.
    """

    def __init__(self, nth: int = 1, shard: Optional[str] = None,
                 program_fails: int = 3, erase_fails: int = 1) -> None:
        super().__init__(nth, shard)
        if program_fails < 0 or erase_fails < 0:
            raise ValueError("fault counts must be >= 0")
        if program_fails + erase_fails < 1:
            raise ValueError("a storm needs at least one fault")
        self.program_fails = program_fails
        self.erase_fails = erase_fails

    def inject(self, ssd) -> None:
        """Arm the storm's media faults on ``ssd``'s plan, targeting the
        chip operations immediately after the current counts."""
        media = ssd.faults.media
        base = media.op_counts["program"]
        for offset in range(self.program_fails):
            media.arm(ProgramFault(nth=base + 1 + offset))
        base = media.op_counts["erase"]
        for offset in range(self.erase_fails):
            media.arm(EraseFault(nth=base + 1 + offset))

    def __repr__(self) -> str:
        return (f"ShardMediaStorm(nth={self.nth}, shard={self.shard!r}, "
                f"program_fails={self.program_fails}, "
                f"erase_fails={self.erase_fails})")


class FaultPlan:
    """Collects armed faults and fires them at matching checkpoints.

    A disarmed plan (the default everywhere) is nearly free: one dict lookup
    per checkpoint.  The plan records every point it passes so tests can
    assert code paths were actually exercised, and each point may hold a
    *list* of fuses so two faults at different ``nth`` can coexist; arming
    the same (point, nth-from-now) twice raises instead of silently
    replacing the earlier fuse.
    """

    #: False on every real plan.  True only on :data:`NO_FAULTS`, whose
    #: checkpoints, operation scopes and ack journal do nothing — hot
    #: paths test this plain class attribute and skip calling them.
    passive = False

    def __init__(self) -> None:
        # point -> sorted absolute hit counts at which to fire.
        self._armed: Dict[str, List[int]] = {}
        self._hits: Dict[str, int] = {}
        self._trace_enabled = False
        self._trace: List[str] = []
        # Operation (ack-boundary) journal: only the records a power
        # failure left ambiguous are kept, never a log of every op.
        self._op_depth = 0
        self._op_seq = 0
        self._unacked_ops: List[OpRecord] = []
        # Deferred-ack queue: (kind, record) pairs whose media work was
        # submitted but whose completion has not fired yet.  The queued
        # device pops each entry via complete_operation(), so the list
        # is bounded by the device queue depth.
        self._pending_acks: List[Tuple[str, Optional[OpRecord]]] = []
        # Nested operation scopes carry no record and never mutate
        # themselves, so one frozen instance per (kind, deferred) serves
        # every nested entry — the FTL-inside-device nesting happens on
        # every command, and the per-call allocation is measurable.
        self._nested_scopes: Dict[Tuple[str, bool], _OpScope] = {}
        # Armed media faults; the NAND array consults this on every chip
        # operation (one attribute check when nothing is armed).
        self.media = FaultSet(("read", "program", "erase"), MediaFault)
        # Armed command faults; the SSD facade consults this on every
        # host-visible command (same one-attribute-check fast path).
        self.commands = FaultSet(COMMAND_KINDS, CommandFault)
        # Armed cluster faults; the shard router consults this once per
        # acknowledged write (same one-attribute-check fast path).
        self.cluster = FaultSet(("ack",), ClusterFault)

    def arm(self, fault: PowerFailAfter) -> None:
        """Arm a power failure at ``fault.point``.

        ``nth`` counts from the moment of arming: hits that happened
        before arm() do not consume the fuse.  Several fuses may be armed
        at one point (different ``nth``); re-arming an identical fuse
        raises ``ValueError`` — a silent overwrite would hide test bugs."""
        target = self._hits.get(fault.point, 0) + fault.nth
        fuses = self._armed.setdefault(fault.point, [])
        if target in fuses:
            raise ValueError(
                f"fault already armed at {fault.point!r} for nth={fault.nth} "
                f"(disarm first to replace it)")
        insort(fuses, target)

    def disarm(self) -> None:
        """Drop every armed power fuse."""
        self._armed.clear()

    def headroom(self, points: Sequence[str]) -> int:
        """How many more passes of every point in ``points`` are safe
        before an armed power fuse at one fires (else ``sys.maxsize``)."""
        armed, hits = self._armed, self._hits
        return min((armed[point][0] - hits.get(point, 0) - 1
                    for point in points if point in armed),
                   default=sys.maxsize)

    def enable_trace(self) -> None:
        self._trace_enabled = True

    @property
    def trace(self) -> List[str]:
        return list(self._trace)

    def hits(self, point: str) -> int:
        """How many times ``point`` has been reached so far."""
        return self._hits.get(point, 0)

    def checkpoint(self, point: str) -> None:
        """Called by instrumented code at each interruptible step.

        Raises :class:`PowerFailure` when an armed fault's count is
        reached; the fired fuse is consumed (fires only once), any other
        fuses at the point stay armed.
        """
        hits = self._hits
        count = hits.get(point, 0) + 1
        hits[point] = count
        if self._trace_enabled:
            self._trace.append(point)
        armed = self._armed
        if not armed:
            return
        fuses = armed.get(point)
        if fuses and count == fuses[0]:
            fuses.pop(0)
            if not fuses:
                del self._armed[point]
            raise PowerFailure(f"injected power failure at {point!r} (hit {count})")

    # ------------------------------------------------- ack-boundary journal

    def operation(self, kind: str, lpns: Sequence[int] = (),
                  deferred: bool = False) -> _OpScope:
        """Bracket one host-visible durable operation.

        Usage: ``with faults.operation("ftl.write", (lpn,)): ...``.  On a
        clean exit the scope fires the ``<kind>.ack`` checkpoint, then
        marks the operation acknowledged.  If a :class:`PowerFailure`
        escapes the scope, the record joins :meth:`unacked_ops` — the
        operations whose durability is legitimately ambiguous.  Nested
        scopes (a device command calling into the FTL) are transparent:
        only the outermost scope journals, though a nested clean exit
        still fires its own ``.ack`` checkpoint for point coverage.

        With ``deferred=True`` (the queued device) a clean exit does
        *not* fire the ack checkpoint; the operation stays pending until
        :meth:`complete_operation` is called at its completion event, so
        the ack boundary is journalled in completion order rather than
        submission order."""
        if self._op_depth:
            self._op_depth += 1
            key = (kind, deferred)
            scope = self._nested_scopes.get(key)
            if scope is None:
                scope = _OpScope(self, kind, None, deferred)
                self._nested_scopes[key] = scope
            return scope
        self._op_depth = 1
        self._op_seq += 1
        record = OpRecord(self._op_seq, kind, tuple(lpns))
        return _OpScope(self, kind, record, deferred)

    def _pop_pending(self, kind: str, record: Optional[OpRecord]) -> None:
        """Take a deferred operation off the pending-ack queue."""
        for index, (pending_kind, pending_record) in enumerate(
                self._pending_acks):
            if pending_kind == kind and pending_record is record:
                del self._pending_acks[index]
                return

    def complete_operation(self, kind: str,
                           record: Optional[OpRecord]) -> None:
        """Deliver the completion of a deferred operation scope: fires
        the ``<kind>.ack`` checkpoint, then marks the record acked.
        Called by the device at the op's *completion* event, so acks are
        journalled in the order the device completes work."""
        self._pop_pending(kind, record)
        try:
            self.checkpoint(kind + ".ack")
        except PowerFailure:
            self._mark_unacked(record)
            raise
        if record is not None:
            record.status = "acked"

    def abandon_operation(self, kind: str,
                          record: Optional[OpRecord]) -> None:
        """Drop a deferred operation whose completion will never fire
        (power cycle with commands in flight): the op was submitted but
        never acknowledged, so it is ambiguous."""
        self._pop_pending(kind, record)
        self._mark_unacked(record)

    def fail_operation(self, kind: str,
                       record: Optional[OpRecord]) -> None:
        """A deferred operation's completion surfaced an ordinary error
        to the host: pop it and mark it failed (a failed operation
        promises nothing, so it is not ambiguous)."""
        self._pop_pending(kind, record)
        if record is not None:
            record.status = "failed"

    def _mark_unacked(self, record: Optional[OpRecord]) -> None:
        if record is not None and record not in self._unacked_ops:
            record.status = "unacked"
            self._unacked_ops.append(record)

    def unacked_ops(self) -> List[OpRecord]:
        """Every operation whose durability is ambiguous: interrupted by
        a power failure, or submitted to the device queue but never
        completed (its deferred ack is still pending)."""
        out = list(self._unacked_ops)
        out.extend(record for _, record in self._pending_acks
                   if record is not None and record not in out)
        return out


class _PassiveScope:
    """Scope returned by :class:`_PassiveFaultPlan.operation`: enters to
    ``None`` and journals nothing."""

    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_PASSIVE_SCOPE = _PassiveScope()


def _refuse_on_passive_plan(*args, **kwargs) -> None:
    raise RuntimeError(
        "NO_FAULTS is the shared passive plan; construct a FaultPlan() "
        "to arm faults, count operations or trace checkpoints")


class _PassiveFaultPlan(FaultPlan):
    """The plan behind :data:`NO_FAULTS`: nothing is ever armed on it, so
    checkpoints, operation scopes and the ack journal are pure overhead.
    Anything that wants injection, counting or the journal must construct
    its own :class:`FaultPlan`; arming this shared singleton would
    silently couple unrelated components, so every arm and counting
    entry point refuses — the plan's own and those of its three fault
    sets, which callers reach directly too."""

    passive = True

    def __init__(self) -> None:
        super().__init__()
        for fault_set in (self.media, self.commands, self.cluster):
            fault_set.arm = fault_set.enable_counting = \
                _refuse_on_passive_plan

    arm = enable_trace = _refuse_on_passive_plan

    def checkpoint(self, point: str) -> None:
        pass

    def operation(self, kind: str, lpns: Sequence[int] = (),
                  deferred: bool = False) -> "_PassiveScope":
        return _PASSIVE_SCOPE

    def complete_operation(self, kind, record) -> None:
        pass

    def abandon_operation(self, kind, record) -> None:
        pass

    def fail_operation(self, kind, record) -> None:
        pass


#: Shared no-op plan used by components when the caller does not inject one.
NO_FAULTS = _PassiveFaultPlan()
