"""Crash-explorer workload harnesses.

Each harness owns its devices and engines, runs one small deterministic
workload while tracking an oracle of *acknowledged* state, recovers after
a (possibly injected) power failure, and checks its engine-level
contract: every key/row/block must read back as its last-acknowledged
value, or — only where an operation was interrupted mid-flight — as the
in-flight value.  Determinism matters doubly here: the explorer's
enumeration run and every injection run must reach the same checkpoints
in the same order, so harnesses take no input other than the fault plan
and the L2P backing, and seed their own RNGs.

The harness protocol the sweep engine (:mod:`repro.crashcheck.sweep`)
relies on:

* ``Harness(faults, l2p="flat")`` — full setup (devices, files,
  schemas), every device on the ``l2p`` forward-map backing (see
  :mod:`repro.ftl.mapping`).  Setup may hit fault points; a sweep only
  enumerates what ``run()`` reaches.
* ``run()`` — the workload.  May raise :class:`PowerFailure`, or a typed
  :class:`DeviceError` on a degraded device.
* ``recover()`` — discard volatile state, recover every device from its
  persisted media, and return the ``DeviceState`` list for media-level
  invariant checks.  Must not raise; engine recovery failures are
  reported through ``check_engine``.
* ``check_engine()`` — engine-level invariant violations as strings.
* ``guards()`` (optional) — the :class:`~repro.host.resilience.ShareGuard`
  instances the harness's engines route SHARE through.  Harnesses that
  expose it can be swept by the command family, which reads the guards'
  local stats (correct even under ``NULL_TELEMETRY``) to prove retries
  and fallbacks actually ran.
* ``check_degraded()`` (optional) — the engine contract on a device whose
  media fault is *still armed* after recovery.  Harnesses that expose it
  can run the media family's ``uncorrectable`` mode; the others assume
  readable media.
"""

from __future__ import annotations

import random
from typing import Dict, List, NamedTuple, Optional

from repro.couchstore.compaction import abandon_partial, compact
from repro.couchstore.engine import CommitMode, CouchConfig, CouchStore
from repro.errors import (DeviceError, MediaError, PowerFailure, ReproError,
                          ShareError)
from repro.flash.geometry import FlashGeometry
from repro.flash.timing import FAST_TIMING
from repro.ftl.config import FtlConfig
from repro.host.datajournal import CheckpointMode, DataJournalingFs
from repro.host.filesystem import FsConfig, HostFs
from repro.innodb.engine import FlushMode, InnoDBConfig, InnoDBEngine
from repro.innodb.recovery import recover as innodb_recover
from repro.postgres.engine import (PostgresConfig, PostgresEngine,
                                   recover_row_state)
from repro.sim.clock import SimClock
from repro.sim.faults import FaultPlan
from repro.sqlitelike import JournalMode, SqliteLikeDb
from repro.ssd.device import Ssd, SsdConfig

#: Sentinel marking an LPN the model knows was trimmed (its post-crash
#: content is "unmapped or stale" until a flush barrier acks).
TRIMMED = ("trimmed",)


class DeviceState(NamedTuple):
    """One recovered device plus its workload-specific sharing bound."""

    name: str
    ssd: Ssd
    max_refs: int


def per_key_violations(label: str, recovered: Dict, durable: Dict,
                       inflight: Optional[Dict]) -> List[str]:
    """The per-key read-your-acknowledged-writes contract.

    Every key must read as its last-acknowledged value or (only while an
    operation was interrupted) its in-flight value — nothing else, no
    torn mixes, no phantoms."""
    violations = []
    every_key = set(durable) | set(recovered)
    if inflight is not None:
        every_key |= set(inflight)
    for key in sorted(every_key, key=repr):
        allowed = {repr(durable.get(key))}
        if inflight is not None:
            allowed.add(repr(inflight.get(key)))
        if repr(recovered.get(key)) not in allowed:
            violations.append(
                f"{label}: key {key!r} reads {recovered.get(key)!r}, "
                f"expected one of {sorted(allowed)}")
    return violations


def _small_ssd(faults: FaultPlan, clock: SimClock, l2p: str,
               block_count: int = 48, pages_per_block: int = 16,
               overprovision: float = 0.2, map_blocks: int = 4,
               share_entries: int = 64, gc_low_water: int = 3,
               gc_high_water: int = 6, spare_blocks: int = 0,
               queue_depth: int = 1, channel_count: int = 1,
               name: str = "ssd", events=None) -> Ssd:
    geometry = FlashGeometry(page_size=4096, pages_per_block=pages_per_block,
                             block_count=block_count,
                             overprovision_ratio=overprovision,
                             channel_count=channel_count)
    config = SsdConfig(geometry=geometry, timing=FAST_TIMING,
                       ftl=FtlConfig(map_block_count=map_blocks,
                                     share_table_entries=share_entries,
                                     gc_low_water=gc_low_water,
                                     gc_high_water=gc_high_water,
                                     spare_block_count=spare_blocks,
                                     l2p_strategy=l2p),
                       queue_depth=queue_depth)
    return Ssd(clock, config, faults=faults, name=name, events=events)


# --------------------------------------------------------------- ftl-basic


class FtlBasicHarness:
    """Raw device commands: writes, shares, trims, atomic writes, flushes.

    This is the layer where the ack-boundary journal is authoritative:
    the oracle is keyed off :meth:`FaultPlan.unacked_ops`, exactly like
    the strict property test."""

    name = "ftl-basic"

    def __init__(self, faults: FaultPlan, l2p: str = "flat") -> None:
        self.faults = faults
        self.clock = SimClock()
        # Small enough that the run's churn drives GC (so erase sites
        # exist for the media-fault sweep) while staying far from full.
        self.ssd = _small_ssd(faults, self.clock, l2p, block_count=18,
                              overprovision=0.2, share_entries=16,
                              spare_blocks=2)
        self.durable: Dict[int, object] = {}
        self.inflight: Dict[int, object] = {}
        self.crashed = False
        self.aborted = False   # run ended in a typed device error, not power
        self._span = 48
        self._share_members: set = set()

    def run(self) -> None:
        rng = random.Random(0x5EED)
        ssd = self.ssd
        try:
            for step in range(230):
                roll = rng.random()
                self.inflight = {}
                if roll < 0.45:
                    lpn = rng.randrange(self._span)
                    value = ("d", step, lpn)
                    self.inflight = {lpn: value}
                    ssd.write(lpn, value)
                    self.durable[lpn] = value
                    self._share_members.discard(lpn)
                elif roll < 0.58:
                    # Share from a source not already in a share pair so
                    # the 2-reference bound stays the workload's promise.
                    sources = [l for l in sorted(self.durable)
                               if l not in self._share_members]
                    if not sources:
                        continue
                    src = rng.choice(sources)
                    dst = rng.randrange(self._span)
                    if dst == src or dst in self._share_members:
                        continue
                    self.inflight = {dst: self.durable[src]}
                    try:
                        ssd.share(dst, src, 1)
                    except ShareError:
                        self.inflight = {}
                        continue
                    self.durable[dst] = self.durable[src]
                    self._share_members.update((src, dst))
                elif roll < 0.68:
                    lpn = rng.randrange(self._span)
                    if lpn not in self.durable:
                        continue
                    self.inflight = {lpn: TRIMMED}
                    ssd.trim(lpn)
                    # Acked trims are buffered until a flush barrier, so
                    # the strict model simply stops tracking the LPN.
                    self.durable.pop(lpn, None)
                    self._share_members.discard(lpn)
                elif roll < 0.80:
                    base = rng.randrange(self._span - 3)
                    items = [(base + i, ("a", step, base + i))
                             for i in range(3)]
                    self.inflight = {lpn: value for lpn, value in items}
                    ssd.write_atomic(items)
                    for lpn, value in items:
                        self.durable[lpn] = value
                        self._share_members.discard(lpn)
                elif roll < 0.93:
                    # Host read-back: gives the media-fault sweep read
                    # sites to target (and is how transient read errors
                    # get healed by scrubbing mid-run).
                    if not self.durable:
                        continue
                    lpn = rng.choice(sorted(self.durable))
                    ssd.read(lpn)
                else:
                    self.inflight = {}
                    ssd.flush()
                self.inflight = {}
        except PowerFailure:
            self.crashed = True
            raise
        except DeviceError:
            # A media-degraded device may end the run with a typed error
            # (never wrong data).  The interrupted op stays unacked, so
            # check_engine treats its LPNs as ambiguous, like a crash.
            self.aborted = True
            raise

    def recover(self) -> List[DeviceState]:
        self.ssd.power_cycle()
        return [DeviceState("ftl", self.ssd, 2)]

    def check_engine(self) -> List[str]:
        violations: List[str] = []
        ftl = self.ssd.ftl
        unacked = self.faults.unacked_ops()
        if self.crashed and not unacked:
            violations.append(
                "ftl: crash escaped run() without an operation record — "
                "a checkpoint fired outside every ack scope")
        if not self.crashed and not self.aborted and unacked:
            violations.append(
                f"ftl: no crash, yet operations are recorded unacked: "
                f"{unacked!r}")
        ambiguous = {lpn for op in unacked for lpn in op.lpns}
        for lpn, expected in sorted(self.durable.items()):
            if lpn not in ambiguous:
                # The strict contract: acknowledged writes MUST survive.
                if not ftl.is_mapped(lpn):
                    violations.append(
                        f"ftl: acked LPN {lpn} lost (expected {expected!r})")
                elif ftl.read(lpn) != expected:
                    violations.append(
                        f"ftl: acked LPN {lpn} reads {ftl.read(lpn)!r}, "
                        f"expected {expected!r}")
                continue
            pending = self.inflight.get(lpn)
            if pending is TRIMMED:
                if ftl.is_mapped(lpn) and ftl.read(lpn) != expected:
                    violations.append(
                        f"ftl: LPN {lpn} under interrupted trim reads "
                        f"{ftl.read(lpn)!r}, expected {expected!r} or "
                        f"unmapped")
            elif pending is None:
                if not ftl.is_mapped(lpn) or ftl.read(lpn) != expected:
                    violations.append(
                        f"ftl: acked LPN {lpn} (untouched by the "
                        f"interrupted op) must read {expected!r}")
            else:
                if not ftl.is_mapped(lpn):
                    violations.append(
                        f"ftl: LPN {lpn} lost under interrupted write")
                elif ftl.read(lpn) not in (expected, pending):
                    violations.append(
                        f"ftl: LPN {lpn} reads {ftl.read(lpn)!r}, expected "
                        f"{expected!r} or {pending!r}")
        # The group rule: the pages of an interrupted multi-page write
        # (write_atomic) are old-or-new *together*, never a mix.
        written = [lpn for lpn, pending in sorted(self.inflight.items())
                   if lpn in ambiguous and pending is not TRIMMED]
        took_new = [lpn for lpn in written if ftl.is_mapped(lpn)
                    and ftl.read(lpn) == self.inflight[lpn]]
        if took_new and len(took_new) < len(written):
            violations.append(
                f"ftl: interrupted write of LPNs {written} is torn — only "
                f"{took_new} read the new value")
        return violations

    def check_degraded(self) -> List[str]:
        """The contract while a dead page stays dead: every acked LPN
        outside the interrupted operation must read its exact value or
        raise a typed :class:`MediaError` — never wrong data."""
        violations: List[str] = []
        ftl = self.ssd.ftl
        ambiguous = {lpn for op in self.faults.unacked_ops()
                     for lpn in op.lpns}
        for lpn, expected in sorted(self.durable.items()):
            if lpn in ambiguous:
                continue
            if not ftl.is_mapped(lpn):
                violations.append(
                    f"ftl: acked LPN {lpn} lost under media fault "
                    f"(expected {expected!r})")
                continue
            try:
                value = ftl.read(lpn)
            except MediaError:
                continue   # a typed error IS the contract for a dead page
            if value != expected:
                violations.append(
                    f"ftl: acked LPN {lpn} silently corrupted under media "
                    f"fault: reads {value!r}, expected {expected!r}")
        return violations


# --------------------------------------------------------------- ftl-queued


class QueuedFtlHarness:
    """Raw device commands issued by concurrent closed-loop clients
    through a deep command queue over two channels.

    This is the ack-boundary contract under *concurrency*: commands from
    different clients overlap inside the device, completion events (and
    the deferred ``*.ack`` checkpoints the journal records) fire in
    device-completion order, and a crash may strand several in-flight
    commands at once.  The oracle therefore reasons per-LPN over the
    full unacked *set* — :meth:`FaultPlan.unacked_ops` — instead of the
    single interrupted operation the serial harnesses assume.

    Each client owns a disjoint LPN range, so the submission order of
    one LPN's writes is one session's order and the last-writer is
    well defined even while commands interleave.
    """

    name = "ftl-queued"

    #: clients, and the LPN span each one owns
    CLIENTS = 3
    SPAN = 16

    def __init__(self, faults: FaultPlan, l2p: str = "flat") -> None:
        self.faults = faults
        self.clock = SimClock()
        self.ssd = _small_ssd(faults, self.clock, l2p, block_count=20,
                              overprovision=0.2, share_entries=16,
                              spare_blocks=2, queue_depth=4,
                              channel_count=2)
        # Per-LPN submission history: every value ever submitted, in
        # session (= per-LPN completion) order.
        self.history: Dict[int, List[object]] = {}
        self.crashed = False
        self.aborted = False
        # LPNs currently in a share pair — never reused as a source or
        # destination, so the 2-reference media bound stays a promise
        # this workload keeps (as in ftl-basic).
        self._share_members: set = set()

    def run(self) -> None:
        from repro.ssd.ncq import DeviceSession
        rng = random.Random(0x0E0)
        ssd = self.ssd
        clock = self.clock
        sessions = [DeviceSession(client, clock.now_us)
                    for client in range(self.CLIENTS)]
        caller = clock.issuer
        try:
            for step in range(180):
                client = step % self.CLIENTS
                session = sessions[client]
                base = client * self.SPAN
                roll = rng.random()
                clock.issuer = session
                if roll < 0.62:
                    lpn = base + rng.randrange(self.SPAN)
                    value = ("q", step, lpn)
                    # History records the *submission* (before the
                    # command runs): a crash mid-command leaves this
                    # value as the LPN's trailing unacked entry.
                    self.history.setdefault(lpn, []).append(value)
                    self._share_members.discard(lpn)
                    ssd.write(lpn, value)
                elif roll < 0.82:
                    # Share within the client's own range (so the
                    # copied value is this session's latest) and
                    # never from or onto an existing pair member.
                    owned = [l for l in sorted(self.history)
                             if base <= l < base + self.SPAN
                             and l not in self._share_members]
                    if not owned:
                        continue
                    src = rng.choice(owned)
                    dst = base + rng.randrange(self.SPAN)
                    if dst == src or dst in self._share_members:
                        continue
                    self.history.setdefault(dst, []).append(
                        self.history[src][-1])
                    self._share_members.update((src, dst))
                    try:
                        ssd.share(dst, src, 1)
                    except ShareError:
                        self.history[dst].pop()
                        self._share_members.difference_update((src, dst))
                        continue
                elif roll < 0.94:
                    owned = [l for l in sorted(self.history)
                             if base <= l < base + self.SPAN]
                    if not owned:
                        continue
                    ssd.read(rng.choice(owned))
                else:
                    ssd.flush()
                ssd.poll(session.now_us)
            ssd.drain()
        except PowerFailure:
            self.crashed = True
            raise
        except DeviceError:
            self.aborted = True
            raise
        finally:
            clock.issuer = caller

    def recover(self) -> List[DeviceState]:
        self.ssd.power_cycle()
        return [DeviceState("ftl-queued", self.ssd, 2)]

    def check_engine(self) -> List[str]:
        violations: List[str] = []
        ftl = self.ssd.ftl
        unacked = self.faults.unacked_ops()
        if not self.crashed and not self.aborted and unacked:
            violations.append(
                f"ftl-queued: no crash, yet {len(unacked)} operations are "
                f"recorded unacked: {unacked!r}")
        # How many of each LPN's trailing submissions never acked.  A
        # write journals its one LPN; a share journals its destination.
        unacked_count: Dict[int, int] = {}
        for record in unacked:
            for lpn in record.lpns:
                unacked_count[lpn] = unacked_count.get(lpn, 0) + 1
        for lpn, values in sorted(self.history.items()):
            pending = min(unacked_count.get(lpn, 0), len(values))
            if pending == 0:
                # Every submission acked: the strict contract applies.
                expected = values[-1]
                if not ftl.is_mapped(lpn):
                    violations.append(
                        f"ftl-queued: acked LPN {lpn} lost "
                        f"(expected {expected!r})")
                elif ftl.read(lpn) != expected:
                    violations.append(
                        f"ftl-queued: acked LPN {lpn} reads "
                        f"{ftl.read(lpn)!r}, expected {expected!r}")
                continue
            # The trailing ``pending`` submissions are ambiguous; the
            # value before them is the last one known acked.
            allowed = {repr(v) for v in values[-pending:]}
            acked_prefix = values[:-pending]
            if acked_prefix:
                allowed.add(repr(acked_prefix[-1]))
                if not ftl.is_mapped(lpn):
                    violations.append(
                        f"ftl-queued: LPN {lpn} lost under interrupted "
                        f"rewrite (had acked value "
                        f"{acked_prefix[-1]!r})")
                    continue
            elif not ftl.is_mapped(lpn):
                continue   # first-ever write interrupted: unmapped is fine
            if repr(ftl.read(lpn)) not in allowed:
                violations.append(
                    f"ftl-queued: LPN {lpn} reads {ftl.read(lpn)!r}, "
                    f"expected one of {sorted(allowed)}")
        return violations


# -------------------------------------------------------------- couch-small


class CouchHarness:
    """Couchstore in SHARE mode: commits plus one mid-run compaction."""

    name = "couch-small"

    def __init__(self, faults: FaultPlan, l2p: str = "flat") -> None:
        self.faults = faults
        self.clock = SimClock()
        self.ssd = _small_ssd(faults, self.clock, l2p, block_count=64,
                              pages_per_block=16, overprovision=0.2,
                              spare_blocks=2)
        self.fs = HostFs(self.ssd, FsConfig(journal_blocks=8))
        self.config = CouchConfig(leaf_capacity=3, internal_fanout=4,
                                  prealloc_blocks=32)
        self.store = CouchStore(self.fs, "/db", CommitMode.SHARE,
                                self.config)
        self.durable: Dict = {}
        self.inflight: Optional[Dict] = None
        self.reopened: Optional[CouchStore] = None
        self.recovery_errors: List[str] = []

    def _batch(self, rng: random.Random, model: Dict, size: int,
               step: int) -> None:
        for __ in range(size):
            key = rng.randrange(24)
            if rng.random() < 0.8 or key not in model:
                value = ("doc", step, key, rng.randrange(1000))
                self.store.set(key, value)
                model[key] = value
            else:
                self.store.delete(key)
                model.pop(key, None)

    def run(self) -> None:
        rng = random.Random(0xC0C0)
        model = dict(self.durable)
        for step in range(7):
            self._batch(rng, model, 5, step)
            self.inflight = dict(model)
            self.store.commit()
            self.durable = dict(model)
            self.inflight = None
            if step == 3:
                self.store, __ = compact(self.store, self.clock)

    def guards(self):
        # Compaction hands the same guard to the compacted store, so this
        # stays correct across the mid-run compact().
        return [self.store.resilience]

    def recover(self) -> List[DeviceState]:
        self.ssd.power_cycle()
        try:
            self.reopened = CouchStore.reopen(self.fs, "/db",
                                              CommitMode.SHARE, self.config)
            abandon_partial(self.reopened)
        except ReproError as exc:  # a reopen failure IS the finding
            self.recovery_errors.append(f"couch: reopen failed: {exc!r}")
        return [DeviceState("couch", self.ssd, 3)]

    def check_engine(self) -> List[str]:
        violations = list(self.recovery_errors)
        if self.reopened is None:
            return violations
        recovered = dict(self.reopened.items())
        violations += per_key_violations("couch", recovered, self.durable,
                                         self.inflight)
        try:
            self.reopened.set(999, "post-crash")
            self.reopened.commit()
            if self.reopened.get(999) != "post-crash":
                violations.append("couch: post-recovery write not readable")
        except ReproError as exc:
            violations.append(f"couch: store unusable after recovery: "
                              f"{exc!r}")
        return violations


# ---------------------------------------------------------- linkbench-small


class LinkbenchHarness:
    """The acceptance workload: an InnoDB linkbench-style graph store in
    SHARE mode (tight over-provisioning, so GC runs under the SHARE
    traffic) interleaved with a couchstore document store — three devices
    behind one fault plan, so every layer's points land in one sweep."""

    name = "linkbench-small"

    def __init__(self, faults: FaultPlan, l2p: str = "flat") -> None:
        self.faults = faults
        self.clock = SimClock()
        # A small data device with tight over-provisioning and aggressive
        # watermarks: the flush churn drains its free pool, so GC runs
        # underneath the SHARE remaps (the interaction the sweep must
        # cover).
        self.data_ssd = _small_ssd(faults, self.clock, l2p, block_count=20,
                                   pages_per_block=8, overprovision=0.1,
                                   map_blocks=3, gc_low_water=8,
                                   gc_high_water=10)
        self.log_ssd = _small_ssd(faults, self.clock, l2p, block_count=32,
                                  pages_per_block=16, overprovision=0.25)
        self.couch_ssd = _small_ssd(faults, self.clock, l2p,
                                    block_count=64, pages_per_block=16,
                                    overprovision=0.2, spare_blocks=2)
        self.iconfig = InnoDBConfig(buffer_pool_pages=32,
                                    flush_batch_pages=8, dwb_pages=8,
                                    leaf_capacity=8, internal_fanout=8,
                                    dirty_flush_threshold=0.25,
                                    file_grow_chunk=16)
        self.fs_config = FsConfig(journal_blocks=8)
        self.engine = InnoDBEngine(FlushMode.SHARE, self.data_ssd,
                                   self.log_ssd, self.iconfig,
                                   faults=faults, fs_config=self.fs_config)
        self.engine.create_table("node")
        self.engine.create_table("link")
        self.couch_fs = HostFs(self.couch_ssd, FsConfig(journal_blocks=8))
        self.couch_config = CouchConfig(leaf_capacity=3, internal_fanout=4,
                                        prealloc_blocks=32)
        self.store = CouchStore(self.couch_fs, "/db", CommitMode.SHARE,
                                self.couch_config)
        self.idurable: Dict[str, Dict] = {"node": {}, "link": {}}
        self.iinflight: Optional[Dict[str, Dict]] = None
        self.cdurable: Dict = {}
        self.cinflight: Optional[Dict] = None
        self.rec_engine = None
        self.rec_couch = None
        self.recovery_errors: List[str] = []

    # one linkbench-ish transaction: touch nodes and the links between them
    def _txn_ops(self, rng: random.Random, step: int):
        ops = []
        for __ in range(rng.randrange(3, 7)):
            kind = rng.random()
            node = rng.randrange(64)
            if kind < 0.5:
                ops.append(("node", node, ("n", step, rng.randrange(1000))))
            elif kind < 0.85:
                other = rng.randrange(64)
                ops.append(("link", (node, other),
                            ("l", step, rng.randrange(1000))))
            else:
                other = rng.randrange(64)
                ops.append(("link", (node, other), None))   # delete
        return ops

    def run(self) -> None:
        rng = random.Random(0x11B)
        cmodel = dict(self.cdurable)
        for step in range(26):
            # InnoDB transaction
            ops = self._txn_ops(rng, step)
            pending = {"node": dict(self.idurable["node"]),
                       "link": dict(self.idurable["link"])}
            for table, key, value in ops:
                if value is None:
                    pending[table].pop(key, None)
                else:
                    pending[table][key] = value
            self.iinflight = pending
            with self.engine.transaction() as txn:
                for table, key, value in ops:
                    if value is None:
                        txn.delete(table, key)
                    else:
                        txn.put(table, key, value)
            self.idurable = {t: dict(pending[t]) for t in pending}
            self.iinflight = None
            # Couchstore batch every third step
            if step % 3 == 0:
                for __ in range(4):
                    key = rng.randrange(20)
                    value = ("doc", step, key, rng.randrange(1000))
                    self.store.set(key, value)
                    cmodel[key] = value
                self.cinflight = dict(cmodel)
                self.store.commit()
                self.cdurable = dict(cmodel)
                self.cinflight = None
            if step == 7:
                self.store, __ = compact(self.store, self.clock)
            if step % 2 == 1:
                self.engine.checkpoint()

    def guards(self):
        return [self.engine.dwb.resilience, self.store.resilience]

    def recover(self) -> List[DeviceState]:
        try:
            self.rec_engine, __ = innodb_recover(
                FlushMode.SHARE, self.data_ssd, self.log_ssd, self.iconfig,
                fs_config=self.fs_config)
        except ReproError as exc:
            self.recovery_errors.append(f"innodb: recovery failed: {exc!r}")
        self.couch_ssd.power_cycle()
        try:
            self.rec_couch = CouchStore.reopen(self.couch_fs, "/db",
                                               CommitMode.SHARE,
                                               self.couch_config)
            abandon_partial(self.rec_couch)
        except ReproError as exc:
            self.recovery_errors.append(f"couch: reopen failed: {exc!r}")
        return [DeviceState("innodb-data", self.data_ssd, 2),
                DeviceState("innodb-log", self.log_ssd, 2),
                DeviceState("couch", self.couch_ssd, 3)]

    def check_engine(self) -> List[str]:
        violations = list(self.recovery_errors)
        if self.rec_engine is not None:
            for table in ("node", "link"):
                durable = self.idurable[table]
                inflight = (self.iinflight[table]
                            if self.iinflight is not None else None)
                keys = set(durable) | (set(inflight) if inflight else set())
                recovered: Dict = {}
                if table in self.rec_engine.tables:
                    tree = self.rec_engine.table(table)
                    recovered = {key: tree.get(key) for key in keys
                                 if tree.get(key) is not None}
                violations += per_key_violations(f"innodb.{table}",
                                                 recovered, durable,
                                                 inflight)
            try:
                if "node" not in self.rec_engine.tables:
                    self.rec_engine.create_table("node")
                with self.rec_engine.transaction() as txn:
                    txn.put("node", 999, "post-crash")
                if self.rec_engine.table("node").get(999) != "post-crash":
                    violations.append(
                        "innodb: post-recovery write not readable")
            except ReproError as exc:
                violations.append(
                    f"innodb: engine unusable after recovery: {exc!r}")
        if self.rec_couch is not None:
            recovered = dict(self.rec_couch.items())
            violations += per_key_violations("couch", recovered,
                                             self.cdurable, self.cinflight)
        return violations


# -------------------------------------------------------------- sqlite-share


class SqliteHarness:
    """SQLite-like engine in SHARE journal mode."""

    name = "sqlite-share"

    def __init__(self, faults: FaultPlan, l2p: str = "flat") -> None:
        self.faults = faults
        self.clock = SimClock()
        self.ssd = _small_ssd(faults, self.clock, l2p, block_count=64,
                              pages_per_block=16, overprovision=0.2)
        self.fs = HostFs(self.ssd, FsConfig(journal_blocks=8))
        self.page_count = 256
        self.db = SqliteLikeDb(self.fs, "/app.db", JournalMode.SHARE,
                               page_count=self.page_count, faults=faults)
        self.durable: Dict = {}
        self.inflight: Optional[Dict] = None
        self.reopened = None
        self.recovery_errors: List[str] = []

    def run(self) -> None:
        rng = random.Random(0x51E)
        model = dict(self.durable)
        for step in range(8):
            pending = dict(model)
            ops = []
            for __ in range(rng.randrange(1, 4)):
                key = rng.randrange(20)
                if rng.random() < 0.85 or key not in pending:
                    value = ("row", step, key, rng.randrange(1000))
                    pending[key] = value
                    ops.append((key, value))
                else:
                    pending.pop(key, None)
                    ops.append((key, None))
            self.inflight = dict(pending)
            with self.db.transaction():
                for key, value in ops:
                    if value is None:
                        self.db.delete(key)
                    else:
                        self.db.put(key, value)
            model = pending
            self.durable = dict(model)
            self.inflight = None

    def guards(self):
        return [self.db.pager.resilience]

    def recover(self) -> List[DeviceState]:
        self.ssd.power_cycle()
        try:
            self.reopened = SqliteLikeDb.open(self.fs, "/app.db",
                                              JournalMode.SHARE,
                                              page_count=self.page_count)
        except ReproError as exc:
            self.recovery_errors.append(f"sqlite: reopen failed: {exc!r}")
        return [DeviceState("sqlite", self.ssd, 2)]

    def check_engine(self) -> List[str]:
        violations = list(self.recovery_errors)
        if self.reopened is None:
            return violations
        recovered = dict(self.reopened.items())
        violations += per_key_violations("sqlite", recovered, self.durable,
                                         self.inflight)
        try:
            self.reopened.put(999, "post-crash")
            if self.reopened.get(999) != "post-crash":
                violations.append("sqlite: post-recovery write not readable")
        except ReproError as exc:
            violations.append(f"sqlite: db unusable after recovery: {exc!r}")
        return violations


# --------------------------------------------------------- datajournal-share


class DataJournalHarness:
    """data=journal filesystem with SHARE checkpoints and epoch replay."""

    name = "datajournal-share"

    def __init__(self, faults: FaultPlan, l2p: str = "flat") -> None:
        self.faults = faults
        self.clock = SimClock()
        self.ssd = _small_ssd(faults, self.clock, l2p, block_count=48,
                              pages_per_block=16, overprovision=0.2)
        self.fs = HostFs(self.ssd, FsConfig(journal_blocks=8))
        self.journal = DataJournalingFs(self.fs, CheckpointMode.SHARE,
                                        journal_blocks=16)
        self.file = self.fs.create("/data")
        self.file.fallocate(48)
        self.durable: Dict[int, object] = {}
        self.inflight: Optional[Dict[int, object]] = None
        self.recovery_errors: List[str] = []

    def run(self) -> None:
        rng = random.Random(0xDA7A)
        for step in range(12):
            writes = {rng.randrange(48): ("blk", step, i)
                      for i in range(rng.randrange(1, 5))}
            self.inflight = dict(self.durable)
            self.inflight.update(writes)
            self.journal.begin()
            for block, value in sorted(writes.items()):
                self.journal.journaled_write(self.file, block, value)
            self.journal.commit()
            self.durable = dict(self.inflight)
            self.inflight = None
            if step in (4, 9):
                self.journal.checkpoint()

    def guards(self):
        return [self.journal.resilience]

    def recover(self) -> List[DeviceState]:
        self.ssd.power_cycle()
        try:
            self.journal.rescan()
        except ReproError as exc:
            self.recovery_errors.append(
                f"datajournal: rescan failed: {exc!r}")
        return [DeviceState("datajournal", self.ssd, 2)]

    def check_engine(self) -> List[str]:
        violations = list(self.recovery_errors)
        if violations:
            return violations
        keys = set(self.durable)
        if self.inflight is not None:
            keys |= set(self.inflight)
        recovered = {}
        for block in keys:
            try:
                recovered[block] = self.journal.read(self.file, block)
            except ReproError:
                recovered[block] = None
        return violations + per_key_violations(
            "datajournal", recovered, self.durable, self.inflight)


# ------------------------------------------------------------ postgres-small


class PostgresHarness:
    """Heap + WAL engine: commits, scheduled checkpoints, WAL replay."""

    name = "postgres-small"

    def __init__(self, faults: FaultPlan, l2p: str = "flat") -> None:
        self.faults = faults
        self.clock = SimClock()
        self.data_ssd = _small_ssd(faults, self.clock, l2p, block_count=48,
                                   pages_per_block=16, overprovision=0.2)
        self.wal_ssd = _small_ssd(faults, self.clock, l2p, block_count=48,
                                  pages_per_block=16, overprovision=0.2)
        self.config = PostgresConfig(full_page_writes=True,
                                     checkpoint_interval_commits=4,
                                     rows_per_page=4)
        self.engine = PostgresEngine(self.data_ssd, self.wal_ssd,
                                     self.config)
        self.rows = 48
        self.engine.create_table("accounts", self.rows)
        self.catalog = {"accounts": (self.engine._tables["accounts"],
                                     self.engine._table_pages["accounts"])}
        self.durable: Dict[int, object] = {}
        self.inflight: Optional[Dict[int, object]] = None
        self.recovered: Optional[Dict[int, object]] = None
        self.recovery_errors: List[str] = []

    def run(self) -> None:
        rng = random.Random(0x9065)
        for step in range(10):
            updates = {rng.randrange(self.rows): ("acct", step, i)
                       for i in range(rng.randrange(1, 4))}
            pending = dict(self.durable)
            pending.update(updates)
            self.inflight = pending
            for row_id, value in sorted(updates.items()):
                self.engine.update_row("accounts", row_id, value)
            self.engine.commit()
            self.durable = dict(pending)
            self.inflight = None

    def recover(self) -> List[DeviceState]:
        self.data_ssd.power_cycle()
        self.wal_ssd.power_cycle()
        try:
            state = recover_row_state(self.data_ssd, self.wal_ssd,
                                      self.catalog)
            self.recovered = state["accounts"]
        except ReproError as exc:
            self.recovery_errors.append(f"postgres: replay failed: {exc!r}")
        return [DeviceState("postgres-data", self.data_ssd, 2),
                DeviceState("postgres-wal", self.wal_ssd, 2)]

    def check_engine(self) -> List[str]:
        violations = list(self.recovery_errors)
        if self.recovered is None:
            return violations
        return violations + per_key_violations(
            "postgres", self.recovered, self.durable, self.inflight)


#: The device-level harnesses, the acceptance workload first (it is the
#: default of every family that sweeps them).
WORKLOADS = {
    harness.name: harness
    for harness in (LinkbenchHarness, FtlBasicHarness, QueuedFtlHarness,
                    CouchHarness, SqliteHarness, DataJournalHarness,
                    PostgresHarness)
}
