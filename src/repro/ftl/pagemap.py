"""Page-mapping FTL with the SHARE extension.

This is the firmware of the reproduction's OpenSSD stand-in.  It owns:

* the forward L2P table — a pluggable :class:`~repro.ftl.mapping.MappingStrategy`
  selected by ``config.l2p_strategy`` (:mod:`repro.ftl.mapping`),
* the reverse-reference tracking with the bounded share table
  (:mod:`repro.ftl.reverse`),
* greedy garbage collection over the data blocks,
* the mapping delta log and its checkpointing
  (:mod:`repro.ftl.deltalog`),
* crash recovery that merges spare-area stamps with logged deltas by
  sequence number.

Layout: the last ``config.map_block_count`` blocks of the array hold the
mapping log; every other block is a data block.  The logical address space
is sized off the data blocks with the geometry's over-provisioning ratio
held back for GC headroom.

Media faults degrade the device gracefully instead of killing it:

* an uncorrectable read is retried up to ``READ_RETRIES`` times;
  a page that needed retries is *scrubbed* — relocated to a fresh PPN
  (copy-safe for shared pages: every referencing LPN is stamped on the
  copy) — before it decays further;
* a program failure retires the active block (grown bad): its live pages
  are evacuated, a ``badblk`` delta record persists the retirement, a
  spare block backfills the free pool, and the host program retries at a
  fresh PPN;
* an erase failure at GC time retires the victim the same way, without
  returning it to the free pool;
* a page that stays unreadable keeps its mapping pinned into the retired
  block so host reads surface the typed :class:`UncorrectableReadError`
  — the device never returns wrong data silently.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import count as count_from
from operator import attrgetter, itemgetter
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import (
    EraseFailError,
    FtlError,
    MediaError,
    OutOfSpaceError,
    ProgramFailError,
    ShareError,
    UncorrectableReadError,
    UnmappedPageError,
)
from repro.flash.nand import NandArray
from repro.ftl.blocks import BlockTable
from repro.ftl.config import READ_RETRIES, FtlConfig
from repro.ftl.deltalog import (
    KIND_AWRITE,
    KIND_BADBLK,
    KIND_SHARE,
    KIND_SNAP,
    KIND_TRIM,
    KIND_XCOMMIT,
    DeltaRecord,
    MapLog,
)
from repro.ftl.mapping import UNMAPPED, create_strategy
from repro.ftl.reverse import ReverseMap
from repro.ftl.share_ext import expand_range, observe_batch, validate_batch
from repro.obs import COUNTER, GAUGE, NULL_TELEMETRY
from repro.sim.faults import NO_FAULTS, FaultPlan


@dataclass
class FtlStats:
    """Cumulative firmware counters (Figure 6's metrics and more)."""

    host_page_writes: int = 0
    host_page_reads: int = 0
    gc_events: int = 0
    copyback_pages: int = 0
    block_erases: int = 0
    share_commands: int = 0
    share_pairs: int = 0
    share_log_spills: int = 0      # share-table entries spilled to flash
    spill_lookups: int = 0         # GC reads of spilled reverse mappings
    trim_commands: int = 0
    trim_pages: int = 0
    wear_level_moves: int = 0
    read_retries: int = 0          # extra read attempts that were needed
    read_relocations: int = 0      # pages scrubbed after a retried read
    uncorrectable_reads: int = 0   # reads that failed even after retries
    program_fails: int = 0
    erase_fails: int = 0
    corrupt_map_pages: int = 0     # mapping-log pages skipped at recovery

    def as_dict(self) -> Dict[str, int]:
        return dict(self.__dict__)


#: Levels and counts only the firmware knows, as ``(name, kind,
#: extractor over the FTL)`` rows.  The owning device registers them as
#: ``device.<name>.ftl.*`` and reads them through its *current* FTL, so
#: they survive a power cycle (counters with a ``DeviceStats`` field are
#: the device's rows, not these).
FTL_ROWS = (
    ("free_blocks", GAUGE, attrgetter("free_block_count")),
    ("share.spill_hwm", GAUGE, attrgetter("rev.spilled_peak")),
    ("maplog.checkpoints", COUNTER, attrgetter("maplog.checkpoints")),
    ("l2p.footprint_bytes", GAUGE, lambda ftl: ftl.fwd.footprint_bytes()),
    ("l2p.runs", GAUGE, lambda ftl: ftl.fwd.fragment_count()),
    ("l2p.remap_splits", GAUGE, attrgetter("fwd.remap_splits")),
)

#: The ``media.*`` degradation figures as telemetry rows: each reads its
#: key of :meth:`PageMappingFtl.media_report`, the one place they are
#: gathered.  The grown-bad count and the spare pool are levels.
MEDIA_ROWS = tuple(
    (name, kind, lambda ftl, name=name: ftl.media_report()[name])
    for name, kind in (
        ("read_retries", COUNTER), ("read_relocations", COUNTER),
        ("uncorrectable_reads", COUNTER), ("program_fails", COUNTER),
        ("erase_fails", COUNTER), ("grown_bad_blocks", GAUGE),
        ("corrupt_map_pages", COUNTER), ("spare_pool", GAUGE)))


@dataclass
class _RecoveredState:
    """Intermediate result of the media scan during recovery."""

    winners: Dict[int, Tuple[int, Optional[int], str]] = field(default_factory=dict)
    max_seq: int = 0
    grown_bad: Dict[int, int] = field(default_factory=dict)  # block -> seq


class PageMappingFtl:
    """The firmware: read/write/trim/share/flush over a :class:`NandArray`.

    All mapping state is volatile; only the NAND array persists.  Tests
    simulate power failure by abandoning the FTL instance and calling
    :meth:`recover` on the same array.
    """

    def __init__(self, nand: NandArray, config: Optional[FtlConfig] = None,
                 faults: FaultPlan = NO_FAULTS, telemetry=None) -> None:
        self.nand = nand
        self.geometry = nand.geometry
        self.config = config or FtlConfig()
        self.faults = faults
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        geometry = self.geometry
        if self.config.map_block_count >= geometry.block_count - 4:
            raise ValueError("map region leaves too few data blocks")
        self._map_blocks = list(range(
            geometry.block_count - self.config.map_block_count,
            geometry.block_count))
        self._data_blocks = list(range(
            geometry.block_count - self.config.map_block_count))
        data_pages = len(self._data_blocks) * geometry.pages_per_block
        self._logical_pages = int(data_pages * (1.0 - geometry.overprovision_ratio))
        self.fwd = create_strategy(self.config.l2p_strategy,
                                   self._logical_pages,
                                   self.config.l2p_group_pages)
        # Hot-path fast lane: the raw LPN-indexed list on the flat
        # backing, None otherwise (strategies answer through get()).
        self._fwd_table = self.fwd.table
        self.rev = ReverseMap(self.config.share_table_entries,
                              geometry.total_pages)
        self._records_per_page = self.config.deltas_per_page(geometry.page_size)
        self.map_work: List[int] = []
        self.maplog = MapLog(nand, geometry, self._map_blocks,
                             self._records_per_page, faults,
                             telemetry=self.telemetry, ledger=self.map_work)
        self.maplog.set_snapshot_provider(self._snapshot_records)
        self.stats = FtlStats()
        # SHARE batch-shape histograms (None when telemetry is off).
        # Counters and gauges are not pushed: FTL_ROWS / MEDIA_ROWS are
        # read off this object when the owning device is snapshotted.
        self._m_batch_pairs = self.telemetry.histogram(
            "ftl.share.batch_pairs")
        self._m_contiguous_runs = self.telemetry.histogram(
            "ftl.share.contiguous_runs")
        # Block state, owned here (repro.ftl.blocks): the hot path never
        # asks the media or the geometry what the firmware itself just
        # decided.  The write-pointer and valid-count lists are indexed
        # by block number (data blocks are 0..n-1) and bumped in place.
        # Bad-block management rides along: spare blocks held back from
        # the free pool as replacements, and the persisted grown-bad set
        # (block -> the seq of its badblk record).
        self._pages_per_block = geometry.pages_per_block
        self._channel_count = geometry.channel_count
        if self.config.spare_block_count >= len(self._data_blocks) - 4:
            raise ValueError("spare_block_count leaves too few data blocks")
        self._blocks = BlockTable(
            len(self._data_blocks), geometry.pages_per_block,
            geometry.channel_count, self.config.spare_block_count)
        self._write_ptr = self._blocks.write_ptr
        self._valid_count = self._blocks.valid
        self._grown_bad: Dict[int, int] = {}
        # Channel-striped host allocation: one active block per channel,
        # filled round-robin so sequential writes spread across channels.
        # At channel_count == 1 this degenerates to the single active
        # block + FIFO free-list behaviour of the serial model.
        self._active_host: List[Optional[int]] = [None] * self._channel_count
        self._host_cursor = 0
        self._active_gc: Optional[int] = None
        # Charged-work ledger: (kind, channel) entries appended at the
        # exact sites where the latency-formula counters increment, so
        # the device can place each command's internal work on the right
        # channel; ``map_work`` is the map log's half (channels of its
        # page programs).  Public so the device can see, without a call,
        # whether anything is pending; drained only via take_work().
        self.work: List[Tuple[str, int]] = []
        self._seq = 1
        self._share_backed: Dict[int, Tuple[int, int]] = {}
        self._trim_tombstones: Dict[int, int] = {}
        self._pending_trims: List[DeltaRecord] = []
        # X-FTL shadow state: per-transaction staged pages, and a reverse
        # view so GC can move (without stamping) pages that belong to an
        # uncommitted transaction.
        self._txn_shadow: Dict[int, Dict[int, int]] = {}
        self._shadow_owner: Dict[int, Tuple[int, int]] = {}
        self._in_gc = False

    # ------------------------------------------------------------ geometry

    @property
    def logical_pages(self) -> int:
        """Size of the LPN address space exposed to the host."""
        return self._logical_pages

    @property
    def page_size(self) -> int:
        return self.geometry.page_size

    @property
    def max_share_batch(self) -> int:
        """Largest atomic SHARE batch (one mapping page of deltas)."""
        return self._records_per_page

    @property
    def free_block_count(self) -> int:
        return self._blocks.free_count

    def free_blocks(self) -> List[int]:
        """The free pool, oldest first."""
        return self._blocks.free_blocks()

    def spare_blocks(self) -> List[int]:
        """Erased blocks held back as grown-bad replacements."""
        return list(self._blocks.spares)

    def active_blocks(self) -> Dict[str, int]:
        """The open blocks by slot: ``gc`` and ``host(ch<N>)``."""
        slots = {f"host(ch{channel})": block
                 for channel, block in enumerate(self._active_host)}
        slots["gc"] = self._active_gc
        return {slot: block for slot, block in slots.items()
                if block is not None}

    @property
    def map_page_writes(self) -> int:
        return self.maplog.page_writes

    # --------------------------------------------------- charged-work ledger

    def _note_work(self, kind: str, ppn: int) -> None:
        self.work.append(
            (kind, ppn // self._pages_per_block % self._channel_count))

    def take_work(self) -> List[Tuple[str, int]]:
        """Drain the ``(kind, channel)`` ledger of charged work since the
        last drain (including the map log's page programs).  The device
        calls this once per command to attribute the command's internal
        work to channels; totals are always derived from the stats
        counters, so a drained ledger only ever affects *placement*.

        When both ledgers are empty (the common no-internal-work
        command) the *live* empty list is returned without allocating a
        replacement; callers only read the result."""
        work = self.work
        if work:
            self.work = []
        map_channels = self.map_work
        if map_channels:
            if not work:
                # Never extend the live (still-installed) empty ledger.
                work = []
            work.extend([("map_write", ch) for ch in map_channels])
            del map_channels[:]
        return work

    def _check_lpn_range(self, lpn: int, count: int = 1) -> None:
        if count < 1:
            raise ValueError(f"count must be >= 1: {count}")
        if lpn < 0 or lpn + count > self._logical_pages:
            raise ValueError(
                f"LPN range [{lpn}, {lpn + count}) outside logical space "
                f"[0, {self._logical_pages})")

    # ------------------------------------------------------------- host IO

    def read(self, lpn: int) -> Any:
        """Return the page image of ``lpn``.

        Raises :class:`UncorrectableReadError` when the backing page is
        unreadable even after firmware read-retry — the typed error is the
        contract: the host never receives wrong data silently."""
        # Host read / write inline the range test and _note_work (and
        # _next_seq, the GC threshold); the helpers serve other callers.
        if not 0 <= lpn < self._logical_pages:
            self._check_lpn_range(lpn)   # raises
        # Range checked above: index the raw L2P table directly on the
        # flat backing (the fast lane — one None-compare of indirection),
        # ask the strategy on the compact backings.
        table = self._fwd_table
        ppn = table[lpn] if table is not None else self.fwd.get(lpn)
        if ppn == UNMAPPED:
            raise UnmappedPageError(f"LPN {lpn} is unmapped")
        self.stats.host_page_reads += 1
        self.work.append(
            ("host_read", ppn // self._pages_per_block % self._channel_count))
        return self._read_page(ppn, scrub_ok=True)

    def is_mapped(self, lpn: int) -> bool:
        self._check_lpn_range(lpn)
        return self.fwd.is_mapped(lpn)

    def write(self, lpn: int, data: Any) -> None:
        """Program ``data`` for ``lpn`` out of place and remap."""
        if self.faults.passive:   # no journal, no fuses: a straight line
            self._write(lpn, data, None)
        else:
            with self.faults.operation("ftl.write", (lpn,)):
                self._write(lpn, data, self.faults)

    def _write(self, lpn: int, data: Any, fuses: Optional[FaultPlan]) -> None:
        if not 0 <= lpn < self._logical_pages:
            self._check_lpn_range(lpn)   # raises
        if self._blocks.free_count <= self.config.gc_low_water:
            self._ensure_free_space()
        seq = self._seq
        self._seq = seq + 1
        if fuses is not None:
            fuses.checkpoint("ftl.before_program")
        ppn = self._program_data(data, ((lpn, seq),), for_gc=False)
        self.work.append(("host_program",
                          ppn // self._pages_per_block % self._channel_count))
        if fuses is not None:
            fuses.checkpoint("ftl.after_program")
        old = self.fwd.update(lpn, ppn)
        self.rev.set_primary(ppn, lpn)
        self._valid_count[ppn // self._pages_per_block] += 1
        if old is not None and old != ppn and self.rev.drop_ref(old, lpn):
            self._valid_count[old // self._pages_per_block] -= 1
        if lpn in self._share_backed:
            del self._share_backed[lpn]
        if lpn in self._trim_tombstones:
            del self._trim_tombstones[lpn]
        self.stats.host_page_writes += 1

    # ------------------------------------------------------- media handling

    def _read_page(self, ppn: int, scrub_ok: bool = False) -> Any:
        """NAND read with firmware read-retry.

        Retries up to ``READ_RETRIES`` extra attempts; when a read
        only succeeded after retries and ``scrub_ok`` is set, the page is
        scrubbed (relocated) so the decaying cell is healed before it dies
        outright.  A read that stays uncorrectable raises the typed error.
        """
        attempt = 0
        while True:
            try:
                data = self.nand.read(ppn)
            except UncorrectableReadError:
                if attempt >= READ_RETRIES:
                    self.stats.uncorrectable_reads += 1
                    raise
                attempt += 1
                self.stats.read_retries += 1
                continue
            if attempt and scrub_ok:
                self._scrub(ppn, data)
            return data

    def _scrub(self, ppn: int, data: Any) -> None:
        """Best-effort relocation of a page that needed read-retry.

        Copy-safe for shared pages: the fresh copy is stamped with *every*
        referencing LPN, so all of them survive recovery.  Skipped when the
        page cannot be moved safely right now (mid-GC, shadow page, or no
        space) — the next retried read gets another chance."""
        if self._in_gc or ppn in self._shadow_owner or not self.rev.is_valid(ppn):
            return
        refs = sorted(self.rev.refs(ppn))
        stamps = tuple((lpn, self._next_seq()) for lpn in refs)
        try:
            new_ppn = self._program_data(data, stamps, for_gc=False)
        except (MediaError, OutOfSpaceError):
            return
        self.rev.move_page(ppn, new_ppn, refs)
        self._valid_count[ppn // self._pages_per_block] -= 1
        self._valid_count[new_ppn // self._pages_per_block] += 1
        for lpn in refs:
            self.fwd.update(lpn, new_ppn)
            self._share_backed.pop(lpn, None)
        self.stats.read_relocations += 1

    def _program_data(self, data: Any, spare, for_gc: bool) -> int:
        """Program a data page, surviving program failures.

        On a failure the consumed page's block grows bad — live pages are
        evacuated, the retirement is persisted, a spare backfills the free
        pool — and the program retries at a fresh PPN, up to
        ``config.program_retry_limit`` blocks before surfacing the typed
        error."""
        last_error: Optional[ProgramFailError] = None
        for __ in range(self.config.program_retry_limit):
            ppn = self._alloc_page(for_gc)
            try:
                self.nand.program(ppn, data, spare=spare)
            except ProgramFailError as exc:
                last_error = exc
                self.stats.program_fails += 1
                self._retire_block(ppn // self._pages_per_block,
                                   frozenset(lpn for lpn, __ in spare))
                continue
            return ppn
        raise ProgramFailError(
            f"program failed on {self.config.program_retry_limit} "
            f"consecutive blocks: {last_error}")

    def _retire_block(self, block: int,
                      inflight: frozenset = frozenset()) -> None:
        """Grow ``block`` bad (idempotent): evacuate its live pages,
        persist a ``badblk`` record, and backfill the free pool from the
        spare pool.  The block is never erased or reused again; any page
        that cannot be evacuated keeps its mapping pinned here so host
        reads surface the typed error instead of wrong data.

        ``inflight`` names LPNs whose *new* version is mid-program with an
        already-assigned sequence number: evacuation must not re-stamp
        their old copies, or the fresh (higher) stamp would beat the
        in-flight write at recovery and resurrect stale data."""
        if block in self._grown_bad:
            return
        # Only an open or a closed block ever retires (a program failed
        # on it, or it was a GC victim): vacate its slot if it holds one.
        if block == self._active_gc:
            self._active_gc = None
        elif self._active_host[block % self._channel_count] == block:
            self._active_host[block % self._channel_count] = None
        seq = self._next_seq()
        self._grown_bad[block] = seq
        # A spare is released first: the evacuation below may need the
        # space.
        self._blocks.retire(block)
        self._evacuate(block, inflight, tolerant=True)
        self.maplog.append_atomic(
            [DeltaRecord(KIND_BADBLK, block, None, None, seq)])

    @property
    def grown_bad_blocks(self) -> Set[int]:
        """Blocks retired for media failures (never erased or reused)."""
        return set(self._grown_bad)

    @property
    def spare_pool_level(self) -> int:
        return len(self._blocks.spares)

    def media_report(self) -> Dict[str, int]:
        """The ``media.*`` degradation figures as one snapshot."""
        return {
            "read_retries": self.stats.read_retries,
            "read_relocations": self.stats.read_relocations,
            "uncorrectable_reads": self.stats.uncorrectable_reads,
            "program_fails": self.stats.program_fails,
            "erase_fails": self.stats.erase_fails,
            "grown_bad_blocks": len(self._grown_bad),
            "corrupt_map_pages": self.stats.corrupt_map_pages,
            "spare_pool": len(self._blocks.spares),
        }

    # ---------------------------------------------------------------- X-FTL

    def begin_txn(self) -> int:
        """Open an X-FTL transaction (Section 6.2's baseline): subsequent
        :meth:`write_txn` pages stay invisible until :meth:`commit_txn`."""
        txn_id = self._next_seq()
        self._txn_shadow[txn_id] = {}
        return txn_id

    def write_txn(self, txn_id: int, lpn: int, data: Any) -> None:
        """Stage an update-in-place write under a transaction.

        The page is programmed immediately (unstamped, so a crash leaves
        it invisible) but the forward map keeps pointing at the old
        version until commit — X-FTL's shadow-paging-in-the-FTL."""
        shadow = self._txn_shadow.get(txn_id)
        if shadow is None:
            raise FtlError(f"unknown transaction: {txn_id}")
        self._check_lpn_range(lpn)
        if len(shadow) >= self._records_per_page and lpn not in shadow:
            raise FtlError(
                f"transaction exceeds the atomic commit capacity of "
                f"{self._records_per_page} pages")
        self._ensure_free_space()
        ppn = self._program_data(data, (), for_gc=False)
        self._note_work("host_program", ppn)
        old_shadow_ppn = shadow.get(lpn)
        if old_shadow_ppn is not None:
            # Restaged within the txn: the earlier shadow copy dies.
            self._shadow_owner.pop(old_shadow_ppn, None)
            self._valid_count[old_shadow_ppn // self._pages_per_block] -= 1
        shadow[lpn] = ppn
        self._shadow_owner[ppn] = (txn_id, lpn)
        self._valid_count[ppn // self._pages_per_block] += 1
        self.stats.host_page_writes += 1

    def txn_lpns(self, txn_id: int) -> Tuple[int, ...]:
        """The LPNs staged under ``txn_id`` so far (none when unknown)."""
        return tuple(self._txn_shadow.get(txn_id, ()))

    def commit_txn(self, txn_id: int) -> None:
        """Atomically publish every page of the transaction: one
        mapping-page program is the commit point, as in SHARE."""
        with self.faults.operation("ftl.xcommit", self.txn_lpns(txn_id)):
            self._commit_txn(txn_id, KIND_XCOMMIT)

    def _commit_txn(self, txn_id: int, kind: str) -> None:
        shadow = self._txn_shadow.pop(txn_id, None)
        if shadow is None:
            raise FtlError(f"unknown transaction: {txn_id}")
        if not shadow:
            return
        self._flush_pending_trims()
        deltas: List[DeltaRecord] = []
        for lpn, ppn in sorted(shadow.items()):
            seq = self._next_seq()
            old = self.fwd.update(lpn, ppn)
            self._shadow_owner.pop(ppn, None)
            self.rev.set_primary(ppn, lpn)
            if old is not None and old != ppn and self.rev.drop_ref(old, lpn):
                self._valid_count[old // self._pages_per_block] -= 1
            self._share_backed[lpn] = (ppn, seq)
            self._trim_tombstones.pop(lpn, None)
            deltas.append(DeltaRecord(kind, lpn, old, ppn, seq))
        self.maplog.append_atomic(deltas)

    def abort_txn(self, txn_id: int) -> None:
        """Discard the transaction's shadow pages; old versions remain."""
        shadow = self._txn_shadow.pop(txn_id, None)
        if shadow is None:
            raise FtlError(f"unknown transaction: {txn_id}")
        for __, ppn in shadow.items():
            self._shadow_owner.pop(ppn, None)
            self._valid_count[ppn // self._pages_per_block] -= 1

    def txn_read(self, txn_id: int, lpn: int) -> Any:
        """Writer's view: the shadow copy when staged, else committed."""
        shadow = self._txn_shadow.get(txn_id)
        if shadow is None:
            raise FtlError(f"unknown transaction: {txn_id}")
        ppn = shadow.get(lpn)
        if ppn is not None:
            return self._read_page(ppn)
        return self.read(lpn)

    # --------------------------------------------------------- atomic write

    def write_atomic(self, items: Sequence[Tuple[int, Any]]) -> None:
        """Atomic multi-page write — the Section 6.1 baseline command.

        A one-shot X-FTL transaction: every page is staged as an
        unstamped shadow page, then one mapping-page program (the commit
        record, kind ``awrite``) publishes all the new mappings.  The
        forward map does not move before that record, so GC or a program
        failure inside the command can never strand an old version: a
        crash or a typed error before the commit leaves every LPN at its
        old mapping, a crash after it at the new one.  Unlike SHARE the
        page set is fixed at write time, and compaction-style remapping
        is impossible — exactly the flexibility gap the paper describes.
        """
        with self.faults.operation("ftl.awrite",
                                   tuple(lpn for lpn, __ in items)):
            self._write_atomic(items)

    def _write_atomic(self, items: Sequence[Tuple[int, Any]]) -> None:
        if not items:
            raise ValueError("empty atomic write")
        if len(items) > self._records_per_page:
            raise FtlError(
                f"atomic write of {len(items)} pages exceeds the commit "
                f"record capacity of {self._records_per_page}")
        lpns = [lpn for lpn, __ in items]
        if len(set(lpns)) != len(lpns):
            raise FtlError("duplicate LPN in atomic write")
        for lpn in lpns:
            self._check_lpn_range(lpn)
        txn_id = self.begin_txn()
        try:
            for lpn, data in items:
                self.faults.checkpoint("ftl.awrite_program")
                self.write_txn(txn_id, lpn, data)
        except Exception:
            self.abort_txn(txn_id)
            raise
        self._commit_txn(txn_id, KIND_AWRITE)

    # ---------------------------------------------------------------- trim

    def trim(self, lpn: int, count: int = 1) -> None:
        """Invalidate ``count`` LPNs starting at ``lpn`` (the TRIM command
        the paper contrasts SHARE with)."""
        if self.faults.passive:
            self._trim(lpn, count)
        else:
            with self.faults.operation(
                    "ftl.trim", tuple(range(lpn, lpn + max(count, 1)))):
                self._trim(lpn, count)

    def _trim(self, lpn: int, count: int) -> None:
        self._check_lpn_range(lpn, count)
        self.stats.trim_commands += 1
        cleared = self.fwd.clear_range(lpn, count)
        if cleared:
            drop_ref = self.rev.drop_ref
            valid = self._valid_count
            full = self._pages_per_block
            tombstones = self._trim_tombstones
            share_backed = self._share_backed
            pending = self._pending_trims
            seq = self._seq     # one per LPN that held a mapping, ascending
            for current, old in cleared:
                if drop_ref(old, current):
                    valid[old // full] -= 1
                tombstones[current] = seq
                if current in share_backed:
                    del share_backed[current]
                pending.append((KIND_TRIM, current, old, None, seq))
                seq += 1
            self._seq = seq
            self.stats.trim_pages += len(cleared)
        if len(self._pending_trims) >= self._records_per_page:
            self._flush_pending_trims()

    def flush(self) -> None:
        """Persist pending mapping changes (trim deltas).  Host writes and
        SHAREs are already durable when their call returns."""
        if self.faults.passive:
            self._flush_pending_trims()
        else:
            with self.faults.operation("ftl.flush"):
                self._flush_pending_trims()

    def _flush_pending_trims(self) -> None:
        if not self._pending_trims:
            return
        pending, self._pending_trims = self._pending_trims, []
        self.maplog.append(pending)

    # --------------------------------------------------------------- share

    def share(self, dst_lpn: int, src_lpn: int, length: int = 1) -> None:
        """The paper's ``share(LPN1, LPN2, length)`` command."""
        self.share_batch(expand_range(dst_lpn, src_lpn, length))

    def share_batch(self, pairs: Sequence[Tuple[int, int]]) -> None:
        """Atomically remap a batch of (destination, source) LPN pairs.

        Applies Section 4.2.2's protocol: update the DRAM mapping entries,
        then commit the whole batch's deltas with a single mapping-page
        program.  A power failure before that program leaves every
        destination at its old mapping; after it, at the new mapping.
        """
        if self.faults.passive:
            self._share_batch(pairs)
        else:
            with self.faults.operation(
                    "ftl.share", tuple([pair[0] for pair in pairs])):
                self._share_batch(pairs)

    def _share_batch(self, pairs: Sequence[Tuple[int, int]]) -> None:
        validate_batch(pairs, self._logical_pages, self._records_per_page)
        # validate_batch bounds-checked every LPN: resolve both sides of
        # each pair through the strategy's bulk API.  This is the paper's
        # "mapping-only" cost and the simulator's SHARE hot path: the one
        # per-pair loop below calls nothing but the reverse map.
        fwd = self.fwd
        resolved = fwd.resolve_pairs(pairs)
        for (__, src_lpn), (__, __, src_ppn) in zip(pairs, resolved):
            if src_ppn == UNMAPPED:
                raise ShareError(
                    f"source LPN {src_lpn} is unmapped; nothing to share")
        rev = self.rev
        # Persist any pending trims first so the atomic batch page carries
        # only this command's deltas.
        self._flush_pending_trims()
        add_extra = rev.add_extra
        drop_ref = rev.drop_ref
        valid = self._valid_count
        full = self._pages_per_block
        share_backed = self._share_backed
        tombstones = self._trim_tombstones
        spills_before = rev.spill_adds
        deltas = []
        seq = self._seq         # one per pair, in pair order
        for dst_lpn, old_ppn, src_ppn in resolved:
            # With the DRAM table full the entry spills: resolvable from
            # the mapping log this very batch persists; only GC pays a
            # lookup.
            add_extra(src_ppn, dst_lpn)
            if old_ppn == UNMAPPED:
                old_ppn = None
            elif old_ppn != src_ppn and drop_ref(old_ppn, dst_lpn):
                valid[old_ppn // full] -= 1
            share_backed[dst_lpn] = (src_ppn, seq)
            if dst_lpn in tombstones:
                del tombstones[dst_lpn]
            deltas.append((KIND_SHARE, dst_lpn, old_ppn, src_ppn, seq))
            seq += 1
        self._seq = seq
        fwd.remap_pairs(resolved)
        spills = rev.spill_adds - spills_before
        if spills:
            self.stats.share_log_spills += spills
        self.maplog.append_atomic(deltas)
        self.stats.share_commands += 1
        self.stats.share_pairs += len(pairs)
        if self.telemetry.tracer.recording:
            observe_batch(self._m_batch_pairs, self._m_contiguous_runs,
                          pairs)

    # ------------------------------------------------------------- allocate

    def _next_seq(self) -> int:
        seq = self._seq
        self._seq += 1
        return seq

    def _alloc_page(self, for_gc: bool) -> int:
        """Next free page of the GC active block, or of the next
        channel's host active block (channel-striped round-robin).

        Host allocation rotates one page at a time over the channels so
        sequential writes spread across all of them; a channel whose
        active block is full opens the oldest free block *of that
        channel*.  When a channel has no free block left the rotation
        skips it — allocation only fails when every channel is dry.  At
        ``channel_count == 1`` this is exactly the serial model's single
        active block with FIFO free-list replacement.

        The page counts as programmed from here on (a failed program
        consumes its slot too), so the caller must program it."""
        write_ptr = self._write_ptr
        full = self._pages_per_block
        if for_gc:
            block = self._active_gc
            if block is None or write_ptr[block] == full:
                block = self._active_gc = self._blocks.open(None, block)
        else:
            active = self._active_host
            channels = self._channel_count
            for __ in range(channels):
                channel = self._host_cursor
                self._host_cursor = (channel + 1) % channels
                block = active[channel]
                if block is None or write_ptr[block] == full:
                    block = self._blocks.open(channel, block)
                    if block is None:
                        continue
                    active[channel] = block
                break
            else:
                raise OutOfSpaceError("no free blocks available for allocation")
        offset = write_ptr[block]
        write_ptr[block] = offset + 1
        return block * full + offset

    def _ensure_free_space(self) -> None:
        """Greedy GC trigger: collect victims while the free pool is at or
        below the low-water mark."""
        if self._in_gc:
            return
        blocks = self._blocks
        while blocks.free_count <= self.config.gc_low_water:
            if not self._collect_victim():
                break
            if blocks.free_count >= self.config.gc_high_water:
                break

    # ------------------------------------------------------------------ GC

    def idle_gc(self, max_blocks: int = 1,
                min_invalid_fraction: float = 0.5) -> int:
        """Background garbage collection, run by the host during idle
        time: reclaim up to ``max_blocks`` blocks whose invalid fraction
        is at least ``min_invalid_fraction``, replenishing the free pool
        before foreground writes would have to stall for it.  Returns the
        number of blocks reclaimed."""
        if max_blocks < 1:
            raise ValueError(f"max_blocks must be >= 1: {max_blocks}")
        if not 0.0 < min_invalid_fraction <= 1.0:
            raise ValueError(
                f"min_invalid_fraction must be in (0, 1]: "
                f"{min_invalid_fraction}")
        reclaimed = 0
        for __ in range(max_blocks):
            victim = self._blocks.pick_victim()
            if victim is None:
                break
            programmed = self._write_ptr[victim]
            invalid = programmed - self._valid_count[victim]
            if programmed < self._pages_per_block or \
                    invalid < programmed * min_invalid_fraction:
                break
            self._reclaim_block(victim, is_gc_event=True)
            reclaimed += 1
        return reclaimed

    def _collect_victim(self) -> bool:
        """Collect the block with the fewest valid pages.  Returns False
        when no reclaimable victim exists.

        With wear leveling on, when the erase-count spread across
        candidates exceeds the configured threshold, the least-worn block
        (typically cold, mostly-valid data parked forever under pure
        greedy GC) is evacuated first so it rejoins the hot rotation —
        classic static wear leveling, spreading the lifespan benefit
        Section 5.3.1 attributes to SHARE across all blocks."""
        coldest = self._blocks.pick_coldest(
            self.nand.erase_counts, self.config.wear_delta_threshold) \
            if self.config.wear_leveling else None
        if coldest is not None:
            self._reclaim_block(coldest, is_gc_event=False)
            self.stats.wear_level_moves += 1
            self.work.append(("wear_move", 0))   # zero-cost note
        victim = self._blocks.pick_victim()
        if victim is None:
            return coldest is not None
        programmed = self._write_ptr[victim]
        if self._valid_count[victim] >= programmed and \
                programmed >= self._pages_per_block:
            raise OutOfSpaceError(
                "all candidate blocks are fully valid — logical space "
                "overcommitted; write less or raise over-provisioning")
        self._reclaim_block(victim, is_gc_event=True)
        return True

    def _reclaim_block(self, block: int, is_gc_event: bool) -> None:
        """Evacuate valid pages, erase, and return ``block`` to the free
        pool.  While the tracer is recording the whole pass runs inside an
        ``ftl.gc`` span, so the copyback/erase work is attributed to
        whichever host command (and engine operation above it) triggered
        the collection; otherwise the pass is a plain call."""
        tracer = self.telemetry.tracer
        if not tracer.recording:
            self._do_reclaim_block(block, is_gc_event, None)
            return
        with tracer.span("ftl.gc", block=block,
                         wear_leveling=not is_gc_event) as span:
            self._do_reclaim_block(block, is_gc_event, span)

    def _do_reclaim_block(self, block: int, is_gc_event: bool,
                          span: Any) -> None:
        copybacks_before = self.stats.copyback_pages
        retired = False
        self._in_gc = True
        try:
            self._evacuate(block)
        except UncorrectableReadError:
            # A victim page died mid-evacuation: stop, retire the block
            # without erasing it.  Pages already moved are fine; the dead
            # page's mapping stays pinned here so host reads surface the
            # typed error, never wrong data.
            retired = True
        finally:
            self._in_gc = False
        if not retired:
            try:
                self.nand.erase(block)
            except EraseFailError:
                # The block has grown bad; every live page is already out
                # (evacuation succeeded), so retirement is bookkeeping.
                self.stats.erase_fails += 1
                retired = True
        if retired:
            self._retire_block(block)
        else:
            self.stats.block_erases += 1
            self.work.append(("erase", block % self._channel_count))
            if is_gc_event:
                self.stats.gc_events += 1
                self.work.append(("gc_event", 0))   # zero-cost note
            self._blocks.erased(block)   # CLOSED -> FREE
        if span is not None:
            if retired:
                span.set(retired=True)
            span.set(copyback_pages=self.stats.copyback_pages
                     - copybacks_before)

    def _evacuate(self, victim: int, inflight: frozenset = frozenset(),
                  tolerant: bool = False) -> None:
        """Copy every live page of ``victim`` out, in PPN order — the one
        page-move loop, for GC and for block retirement alike.  The
        reverse map names the live pages in one call; everything a page
        move needs is a local by the time the loop starts.

        GC runs it strict: a media error ends the pass and the caller
        retires the victim.  Retirement runs it ``tolerant``: a page that
        cannot be read or re-programmed (shadow pages included) stays
        pinned in the retiring block, and spill lookups are not billed.
        ``inflight`` LPNs (see :meth:`_retire_block`) move with their
        page but are not re-stamped."""
        full = self._pages_per_block
        channels = self._channel_count
        start = victim * full
        live = self.rev.live_pages(start, start + self._write_ptr[victim])
        shadow = self._shadow_owner
        if shadow:   # uncommitted X-FTL pages move in PPN order with the rest
            live = sorted(live + [(ppn, None, False)
                                  for ppn in range(start, start + full)
                                  if ppn in shadow])
        stats = self.stats
        work = self.work
        valid = self._valid_count
        share_backed = self._share_backed
        fwd_update = self.fwd.update
        move_page = self.rev.move_page
        for ppn, refs, spilled in live:
            try:
                if refs is None:
                    self._move_shadow_page(ppn)
                    continue
                if spilled and not tolerant:
                    # Firmware must re-read the mapping log to learn the
                    # overflowed reverse mappings of this page.
                    stats.spill_lookups += 1
                    work.append(("spill_lookup", victim % channels))
                data = self._read_page(ppn)
                stamped = ([lpn for lpn in refs if lpn not in inflight]
                           if inflight else refs)
                stamps = tuple(zip(stamped, count_from(self._seq)))
                self._seq += len(stamps)
                new_ppn = self._program_data(data, stamps, for_gc=True)
            except (MediaError, OutOfSpaceError):
                if not tolerant:
                    raise
                continue   # payload or space is gone; the mapping stays pinned
            move_page(ppn, new_ppn, refs)
            valid[victim] -= 1
            valid[new_ppn // full] += 1
            for lpn in refs:
                fwd_update(lpn, new_ppn)
                # The copy's spare stamps the LPN, so the mapping is
                # recoverable from OOB again; drop the log backing.
                if lpn in share_backed and lpn not in inflight:
                    del share_backed[lpn]
            stats.copyback_pages += 1
            work.append(("copyback", new_ppn // full % channels))

    def _move_shadow_page(self, ppn: int) -> None:
        """GC move of an uncommitted X-FTL shadow page: the copy stays
        unstamped (crash must keep it invisible) and the transaction's
        table follows the move."""
        txn_id, lpn = self._shadow_owner[ppn]
        data = self._read_page(ppn)
        new_ppn = self._program_data(data, (), for_gc=True)
        self._shadow_owner.pop(ppn)
        self._txn_shadow[txn_id][lpn] = new_ppn
        self._shadow_owner[new_ppn] = (txn_id, lpn)
        self._valid_count[ppn // self._pages_per_block] -= 1
        self._valid_count[new_ppn // self._pages_per_block] += 1
        self.stats.copyback_pages += 1
        self._note_work("copyback", new_ppn)

    # ------------------------------------------------------------ snapshot

    def _snapshot_records(self) -> List[DeltaRecord]:
        """Live log-backed assertions for map-log checkpointing.

        ``badblk`` records for grown-bad data blocks ride in every
        snapshot — retirement must survive the log compaction that erases
        the original record."""
        records = [(KIND_BADBLK, block, None, None, seq)
                   for block, seq in sorted(self._grown_bad.items())]
        records += [(KIND_SNAP, lpn, None, ppn, seq)
                    for lpn, (ppn, seq) in self._share_backed.items()]
        records += [(KIND_SNAP, lpn, None, None, seq)
                    for lpn, seq in self._trim_tombstones.items()]
        records.sort(key=itemgetter(4))     # by seq
        return records

    # ------------------------------------------------------------ recovery

    @classmethod
    def recover(cls, nand: NandArray, config: Optional[FtlConfig] = None,
                faults: FaultPlan = NO_FAULTS, telemetry=None,
                predecessor: Optional["PageMappingFtl"] = None
                ) -> "PageMappingFtl":
        """Rebuild the full mapping state from the media after a crash.

        The newest assertion per LPN wins, where assertions come from data
        pages' spare stamps (normal writes and GC copies) and the mapping
        log (SHARE, TRIM, checkpoint snapshots).

        ``predecessor`` is the FTL instance the power cut killed: its
        cumulative counters (:class:`FtlStats`, the map log's checkpoint
        count) carry over, as a drive's SMART log outlives a power
        cycle — so a counter read across the cycle never runs backwards.
        """
        ftl = cls(nand, config, faults, telemetry=telemetry)
        if predecessor is not None:
            ftl.stats = predecessor.stats
            ftl.maplog.checkpoints = predecessor.maplog.checkpoints
        state = ftl._scan_media()
        ftl._apply_recovered(state)
        ftl.maplog.bind_to_end_of_log()
        return ftl

    def _scan_media(self) -> _RecoveredState:
        state = _RecoveredState()

        def assert_mapping(lpn: int, seq: int, ppn: Optional[int], source: str) -> None:
            current = state.winners.get(lpn)
            if current is None or seq > current[0]:
                state.winners[lpn] = (seq, ppn, source)
            state.max_seq = max(state.max_seq, seq)

        for block in self._data_blocks:
            for ppn, spare in self.nand.scan_block(block):
                if not isinstance(spare, tuple):
                    raise FtlError(f"malformed spare at PPN {ppn}: {spare!r}")
                for lpn, seq in spare:
                    assert_mapping(lpn, seq, ppn, "oob")
        records, bad_pages = MapLog.scan(self.nand, self.geometry,
                                         self._map_blocks)
        if bad_pages:
            # Corrupt or unreadable log pages are skipped, not replayed;
            # the OOB scan above already covers stamped mappings, so the
            # loss degrades to the stamps' view of the affected LPNs.
            self.stats.corrupt_map_pages += bad_pages
        for record in records:
            if record.kind == KIND_BADBLK:
                # lpn carries the retired block number, not a mapping.
                current = state.grown_bad.get(record.lpn, -1)
                state.grown_bad[record.lpn] = max(current, record.seq)
                state.max_seq = max(state.max_seq, record.seq)
                continue
            source = record.kind
            assert_mapping(record.lpn, record.seq, record.new_ppn, source)
        return state

    def _apply_recovered(self, state: _RecoveredState) -> None:
        rev_entries: List[Tuple[int, int, bool]] = []
        by_ppn: Dict[int, List[int]] = {}
        for lpn, (seq, ppn, source) in sorted(state.winners.items()):
            if ppn is None:
                self._trim_tombstones[lpn] = seq
                continue
            if not self.nand.is_programmed(ppn):
                # Defensive: a stale assertion into an erased block loses.
                self._trim_tombstones[lpn] = seq
                continue
            if lpn >= self._logical_pages:
                raise FtlError(f"recovered LPN {lpn} outside logical space")
            self.fwd.update(lpn, ppn)
            by_ppn.setdefault(ppn, []).append(lpn)
            if source in (KIND_SHARE, KIND_SNAP, KIND_AWRITE, KIND_XCOMMIT):
                self._share_backed[lpn] = (ppn, seq)
        for ppn, lpns in by_ppn.items():
            stamped = set()
            spare = self.nand.read_spare(ppn)
            if isinstance(spare, tuple):
                stamped = {entry[0] for entry in spare}
            primary_candidates = [lpn for lpn in lpns if lpn in stamped]
            primary = primary_candidates[0] if primary_candidates else lpns[0]
            for lpn in lpns:
                rev_entries.append((ppn, lpn, lpn == primary))
        self.rev.rebuild(rev_entries)
        for ppn, lpns in by_ppn.items():
            self._valid_count[ppn // self._pages_per_block] += 1
        # Re-establish bad-block state from the persisted badblk records:
        # retired data blocks never rejoin the free pool or the actives,
        # retired map blocks leave the log rotation before appends resume.
        for block, seq in sorted(state.grown_bad.items()):
            if block in self._map_blocks:
                self.maplog.retire_map_block(block)
            else:
                self._grown_bad[block] = seq
        # Rebuild the block state from the one thing that survived: the
        # media's programmed-page counts.  One spare is consumed per
        # grown-bad block, so reserve whatever entitlement remains.
        partial = self._blocks.rebuild(
            [self.nand.programmed_pages_in_block(block)
             for block in self._data_blocks], self._grown_bad,
            max(0, self.config.spare_block_count - len(self._grown_bad)))
        # Reinstate partially-programmed blocks as actives: each joins
        # its channel's host slot when that slot is empty, the first
        # leftover becomes the GC active (at one channel this is exactly
        # the serial model's partial[0]/partial[1] assignment).  Further
        # partial blocks stay parked (CLOSED) until GC reclaims them.
        channels = self._channel_count
        self._active_host = [None] * channels
        self._host_cursor = 0
        self._active_gc = None
        for block in partial:
            if self._active_host[block % channels] is None:
                self._active_host[block % channels] = block
            elif self._active_gc is None:
                self._active_gc = block
            else:
                continue
            self._blocks.reopen(block)
        self._seq = state.max_seq + 1

    # --------------------------------------------------------------- debug

    def check_invariants(self) -> None:
        """Expensive consistency check used by tests, ``perfbench``'s
        verify step and the crashcheck sweeps: the reverse map must
        mirror the forward map exactly and agree with its own share table,
        valid counts must agree, and the block bookkeeping must agree with
        the media and with itself."""
        self.rev.check()
        expected_refs: Dict[int, set] = {}
        for lpn, ppn in self.fwd.mapped_lpns():
            expected_refs.setdefault(ppn, set()).add(lpn)
        for ppn, lpns in expected_refs.items():
            if self.rev.refs(ppn) != lpns:
                raise AssertionError(
                    f"reverse map mismatch at PPN {ppn}: "
                    f"{self.rev.refs(ppn)} != {lpns}")
        valid_by_block: Dict[int, int] = {b: 0 for b in self._data_blocks}
        for ppn in expected_refs:
            valid_by_block[ppn // self._pages_per_block] += 1
        for block in self._data_blocks:
            if self._valid_count[block] != valid_by_block[block]:
                raise AssertionError(
                    f"valid count mismatch at block {block}: "
                    f"{self._valid_count[block]} != {valid_by_block[block]}")
        self._blocks.check(
            [self.nand.programmed_pages_in_block(block)
             for block in self._data_blocks],
            self.active_blocks().values(), self._grown_bad)
