"""Mapping delta log (Section 4.2.2, Figure 4).

Normal host writes need no log record: the LPN stamped in the spare area at
program time already persists their mapping.  Two operations change the
mapping *without* programming a data page and therefore must be logged:

* ``SHARE`` — records ``(LPN, old PPN, new PPN)``; the single mapping-page
  program holding a batch's records is the atomic commit point ("the
  maximum size of Deltas cannot exceed the mapping page size because only a
  page is written atomically to flash"),
* ``TRIM`` — records ``(LPN, old PPN, unmapped)``.

The log lives in a small reserved region of map blocks at the top of the
array.  When the region fills up, the log checkpoints itself: the still-live
log-backed mappings (provided by the FTL) are rewritten as ``snap`` records
into the last free map block, the exhausted blocks are erased, and logging
continues.  Recovery merges log records with the spare-area stamps by
sequence number — the newest assertion per LPN wins.

Media faults make the log defend itself:

* every mapping page is sealed with a CRC32 over a canonical encoding of
  its records' fields (see :func:`_checksum`), so a page returned
  corrupted (or torn by a failed program) is *detected* during
  :meth:`MapLog.scan` and skipped rather than replayed — recovery already
  always merges the log with the full OOB scan by sequence number, so a
  lost log page degrades to the stamps' view instead of silently replaying
  garbage;
* a program failure while appending simply retries the next mapping page
  (the failed page consumed its slot and the OOB scan skips it);
* an erase failure during a checkpoint retires the map block from the
  rotation; a ``badblk`` record naming it rides in every later snapshot so
  the retirement survives recovery, and the stale records left in the dead
  block are harmless — they always lose the seq merge.

The log is strategy-agnostic with respect to the in-DRAM forward map:
records and spare stamps speak plain ``(LPN, PPN)``, and recovery replays
the merged view through :class:`repro.ftl.mapping.MappingStrategy.update`,
so the same media rebuilds identically under the flat, grouped,
run-length, or delta-compressed backing (pinned by the parity tests in
``tests/test_ftl_strategy_recovery.py``).

A record is plain data: any 5-tuple in :class:`DeltaRecord` field order
(the SHARE and TRIM paths build bare tuples; :meth:`MapLog.scan` hands
back :class:`DeltaRecord`).  Its rules — known kind, non-negative LPN,
PPNs and seq, a trim has no new PPN, a badblk no PPNs — are enforced once
per mapping page, by :func:`_seal`, before the page is programmed (and
again by :func:`_unseal`, which re-seals what it read).
"""

from __future__ import annotations

import zlib
from array import array
from typing import Callable, List, NamedTuple, Optional, Sequence, Set, Tuple

from repro.errors import (
    EraseFailError,
    FtlError,
    ProgramFailError,
    UncorrectableReadError,
)
from repro.flash.geometry import FlashGeometry
from repro.flash.nand import NandArray
from repro.ftl.config import READ_RETRIES
from repro.obs import NULL_TELEMETRY
from repro.sim.faults import NO_FAULTS, FaultPlan

#: Spare-area tag marking a mapping page (vs a data page).
MAP_PAGE_TAG = "map"

#: Magic leading every sealed mapping-page payload (v3: the checksum
#: covers the packed fields, not the records' debug string).
MAP_MAGIC = "maplog-v3"

KIND_SHARE = "share"
KIND_TRIM = "trim"
KIND_SNAP = "snap"
#: Commit record of the atomic-write baseline command (Section 6.1's
#: related-work FTLs, implemented for comparison).
KIND_AWRITE = "awrite"
#: Commit record of the X-FTL transactional baseline (Section 6.2).
KIND_XCOMMIT = "xcommit"
#: Grown-bad-block announcement: ``lpn`` holds the *block* number, both
#: PPN fields are None.  Data-block records are emitted by the FTL at
#: retirement time; map-block records are emitted by the log itself.
KIND_BADBLK = "badblk"
#: Every known kind, and its integer in the sealed encoding.
_KIND_CODES = {KIND_SHARE: 0, KIND_TRIM: 1, KIND_SNAP: 2, KIND_AWRITE: 3,
               KIND_XCOMMIT: 4, KIND_BADBLK: 5}

#: How many fresh mapping pages one append tries when programs keep
#: failing before surfacing the error.
_PROGRAM_ATTEMPTS = 4


class DeltaRecord(NamedTuple):
    """One mapping-change assertion.

    ``new_ppn`` is None for trims.  ``seq`` totally orders this assertion
    against spare-area stamps and other records.  ``badblk`` records reuse
    ``lpn`` for the retired block number and carry no PPNs.
    """

    kind: str
    lpn: int
    old_ppn: Optional[int]
    new_ppn: Optional[int]
    seq: int


def _checksum(records: Tuple[tuple, ...]) -> int:
    """CRC32 over the canonical encoding of a mapping page: five signed
    64-bit integers per record — kind code, LPN, old PPN, new PPN, seq,
    None as -1 — packed in one pass (native byte order: the simulated
    medium never leaves the process)."""
    codes = _KIND_CODES
    return zlib.crc32(array("q", [
        field for kind, lpn, old_ppn, new_ppn, seq in records
        for field in (codes[kind], lpn,
                      -1 if old_ppn is None else old_ppn,
                      -1 if new_ppn is None else new_ppn, seq)]).tobytes())


def _seal(records: Tuple[tuple, ...]):
    """Wrap a mapping page's records with a checksum so corruption is
    detected; ``ValueError`` (nothing is programmed) if one breaks a rule."""
    for kind, lpn, old_ppn, new_ppn, seq in records:
        if kind not in _KIND_CODES:
            raise ValueError(f"unknown delta kind: {kind!r}")
        if lpn < 0:
            raise ValueError(f"negative LPN: {lpn}")
        if seq < 0:
            raise ValueError(f"negative seq: {seq}")
        if kind == KIND_TRIM and new_ppn is not None:
            raise ValueError("trim records must have new_ppn=None")
        if kind == KIND_BADBLK and (old_ppn is not None
                                    or new_ppn is not None):
            raise ValueError("badblk records carry no PPNs")
        # None is encoded as -1, so a real PPN may not be negative.
        if ((old_ppn is not None and old_ppn < 0)
                or (new_ppn is not None and new_ppn < 0)):
            raise ValueError(f"negative PPN: {old_ppn}, {new_ppn}")
    return (MAP_MAGIC, records, _checksum(records))


def _unseal(payload) -> Optional[List[DeltaRecord]]:
    """Records from a sealed mapping page, or None when the page is
    corrupt: bad magic, torn shape, or records that :func:`_seal` would
    not seal to this very payload (a record that is not five encodable
    fields or breaks a rule, or a checksum mismatch)."""
    if (not isinstance(payload, tuple) or len(payload) != 3
            or not isinstance(payload[1], tuple)):
        return None
    records = payload[1]
    try:
        if _seal(records) != payload:
            return None
    except (TypeError, ValueError, OverflowError):
        return None
    return [DeltaRecord._make(record) for record in records]


class MapLog:
    """Append-only delta log over the reserved map blocks.

    The log programs whole mapping pages; each page carries a sealed list
    of :class:`DeltaRecord`.  Fault checkpoints bracket the commit program
    so tests can kill power on either side of the atomic point.
    """

    def __init__(self, nand: NandArray, geometry: FlashGeometry,
                 map_blocks: Sequence[int], records_per_page: int,
                 faults: FaultPlan = NO_FAULTS, telemetry=None,
                 ledger: Optional[List[int]] = None) -> None:
        if not map_blocks:
            raise ValueError("need at least one map block")
        self._nand = nand
        self._geometry = geometry
        self._blocks = list(map_blocks)
        self._bad_blocks: Set[int] = set()
        self._records_per_page = records_per_page
        self._faults = faults
        self._cursor = 0          # index into self._blocks
        # The log's own write pointer per map block, read from the media
        # once here (a log built over a used array resumes where the
        # pages end) and kept current at every program and erase.
        self._used = {block: nand.programmed_pages_in_block(block)
                      for block in self._blocks}
        #: Mapping pages programmed so far (internal write traffic).
        self.page_writes = 0
        # Channels of mapping-page programs, appended to the owning
        # FTL's ledger (which drains it once per device command).
        self._work: List[int] = ledger if ledger is not None else []
        self.checkpoints = 0
        self._snapshot_provider: Optional[Callable[[], List[DeltaRecord]]] = None
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self._m_records = self.telemetry.histogram(
            "ftl.maplog.records_per_commit")

    # --------------------------------------------------------------- setup

    def set_snapshot_provider(self, provider: Callable[[], List[DeltaRecord]]) -> None:
        """Register the FTL callback that lists still-live log-backed
        mappings for checkpointing."""
        self._snapshot_provider = provider

    def bind_to_end_of_log(self) -> None:
        """After recovery, resume appending after the last programmed page."""
        self._cursor = 0
        for index, block in enumerate(self._blocks):
            if self._used[block] > 0:
                self._cursor = index
        # If the cursor block is full, advance handled lazily by _target().

    def retire_map_block(self, block: int) -> None:
        """Drop a grown-bad map block from the rotation (idempotent).

        Called when an erase of the block fails, and during recovery when
        a scanned ``badblk`` record names a map block."""
        if block in self._bad_blocks:
            return
        self._bad_blocks.add(block)
        if block in self._blocks:
            index = self._blocks.index(block)
            self._blocks.remove(block)
            if self._cursor > index:
                self._cursor -= 1
            if self._cursor >= len(self._blocks) and self._blocks:
                self._cursor = len(self._blocks) - 1
        if not self._blocks:
            raise FtlError(
                "every map block has grown bad; the mapping log cannot "
                "persist further deltas")

    @property
    def records_per_page(self) -> int:
        return self._records_per_page

    def _note_work(self, ppn: int) -> None:
        self._work.append(
            (ppn // self._geometry.pages_per_block)
            % self._geometry.channel_count)

    # -------------------------------------------------------------- append

    def append_atomic(self, records: Sequence[DeltaRecord]) -> None:
        """Persist ``records`` in one mapping-page program.

        This is the SHARE commit point: a crash before the program leaves
        the old mapping, a crash after it leaves the new mapping; there is
        no in-between because the page program is atomic.  A program
        failure moves on to the next mapping page — the failed page
        consumed its slot and the OOB scan skips it, so atomicity holds:
        either one intact sealed page carries the batch, or none does.
        """
        if not records:
            raise ValueError("cannot commit an empty delta batch")
        if len(records) > self._records_per_page:
            raise FtlError(
                f"delta batch of {len(records)} records exceeds the mapping "
                f"page capacity of {self._records_per_page} — the batch "
                "would not commit atomically (Section 4.2.2)")
        faults = self._faults
        if not faults.passive:
            faults.checkpoint("maplog.before_commit")
        payload = _seal(tuple(records))
        for attempt in range(_PROGRAM_ATTEMPTS):
            ppn = self._next_map_ppn()
            try:
                self._nand.program(ppn, payload, spare=(MAP_PAGE_TAG,))
            except ProgramFailError:
                if attempt + 1 == _PROGRAM_ATTEMPTS:
                    raise
                continue
            break
        self.page_writes += 1
        self._note_work(ppn)
        if self.telemetry.enabled:
            self._m_records.record(len(records))
        if not faults.passive:
            faults.checkpoint("maplog.after_commit")

    def append(self, records: Sequence[DeltaRecord]) -> None:
        """Persist records that do not need single-page atomicity (trim
        batches), splitting across pages as needed."""
        for start in range(0, len(records), self._records_per_page):
            self.append_atomic(records[start:start + self._records_per_page])

    # ------------------------------------------------------------ internal

    def _next_map_ppn(self) -> int:
        """PPN of the next free mapping page, checkpointing when needed.
        The page counts as used from here on: a failed program consumes
        its slot too."""
        for _ in range(2):
            block = self._blocks[self._cursor]
            used = self._used[block]
            if used < self._geometry.pages_per_block:
                self._used[block] = used + 1
                return self._geometry.first_ppn(block) + used
            if self._cursor + 1 < len(self._blocks):
                self._cursor += 1
                continue
            self._checkpoint()
        raise FtlError("map log has no space even after checkpoint")

    def _badblk_records(self) -> List[DeltaRecord]:
        """``badblk`` announcements for the log's own retired blocks; they
        ride in every snapshot so retirement survives recovery."""
        return [DeltaRecord(KIND_BADBLK, block, None, None, 0)
                for block in sorted(self._bad_blocks)]

    def _checkpoint(self) -> None:
        """Compact the log: rewrite live records, erase exhausted blocks.

        The snapshot may span several map blocks (a busy SHARE workload —
        e.g. a compaction of a large store — can keep hundreds of
        thousands of log-backed mappings live).  The crash window between
        the erases and the snapshot programs is covered by the
        controller's power capacitor on the OpenSSD, and the reproduction
        documents the same assumption.
        """
        if self._snapshot_provider is None:
            raise FtlError("map log full and no snapshot provider registered")
        tracer = self.telemetry.tracer
        if not tracer.recording:
            self._do_checkpoint(None)
            return
        with tracer.span("ftl.maplog.checkpoint") as span:
            self._do_checkpoint(span)

    def _do_checkpoint(self, span) -> None:
        faults = self._faults
        if not faults.passive:
            faults.checkpoint("maplog.checkpoint_start")
        pages_per_block = self._geometry.pages_per_block
        page_capacity = self._records_per_page
        # Erase the whole rotation first, retiring any block whose erase
        # fails.  A retired block keeps its stale pages; they always lose
        # the seq merge, and the badblk record below marks it dead.
        usable: List[int] = []
        for block in list(self._blocks):
            try:
                self._nand.erase(block)
            except EraseFailError:
                self.retire_map_block(block)
            else:
                self._used[block] = 0
                usable.append(block)
        self._blocks = usable
        if not self._blocks:
            raise FtlError(
                "every map block has grown bad; the mapping log cannot "
                "persist further deltas")
        live = self._badblk_records() + list(self._snapshot_provider())
        if span is not None:
            span.set(live_records=len(live))
        needed_pages = -(-len(live) // page_capacity) if live else 0
        needed_blocks = -(-needed_pages // pages_per_block) if needed_pages else 0
        if needed_blocks >= len(self._blocks):
            raise FtlError(
                f"snapshot of {len(live)} live records needs {needed_blocks} "
                f"map blocks but only {len(self._blocks)} remain (and one "
                "must stay free for new deltas); increase map_block_count")
        block_index = 0
        offset = 0
        cursor = 0
        while cursor < len(live):
            if offset >= pages_per_block:
                block_index += 1
                offset = 0
                if block_index >= len(self._blocks):
                    raise FtlError(
                        "map-log snapshot overflowed the surviving blocks "
                        "(program failures consumed too many pages)")
            chunk = tuple(live[cursor:cursor + page_capacity])
            ppn = self._geometry.first_ppn(self._blocks[block_index]) + offset
            offset += 1
            self._used[self._blocks[block_index]] = offset
            try:
                self._nand.program(ppn, _seal(chunk), spare=(MAP_PAGE_TAG,))
            except ProgramFailError:
                continue   # the failed page consumed its slot; use the next
            self.page_writes += 1
            self._note_work(ppn)
            cursor += page_capacity
        self._cursor = min(block_index, len(self._blocks) - 1)
        self.checkpoints += 1
        if not faults.passive:
            faults.checkpoint("maplog.checkpoint_end")

    # ------------------------------------------------------------ recovery

    @staticmethod
    def scan(nand: NandArray, geometry: FlashGeometry,
             map_blocks: Sequence[int]) -> Tuple[List[DeltaRecord], int]:
        """Collect every readable, intact delta record in the map region.

        Returns ``(records, bad_pages)``.  A mapping page that stays
        unreadable after ``READ_RETRIES`` extra attempts, or whose seal
        fails verification, is counted in ``bad_pages`` and skipped —
        recovery merges the log with the full OOB scan by sequence number,
        so a lost log page degrades to the stamps' view of those LPNs
        instead of replaying garbage.
        """
        records: List[DeltaRecord] = []
        bad_pages = 0
        for block in map_blocks:
            for ppn, spare in nand.scan_block(block):
                if not (isinstance(spare, tuple) and spare and spare[0] == MAP_PAGE_TAG):
                    raise FtlError(
                        f"non-map page found in map block {block} (PPN {ppn})")
                payload = None
                readable = False
                for _ in range(READ_RETRIES + 1):
                    try:
                        payload = nand.read(ppn)
                    except UncorrectableReadError:
                        continue
                    readable = True
                    break
                unsealed = _unseal(payload) if readable else None
                if unsealed is None:
                    bad_pages += 1
                    continue
                records.extend(unsealed)
        return records, bad_pages
