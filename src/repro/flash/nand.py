"""NAND array: the persistent media under the FTL.

The array enforces the three chip-level rules the paper's design hinges on:

1. a programmed page cannot be overwritten (*no-overwrite*),
2. a block must be erased before any of its pages are reprogrammed,
3. pages inside a block are programmed in ascending order (MLC rule).

Page payloads are opaque Python objects ("page images") plus a spare-area
record written alongside the data; the FTL uses the spare area to stamp the
owning LPN / metadata tag, exactly as real firmware stamps out-of-band
bytes.  The array is the *only* state that survives an injected power
failure — everything above it (mapping tables in DRAM, buffer pools) is
volatile and rebuilt during recovery.

When a :class:`~repro.sim.faults.FaultPlan` with armed media faults is
attached, chip operations can fail the way real NAND fails:

* ``read`` raises :class:`UncorrectableReadError` (transient or sticky) or
  returns a :data:`~repro.sim.faults.CORRUPT_PAYLOAD`-wrapped payload;
* ``program`` raises :class:`ProgramFailError` and leaves the page
  *failed* — it consumed its program slot (the in-order rule still holds)
  but holds no readable data;
* ``erase`` raises :class:`EraseFailError` and leaves the block's contents
  untouched.

The spare area is modelled as separately protected (real firmware guards
OOB bytes with their own ECC), so ``read_spare`` and ``scan_block`` never
consult read faults — recovery's OOB scan stays deterministic even on a
degraded device.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Any, List, Optional, Tuple

from repro.errors import (EraseFailError, ProgramError, ProgramFailError,
                          ReadError, UncorrectableReadError)
from repro.flash.geometry import FlashGeometry
from repro.sim.faults import CORRUPT_PAYLOAD, NO_FAULTS, FaultPlan


class PageState(Enum):
    """Lifecycle of one physical page."""

    ERASED = "erased"
    PROGRAMMED = "programmed"


@dataclass
class _Page:
    state: PageState = PageState.ERASED
    data: Any = None
    spare: Any = None
    failed: bool = False   # program failure consumed the page; no payload


class NandArray:
    """The raw flash media.

    The array tracks per-block erase counts (device wear, which the paper's
    lifespan argument is about) and cumulative program/read/erase operation
    counts.  It charges **no** time itself — latency accounting lives in the
    SSD facade so GC-internal copybacks can be priced differently from
    host-visible transfers.
    """

    def __init__(self, geometry: FlashGeometry,
                 faults: FaultPlan = NO_FAULTS) -> None:
        self.geometry = geometry
        self.faults = faults
        # Geometry constants cached as plain attributes: program/read run
        # once per simulated chip operation, and the attribute+method hop
        # through ``geometry`` is measurable at that rate.
        self._total_pages = geometry.total_pages
        self._pages_per_block = geometry.pages_per_block
        self._channel_count = geometry.channel_count
        self._pages: List[_Page] = [_Page() for _ in range(geometry.total_pages)]
        self._next_program_offset: List[int] = [0] * geometry.block_count
        self.erase_counts: List[int] = [0] * geometry.block_count
        self.total_programs = 0
        self.total_reads = 0
        self.total_erases = 0
        # Chip operations per channel (programs + reads + erases): the
        # raw demand the channel-striped allocator is trying to balance.
        self.channel_ops: List[int] = [0] * geometry.channel_count
        # Media-failure accounting (injected faults that actually fired).
        self.failed_reads = 0
        self.failed_programs = 0
        self.failed_erases = 0

    # ------------------------------------------------------------------ ops

    def program(self, ppn: int, data: Any, spare: Any = None) -> None:
        """Program one page.  Enforces no-overwrite and in-order rules.

        On an injected program failure the page transitions to a *failed*
        PROGRAMMED state: it consumed its program slot (so the in-order
        rule is preserved for the rest of the block) but holds no data —
        any read of it raises :class:`UncorrectableReadError`, and the
        OOB scan skips it."""
        if not 0 <= ppn < self._total_pages:
            self.geometry.check_ppn(ppn)   # raises with the range message
        page = self._pages[ppn]
        if page.state is not PageState.ERASED:
            raise ProgramError(f"PPN {ppn} already programmed; erase block first")
        block = ppn // self._pages_per_block
        offset = ppn - block * self._pages_per_block
        expected = self._next_program_offset[block]
        if offset != expected:
            raise ProgramError(
                f"out-of-order program in block {block}: page offset {offset}, "
                f"expected {expected}")
        media = self.faults.media
        if media.active:
            try:
                media.on_program(ppn)
            except ProgramFailError:
                page.state = PageState.PROGRAMMED
                page.data = None
                page.spare = None
                page.failed = True
                self._next_program_offset[block] = offset + 1
                self.total_programs += 1
                self.channel_ops[block % self._channel_count] += 1
                self.failed_programs += 1
                raise
        page.state = PageState.PROGRAMMED
        page.data = data
        page.spare = spare
        page.failed = False
        self._next_program_offset[block] = offset + 1
        self.total_programs += 1
        self.channel_ops[block % self._channel_count] += 1

    def read(self, ppn: int) -> Any:
        """Read the data payload of a programmed page."""
        if not 0 <= ppn < self._total_pages:
            self.geometry.check_ppn(ppn)   # raises with the range message
        page = self._pages[ppn]
        if page.state is not PageState.PROGRAMMED:
            raise ReadError(f"PPN {ppn} is erased; nothing to read")
        self.total_reads += 1
        self.channel_ops[(ppn // self._pages_per_block)
                         % self._channel_count] += 1
        if page.failed:
            self.failed_reads += 1
            raise UncorrectableReadError(
                f"PPN {ppn} failed during program; payload unreadable")
        media = self.faults.media
        if media.active:
            block = ppn // self._pages_per_block
            try:
                corrupt = media.on_read(ppn, self.erase_counts[block])
            except UncorrectableReadError:
                self.failed_reads += 1
                raise
            if corrupt:
                return (CORRUPT_PAYLOAD, ppn)
        return page.data

    def read_spare(self, ppn: int) -> Any:
        """Read only the spare-area record (cheap OOB scan during recovery).

        The spare area is modelled as separately protected, so this never
        consults read faults; a *failed* page still has no spare to give."""
        self.geometry.check_ppn(ppn)
        page = self._pages[ppn]
        if page.state is not PageState.PROGRAMMED:
            raise ReadError(f"PPN {ppn} is erased; no spare data")
        return page.spare

    def erase(self, block: int) -> None:
        """Erase a whole block, returning every page in it to ERASED.

        An injected erase failure leaves the block's contents untouched
        (still readable, still counted as programmed) — the FTL is
        expected to retire the block instead of reusing it."""
        self.geometry.check_block(block)
        media = self.faults.media
        if media.active:
            try:
                media.on_erase(block)
            except EraseFailError:
                self.failed_erases += 1
                raise
        start = block * self._pages_per_block
        for page in self._pages[start:start + self._pages_per_block]:
            page.state = PageState.ERASED
            page.data = None
            page.spare = None
            page.failed = False
        self._next_program_offset[block] = 0
        self.erase_counts[block] += 1
        self.total_erases += 1
        self.channel_ops[block % self._channel_count] += 1

    # -------------------------------------------------------------- queries

    def state_of(self, ppn: int) -> PageState:
        self.geometry.check_ppn(ppn)
        return self._pages[ppn].state

    def is_programmed(self, ppn: int) -> bool:
        """True when the page holds *readable* programmed data (a page that
        failed during program is not usable and reports False)."""
        self.geometry.check_ppn(ppn)
        page = self._pages[ppn]
        return page.state is PageState.PROGRAMMED and not page.failed

    def is_failed(self, ppn: int) -> bool:
        """True when the page consumed its program slot but failed."""
        self.geometry.check_ppn(ppn)
        return self._pages[ppn].failed

    def programmed_pages_in_block(self, block: int) -> int:
        """How many pages of ``block`` have been programmed since its last
        erase."""
        self.geometry.check_block(block)
        return self._next_program_offset[block]

    def scan_block(self, block: int) -> List[Tuple[int, Any]]:
        """(ppn, spare) for every readable programmed page of a block, in
        program order.  This is the recovery-time OOB scan; pages that
        failed during program are skipped (they hold no spare stamp)."""
        self.geometry.check_block(block)
        start = self.geometry.first_ppn(block)
        out: List[Tuple[int, Any]] = []
        for offset in range(self._next_program_offset[block]):
            ppn = start + offset
            page = self._pages[ppn]
            if page.failed:
                continue
            out.append((ppn, page.spare))
        return out

    @property
    def max_erase_count(self) -> int:
        return max(self.erase_counts)

    @property
    def total_erase_count(self) -> int:
        return sum(self.erase_counts)

    def wear_summary(self) -> Optional[dict]:
        """Min/mean/max erase counts — the lifespan metric of §5.3.1."""
        counts = self.erase_counts
        if not counts:
            return None
        return {
            "min": min(counts),
            "mean": sum(counts) / len(counts),
            "max": max(counts),
        }
