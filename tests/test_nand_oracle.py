"""The array-backed NAND against the object-per-page NAND it replaced.

``NandArray`` used to hold one ``_Page`` dataclass instance per physical
page; it now holds a ``bytearray`` of state bytes and two PPN-indexed
lists.  The previous class lives on here, verbatim, as the reference:
hypothesis drives both with the same chip operations and the same armed
media faults and compares every return value, raised exception type,
counter and per-page answer after every step.
"""

from dataclasses import dataclass
from enum import Enum
from typing import Any, List, Optional, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import (EraseFailError, ProgramError, ProgramFailError,
                          ReadError, UncorrectableReadError)
from repro.flash.geometry import FlashGeometry
from repro.flash.nand import NandArray
from repro.sim.faults import (CORRUPT_PAYLOAD, NO_FAULTS, CorruptRead,
                              EraseFault, FaultPlan, ProgramFault, ReadFault)


# ------------------------------------------------------ reference array

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


class RefNandArray:
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


# ----------------------------------------------------------- comparison

GEOMETRY = FlashGeometry(page_size=512, pages_per_block=4, block_count=6,
                         channel_count=2)
PAGES = GEOMETRY.total_pages
BLOCKS = GEOMETRY.block_count

FAULTS = {"program_fault": ProgramFault, "read_fault": ReadFault,
          "corrupt_read": CorruptRead, "erase_fault": EraseFault}


def observe(nand):
    """Every counter and every per-page answer."""
    return {
        "is_programmed": [nand.is_programmed(ppn) for ppn in range(PAGES)],
        "is_failed": [nand.is_failed(ppn) for ppn in range(PAGES)],
        "scan_block": [nand.scan_block(block) for block in range(BLOCKS)],
        "programmed_pages_in_block": [nand.programmed_pages_in_block(block)
                                      for block in range(BLOCKS)],
        "next_program_offset": list(nand._next_program_offset),
        "erase_counts": list(nand.erase_counts),
        "channel_ops": list(nand.channel_ops),
        "counters": (nand.total_programs, nand.total_reads,
                     nand.total_erases, nand.failed_programs,
                     nand.failed_reads, nand.failed_erases),
        "wear": (nand.max_erase_count, nand.wear_summary()),
    }


def apply(nand, name, *args):
    """Run one operation: ("ok", return value) or ("raised", type)."""
    try:
        if name == "program_next":
            # The in-order program the FTL issues.
            block, data = args
            ppn = (block * GEOMETRY.pages_per_block
                   + nand.programmed_pages_in_block(block))
            name, args = "program", (ppn, data, ((data, ppn),))
        elif name in FAULTS:
            nand.faults.media.arm(FAULTS[name](**args[0]))
            return "ok", None
        return "ok", getattr(nand, name)(*args)
    except Exception as exc:   # the type is what is compared
        return "raised", type(exc)


def run_both(ops):
    ref = RefNandArray(GEOMETRY, FaultPlan())
    new = NandArray(GEOMETRY, FaultPlan())
    for op in ops:
        outcome = apply(ref, *op)
        assert apply(new, *op) == outcome, op
        assert observe(new) == observe(ref), op
    return new


# Out-of-range addresses are in the draw: the range checks are behaviour.
ppns = st.integers(-1, PAGES)
blocks = st.integers(-1, BLOCKS)
payloads = st.integers(0, 999)

operations = st.one_of(
    st.tuples(st.just("program_next"), st.integers(0, BLOCKS - 1), payloads),
    st.tuples(st.just("program_next"), st.integers(0, BLOCKS - 1), payloads),
    st.tuples(st.just("program"), ppns, payloads, payloads),
    st.tuples(st.just("read"), ppns),
    st.tuples(st.just("read"), ppns),
    st.tuples(st.just("read_spare"), ppns),
    st.tuples(st.just("erase"), blocks),
    st.tuples(st.just("scan_block"), blocks),
    st.tuples(st.just("is_programmed"), ppns),
    st.tuples(st.just("is_failed"), ppns),
    st.tuples(st.just("program_fault"), st.one_of(
        st.fixed_dictionaries({"nth": st.integers(1, 3)}),
        st.fixed_dictionaries({"ppn": st.integers(0, PAGES - 1)}))),
    st.tuples(st.just("read_fault"), st.fixed_dictionaries(
        {"ppn": st.integers(0, PAGES - 1),
         "retries_to_clear": st.one_of(st.none(), st.integers(1, 2))})),
    st.tuples(st.just("corrupt_read"), st.fixed_dictionaries(
        {"ppn": st.integers(0, PAGES - 1)})),
    st.tuples(st.just("erase_fault"), st.fixed_dictionaries(
        {"block": st.integers(0, BLOCKS - 1)})),
)


@settings(max_examples=300, deadline=None)
@given(ops=st.lists(operations, min_size=1, max_size=80))
def test_matches_reference_after_every_step(ops):
    run_both(ops)


def test_failed_page_is_consumed_unreadable_and_cleared_by_erase():
    new = run_both([
        ("program_next", 1, 7),
        ("program_fault", {"nth": 1}),
        ("program_next", 1, 8),          # fails, consumes offset 1
        ("program_next", 1, 9),
        ("read", 5), ("read_spare", 5), ("scan_block", 1),
        ("program", 5, 1, 1),            # no overwrite of a failed page
        ("erase", 1),
        ("program_next", 1, 10),
    ])
    assert not new.is_programmed(5) and not new.is_failed(5)
    assert new.scan_block(1) == [(4, ((10, 4),))]
    assert new.failed_programs == 1 and new.failed_reads == 1
