"""NAND array: the persistent media under the FTL.

The array enforces the three chip-level rules the paper's design hinges on:

1. a programmed page cannot be overwritten (*no-overwrite*),
2. a block must be erased before any of its pages are reprogrammed,
3. pages inside a block are programmed in ascending order (MLC rule).

Page payloads are opaque Python objects ("page images") plus a spare-area
record written alongside the data; the FTL uses the spare area to stamp the
owning LPN / metadata tag, exactly as real firmware stamps out-of-band
bytes.  The common record — one ``(lpn, seq)`` stamp — is kept the way
the medium keeps it, as fixed-width integers in two PPN-indexed typed
arrays; any other record (several stamps on a copied shared page, a
mapping-page tag, the empty stamp of an uncommitted shadow page) is kept
as given in a small per-block overflow.  ``read_spare`` and
``scan_block`` hand back the same record either way: a single stamp
comes back as ``((lpn, seq),)``.

The array is the *only* state that survives an injected power failure —
everything above it (mapping tables in DRAM, buffer pools) is volatile
and rebuilt during recovery.

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

from array import array
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import (EraseFailError, ProgramError, ProgramFailError,
                          ReadError, UncorrectableReadError)
from repro.flash.geometry import FlashGeometry
from repro.sim.faults import CORRUPT_PAYLOAD, NO_FAULTS, FaultPlan


# Per-page state bytes.  A *failed* page is PROGRAMMED to the chip (it
# consumed its program slot) but holds no payload and no spare.
_ERASED = 0
_PROGRAMMED = 1
_FAILED = 2
_PROGRAMMED_BYTE = bytes((_PROGRAMMED,))


class NandArray:
    """The raw flash media.

    The array tracks per-block erase counts (device wear, which the paper's
    lifespan argument is about) and cumulative program/read/erase operation
    counts.  It charges **no** time itself — latency accounting lives in the
    SSD facade so GC-internal copybacks can be priced differently from
    host-visible transfers.

    Per-page state is four PPN-indexed arrays — a ``bytearray`` of state
    bytes, a list of payloads, and the spare stamp as an ``array('i')``
    of owner LPNs (−1: no stamp) beside an ``array('q')`` of sequence
    numbers — plus an overflow dict per block for every spare record that
    is not one stamp.  No object per page: a simulated device costs 21
    bytes of host memory per physical page before anything is programmed,
    and an erase is three slice assignments and at most one dict deletion.
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
        self._state = bytearray(geometry.total_pages)
        self._data: List[Any] = [None] * geometry.total_pages
        # The spare area: one (lpn, seq) stamp per page in two typed
        # arrays, every other record in ``_overflow[block][ppn]``.  A seq
        # is read only beside an owner >= 0, so erase resets owners alone.
        self._owner = array("i", [-1]) * geometry.total_pages
        self._seq = array("q", [0]) * geometry.total_pages
        self._overflow: Dict[int, Dict[int, Any]] = {}
        # What ``erase`` assigns over a block's slice of each array.
        self._erased_state = bytes(geometry.pages_per_block)
        self._erased_payload: List[Any] = [None] * geometry.pages_per_block
        self._erased_owner = array("i", [-1]) * geometry.pages_per_block
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

    def program(self, ppn: int, data: Any, spare: Any = None,
                lpn: int = -1, seq: int = 0) -> None:
        """Program one page.  Enforces no-overwrite and in-order rules.

        The spare record is either one stamp given as integers (``lpn`` ≥ 0
        and its ``seq``; ``spare`` is then ignored) or any ``spare``
        object, stored as given.

        On an injected program failure the page transitions to a *failed*
        PROGRAMMED state: it consumed its program slot (so the in-order
        rule is preserved for the rest of the block) but holds no data —
        any read of it raises :class:`UncorrectableReadError`, and the
        OOB scan skips it."""
        if not 0 <= ppn < self._total_pages:
            self.geometry.check_ppn(ppn)   # raises with the range message
        if self._state[ppn] != _ERASED:
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
                self._state[ppn] = _FAILED   # payload and spare stay None
                self._next_program_offset[block] = offset + 1
                self.total_programs += 1
                self.channel_ops[block % self._channel_count] += 1
                self.failed_programs += 1
                raise
        if lpn >= 0:
            # seq first: a value that does not fit raises before the page
            # is touched, and a seq without an owner is never read.
            self._seq[ppn] = seq
            self._owner[ppn] = lpn
        elif spare is not None:
            overflow = self._overflow
            if block in overflow:
                overflow[block][ppn] = spare
            else:
                overflow[block] = {ppn: spare}
        self._state[ppn] = _PROGRAMMED
        self._data[ppn] = data
        self._next_program_offset[block] = offset + 1
        self.total_programs += 1
        self.channel_ops[block % self._channel_count] += 1

    def program_run(self, ppn: int, pages: Sequence[Any], lpns: range,
                    seqs: range) -> None:
        """Program ``len(pages)`` consecutive pages of one block from
        ``ppn`` on, page ``i`` stamped ``(lpns[i], seqs[i])``: the effect
        of one :meth:`program` per page, with the erased and in-order
        rules checked once for the whole run and the arrays filled by
        slice assignment.  It honours no media fault (a failed program
        mid-run has no per-page answer here), so it refuses to run while
        one is armed; a plan that only counts counts its programs."""
        media = self.faults.media
        if media.active and media.armed():
            raise ProgramError("a run program cannot honour media faults")
        count = len(pages)
        full = self._pages_per_block
        block = ppn // full
        offset = ppn - block * full
        stop = ppn + count
        if not 0 <= ppn < self._total_pages or offset + count > full:
            raise ProgramError(
                f"run of {count} pages from PPN {ppn} leaves its block")
        expected = self._next_program_offset[block]
        if offset != expected or \
                self._state.count(_ERASED, ppn, stop) != count:
            raise ProgramError(
                f"out-of-order or overwriting run in block {block}: page "
                f"offset {offset}, expected {expected}")
        # Both stamps first: a value that does not fit raises before any
        # page is touched.
        owners = array("i", lpns)
        stamps = array("q", seqs)
        if media.active:
            media.op_counts["program"] += count
        self._seq[ppn:stop] = stamps
        self._owner[ppn:stop] = owners
        self._state[ppn:stop] = _PROGRAMMED_BYTE * count
        self._data[ppn:stop] = pages
        self._next_program_offset[block] = offset + count
        self.total_programs += count
        self.channel_ops[block % self._channel_count] += count

    def copyback_run(self, ppn: int, sources: Sequence[int],
                     lpns: Sequence[int], seqs: Sequence[int],
                     spares: Dict[int, Any]) -> None:
        """Copy the pages at ``sources`` (readable pages of one block, in
        ascending order) to ``len(sources)`` consecutive pages of one
        block from ``ppn`` on: the effect of one :meth:`read` of each
        source and one :meth:`program` of its payload per page, in order.
        Page ``i`` is stamped ``(lpns[i], seqs[i])`` when ``lpns[i] >=
        0``, else with ``spares[ppn + i]`` (``spares`` lists those pages
        in PPN order).

        The erased, in-order and readable rules are checked once for the
        run before anything changes, and the arrays are filled by slice
        assignment.  Like :meth:`program_run` it honours no media fault,
        so it refuses to run while one is armed and counts its reads and
        programs on a plan that only counts."""
        media = self.faults.media
        if media.active and media.armed():
            raise ProgramError("a copyback run cannot honour media faults")
        count = len(sources)
        full = self._pages_per_block
        block = ppn // full
        offset = ppn - block * full
        stop = ppn + count
        if not 0 <= ppn < self._total_pages or offset + count > full:
            raise ProgramError(
                f"run of {count} pages from PPN {ppn} leaves its block")
        expected = self._next_program_offset[block]
        if offset != expected or \
                self._state.count(_ERASED, ppn, stop) != count:
            raise ProgramError(
                f"out-of-order or overwriting run in block {block}: page "
                f"offset {offset}, expected {expected}")
        source_block = sources[0] // full
        if not (0 <= sources[0] and sources[-1] < self._total_pages
                and sources[-1] // full == source_block):
            raise ReadError(f"copyback sources {sources} span blocks")
        state = self._state
        data = self._data
        payloads = [data[source] for source in sources
                    if state[source] == _PROGRAMMED]
        if len(payloads) != count:
            raise ReadError(f"a copyback source of {sources} is unreadable")
        # Both stamps first: a value that does not fit raises before any
        # page is touched.
        owners = array("i", lpns)
        stamps = array("q", seqs)
        if media.active:
            media.op_counts["read"] += count
            media.op_counts["program"] += count
        if spares:
            # A page stamped with a record keeps its stale seq slot, as
            # a program without an owner leaves it.
            seq = self._seq
            for spared in spares:
                stamps[spared - ppn] = seq[spared]
            overflow = self._overflow
            if block in overflow:
                overflow[block].update(spares)
            else:
                overflow[block] = dict(spares)
        self._seq[ppn:stop] = stamps
        self._owner[ppn:stop] = owners
        self._state[ppn:stop] = _PROGRAMMED_BYTE * count
        self._data[ppn:stop] = payloads
        self._next_program_offset[block] = offset + count
        self.total_reads += count
        self.total_programs += count
        channel_ops = self.channel_ops
        channel_ops[source_block % self._channel_count] += count
        channel_ops[block % self._channel_count] += count

    def read(self, ppn: int) -> Any:
        """Read the data payload of a programmed page."""
        if not 0 <= ppn < self._total_pages:
            self.geometry.check_ppn(ppn)   # raises with the range message
        state = self._state[ppn]
        if state == _ERASED:
            raise ReadError(f"PPN {ppn} is erased; nothing to read")
        self.total_reads += 1
        self.channel_ops[(ppn // self._pages_per_block)
                         % self._channel_count] += 1
        if state == _FAILED:
            self.failed_reads += 1
            raise UncorrectableReadError(
                f"PPN {ppn} failed during program; payload unreadable")
        media = self.faults.media
        if media.active:
            try:
                corrupt = media.on_read(ppn)
            except UncorrectableReadError:
                self.failed_reads += 1
                raise
            if corrupt:
                return (CORRUPT_PAYLOAD, ppn)
        return self._data[ppn]

    def read_spare(self, ppn: int) -> Any:
        """Read only the spare-area record (cheap OOB scan during recovery).

        The spare area is modelled as separately protected, so this never
        consults read faults; a *failed* page still has no spare to give."""
        self.geometry.check_ppn(ppn)
        if self._state[ppn] == _ERASED:
            raise ReadError(f"PPN {ppn} is erased; no spare data")
        lpn = self._owner[ppn]
        if lpn >= 0:
            return ((lpn, self._seq[ppn]),)
        return self._overflow.get(ppn // self._pages_per_block, {}).get(ppn)

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
        stop = start + self._pages_per_block
        self._state[start:stop] = self._erased_state
        self._data[start:stop] = self._erased_payload
        self._owner[start:stop] = self._erased_owner
        if block in self._overflow:
            del self._overflow[block]
        self._next_program_offset[block] = 0
        self.erase_counts[block] += 1
        self.total_erases += 1
        self.channel_ops[block % self._channel_count] += 1

    # -------------------------------------------------------------- queries

    def is_programmed(self, ppn: int) -> bool:
        """True when the page holds *readable* programmed data (a page that
        failed during program is not usable and reports False)."""
        self.geometry.check_ppn(ppn)
        return self._state[ppn] == _PROGRAMMED

    def is_failed(self, ppn: int) -> bool:
        """True when the page consumed its program slot but failed."""
        self.geometry.check_ppn(ppn)
        return self._state[ppn] == _FAILED

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
        state = self._state
        owner = self._owner
        seq = self._seq
        overflow = self._overflow.get(block, {})
        return [(ppn, ((owner[ppn], seq[ppn]),) if owner[ppn] >= 0
                 else overflow.get(ppn))
                for ppn in range(start,
                                 start + self._next_program_offset[block])
                if state[ppn] != _FAILED]

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
