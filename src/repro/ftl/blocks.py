"""Block state table: what the firmware itself knows about each data block.

A page-mapping FTL decides where every page goes, so it never needs to
*ask* the media how full a block is or scan the array for GC candidates:
it can keep the answers.  :class:`BlockTable` is that bookkeeping — per
block a state, a write pointer and a valid-page count, plus the free and
spare pools — as plain lists indexed by block number, so the per-page
paths of :class:`~repro.ftl.pagemap.PageMappingFtl` read and bump them
without a call, and victim selection is one pass over two lists.

States and the only transitions (``docs/architecture.md`` §2 has the
table with who triggers each):

* ``FREE`` — erased; in a per-channel free list, or held in the spare
  pool.  ``open()`` -> ``OPEN``.
* ``OPEN`` — holds an allocation slot (one host slot per channel, one GC
  slot), full or not; the FTL bumps its write pointer per program.  When
  the slot moves on to a fresh block -> ``CLOSED``; ``retire()`` ->
  ``BAD``.
* ``CLOSED`` — programmed and out of its slot: exactly the GC
  candidates.  ``erased()`` -> ``FREE``; ``retire()`` -> ``BAD``.
* ``BAD`` — retired for a media failure; never erased or reused.

The table is volatile like every other DRAM structure: ``rebuild()``
re-derives it from the media's programmed-page counts after a crash, and
``check()`` cross-checks it against the media on demand.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Iterable, List, Optional, Sequence, Tuple

from repro.errors import OutOfSpaceError

FREE, OPEN, CLOSED, BAD = range(4)


class BlockTable:
    """State, write pointer and valid count of data blocks ``0..n-1``.

    ``state``, ``write_ptr`` and ``valid`` are public lists the owning
    FTL indexes directly (and whose identity never changes, so it may
    hold them in locals and attributes); the pools change only through
    the methods below.
    """

    def __init__(self, block_count: int, pages_per_block: int,
                 channel_count: int, spare_target: int = 0) -> None:
        self.pages_per_block = pages_per_block
        self.channel_count = channel_count
        self.state: List[int] = [FREE] * block_count
        self.write_ptr: List[int] = [0] * block_count   # pages programmed
        self.valid: List[int] = [0] * block_count       # of them, still live
        self._fill_pools(spare_target)   # spares, free lists, free_count

    # ---------------------------------------------------------------- pools

    def _fill_pools(self, spare_target: int) -> None:
        """Build the spare pool and the free lists from the FREE blocks:
        the highest ``spare_target`` are held back as spares, the rest
        are released in ascending order."""
        erased = [block for block, state in enumerate(self.state)
                  if state == FREE]
        self.spares: List[int] = [
            erased.pop() for __ in range(min(spare_target, len(erased)))]
        # Per-channel FIFOs of (stamp, block); the stamp keeps one global
        # age order across channels for the GC slot.
        self._free: List[Deque[Tuple[int, int]]] = [
            deque() for __ in range(self.channel_count)]
        self._stamp = self.free_count = 0
        for block in erased:
            self.release(block)

    def release(self, block: int) -> None:
        """-> FREE: an erased block joins the tail of its channel's free
        list."""
        self.state[block] = FREE
        self._stamp += 1
        self._free[block % self.channel_count].append((self._stamp, block))
        self.free_count += 1

    def open(self, channel: Optional[int],
             displaced: Optional[int]) -> Optional[int]:
        """FREE -> OPEN: take the oldest free block of ``channel`` (None
        when that channel is dry), or of the whole pool when ``channel``
        is None (the GC slot; raises when every channel is dry).  The
        full block it replaces in the slot closes: OPEN -> CLOSED."""
        if channel is None:
            heads = [free[0] for free in self._free if free]
            if not heads:
                raise OutOfSpaceError("no free blocks available for allocation")
            channel = min(heads)[1] % self.channel_count
        free = self._free[channel]
        if not free:
            return None
        block = free.popleft()[1]
        self.free_count -= 1
        self.state[block] = OPEN
        if displaced is not None:
            self.state[displaced] = CLOSED
        return block

    def erased(self, block: int) -> None:
        """CLOSED -> FREE: the GC victim was erased."""
        self.write_ptr[block] = self.valid[block] = 0
        self.release(block)

    def retire(self, block: int) -> None:
        """OPEN/CLOSED -> BAD; a spare, if any is left, backfills the
        free pool."""
        self.state[block] = BAD
        if self.spares:
            self.release(self.spares.pop())

    def free_blocks(self) -> List[int]:
        """The free pool, oldest first (the order the GC slot takes
        them; a host slot takes the oldest *of its channel*)."""
        return [block for __, block in sorted(
            entry for free in self._free for entry in free)]

    # ------------------------------------------------------------ selection

    def pick_victim(self) -> Optional[int]:
        """The greedy victim: the CLOSED block with the fewest valid
        pages, lowest block number on ties; None when nothing is closed.
        One pass over two plain lists — no call per block."""
        never = self.pages_per_block + 1
        keys = [valid if state == CLOSED else never
                for valid, state in zip(self.valid, self.state)]
        fewest = min(keys)
        return keys.index(fewest) if fewest != never else None

    def pick_coldest(self, erase_counts: Sequence[int],
                     threshold: int) -> Optional[int]:
        """Static wear leveling: the least-worn CLOSED block (lowest
        block number on ties) once the erase-count spread across the
        closed blocks reaches ``threshold``, else None.

        The closed blocks' spread cannot exceed the spread over every
        data block, so while that one is below ``threshold`` the answer
        is None without a pass over the states."""
        states = self.state
        data_wear = erase_counts[:len(states)]
        if max(data_wear) - min(data_wear) < threshold:
            return None
        wear = [erases for erases, state in zip(erase_counts, states)
                if state == CLOSED]
        if len(wear) < 2:
            return None
        coldest = min(wear)
        if max(wear) - coldest < threshold:
            return None
        return next(block for block, state in enumerate(states)
                    if state == CLOSED and erase_counts[block] == coldest)

    # ------------------------------------------------------------- recovery

    def rebuild(self, programmed: Sequence[int], bad: Iterable[int],
                spare_target: int) -> List[int]:
        """Re-derive the table from the one thing that survived a crash:
        the media's programmed-page counts.  Retired blocks are BAD,
        erased ones FREE (pooled again), everything else CLOSED.  Returns
        the partially-programmed blocks, ascending, for the FTL to
        ``reopen()`` into its slots."""
        bad = set(bad)
        self.write_ptr[:] = programmed
        self.state[:] = [BAD if block in bad else CLOSED if used else FREE
                         for block, used in enumerate(programmed)]
        self._fill_pools(spare_target)
        return [block for block, used in enumerate(programmed)
                if self.state[block] == CLOSED and used < self.pages_per_block]

    def reopen(self, block: int) -> None:
        """CLOSED -> OPEN: recovery put a partial block back in a slot."""
        self.state[block] = OPEN

    # ---------------------------------------------------------------- check

    def check(self, programmed: Sequence[int], slots: Iterable[int],
              bad: Iterable[int]) -> None:
        """Cross-check against the media (``programmed[block]`` = pages
        the NAND says are programmed) and against the FTL's slots and
        grown-bad set.  Raises ``AssertionError`` on the first drift."""
        free = self.free_blocks()
        pools = {FREE: free + self.spares, OPEN: list(slots), BAD: list(bad)}
        held = [block for blocks in pools.values() for block in blocks]
        if len(set(held)) != len(held):
            raise AssertionError(
                f"a block is in two of free/spare/active/bad: {pools}")
        if self.free_count != len(free):
            raise AssertionError(
                f"free count {self.free_count} != free lists {free}")
        for state, blocks in pools.items():
            for block in blocks:
                if self.state[block] != state or (
                        state == FREE and self.write_ptr[block]):
                    raise AssertionError(
                        f"block {block} has state {self.state[block]} and "
                        f"write pointer {self.write_ptr[block]}, expected "
                        f"state {state}")
        if self.write_ptr != list(programmed):
            drift = [(block, own, used) for block, (own, used)
                     in enumerate(zip(self.write_ptr, programmed))
                     if own != used]
            raise AssertionError(
                f"write pointers drifted from the media's programmed "
                f"counts (block, pointer, programmed): {drift}")
        # The CLOSED set must be what a scan of the media would call the
        # GC candidates: programmed, in no slot, not free, not bad.
        scanned = [block for block, used in enumerate(programmed)
                   if used > 0 and block not in held]
        closed = [block for block, state in enumerate(self.state)
                  if state == CLOSED]
        if closed != scanned:
            raise AssertionError(
                f"closed blocks {closed} != scanned GC candidates {scanned}")
