"""LSM merge compaction: classic copy vs SHARE-assisted zero-copy.

The merge takes runs ordered newest-first, keeps the newest version of
each key, and drops tombstones (this is a full merge into the bottom
level).  In SHARE mode, a whole input data block is *reused* — remapped
into the output run with one SHARE range instead of being read and
rewritten — when the index fences prove that:

1. every remaining key of every other input is strictly greater than the
   block's last key (nothing interleaves or shadows it),
2. the block's first key is greater than the last key already emitted
   (nothing in it was superseded earlier in the merge),
3. the block contains no tombstones (those must be dropped).

Under skewed updates the bulk of the bottom level is cold and satisfies
these conditions, so most of the data "moves" without any I/O — the LSM
analogue of the paper's Couchbase compaction (Figure 3).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Any, List, Optional, Sequence, Tuple

from repro.host.filesystem import HostFs
from repro.host.ioctl import share_file_ranges
from repro.lsm.sstable import (
    _DATA_TAG,
    _FOOTER_TAG,
    TOMBSTONE,
    BlockMeta,
    SSTable,
)
from repro.sim.clock import SimClock


class CompactionMode(Enum):
    """How surviving data reaches the output run."""

    COPY = "copy"
    SHARE = "share"


@dataclass(frozen=True)
class LsmCompactionResult:
    """Accounting of one merge."""

    mode: str
    elapsed_seconds: float
    entries_out: int
    blocks_written: int
    blocks_shared: int
    share_commands: int


class _RunCursor:
    """Merge-side view of one input run: walks blocks and entries."""

    def __init__(self, table: SSTable, priority: int) -> None:
        self.table = table
        self.priority = priority          # lower = newer run
        self.block_number = 0
        self.entry_pos = 0
        self._entries: Optional[Tuple] = None

    def exhausted(self) -> bool:
        return self.block_number >= self.table.data_block_count

    def at_block_start(self) -> bool:
        return self.entry_pos == 0

    def current_meta(self) -> BlockMeta:
        return self.table.block_meta(self.block_number)

    def current_key(self) -> Any:
        """Smallest remaining key; from the fence when at a block start
        (no read), from the loaded block otherwise."""
        if self.at_block_start():
            return self.current_meta().first_key
        return self._load()[self.entry_pos][0]

    def _load(self) -> Tuple:
        if self._entries is None:
            self._entries = self.table._block_entries(self.block_number)
        return self._entries

    def pop_entry(self) -> Tuple[Any, Any]:
        entries = self._load()
        entry = entries[self.entry_pos]
        self.entry_pos += 1
        if self.entry_pos >= len(entries):
            self.block_number += 1
            self.entry_pos = 0
            self._entries = None
        return entry

    def skip_block(self) -> None:
        """Advance past the current (reused) block without reading it."""
        assert self.at_block_start()
        self.block_number += 1
        self._entries = None


def merge_compact(fs: HostFs, runs_newest_first: Sequence[SSTable],
                  out_path: str, mode: CompactionMode,
                  clock: SimClock,
                  block_capacity: Optional[int] = None
                  ) -> Tuple[SSTable, LsmCompactionResult]:
    """Merge ``runs_newest_first`` into a fresh bottom-level run."""
    start_us = clock.now_us
    if block_capacity is None:
        block_capacity = (runs_newest_first[0].block_capacity
                          if runs_newest_first else 16)
    cursors = [_RunCursor(table, priority)
               for priority, table in enumerate(runs_newest_first)]
    units: List[tuple] = []    # ("copy", entries) | ("reuse", cursor, block)
    buffer: List[Tuple[Any, Any]] = []
    last_emitted: Optional[Any] = None

    def flush_buffer() -> None:
        if buffer:
            units.append(("copy", tuple(buffer)))
            buffer.clear()

    def reusable_cursor() -> Optional[_RunCursor]:
        if mode is not CompactionMode.SHARE:
            return None
        live = [c for c in cursors if not c.exhausted()]
        for cursor in live:
            if not cursor.at_block_start():
                continue
            meta = cursor.current_meta()
            if meta.has_tombstone:
                continue
            if last_emitted is not None and not meta.first_key > last_emitted:
                continue
            others_clear = all(
                other is cursor or other.exhausted()
                or other.current_key() > meta.last_key
                for other in live)
            if others_clear:
                return cursor
        return None

    while any(not cursor.exhausted() for cursor in cursors):
        reuse = reusable_cursor()
        if reuse is not None:
            # Everything buffered precedes the reused block in key order.
            flush_buffer()
            meta = reuse.current_meta()
            units.append(("reuse", reuse, reuse.block_number))
            last_emitted = meta.last_key
            reuse.skip_block()
            continue
        # Entry-wise merge step: take the globally smallest key, newest
        # run wins ties; older duplicates are consumed and dropped.
        live = [c for c in cursors if not c.exhausted()]
        smallest = min(c.current_key() for c in live)
        winner = min((c for c in live if c.current_key() == smallest),
                     key=lambda c: c.priority)
        key, value = winner.pop_entry()
        for other in cursors:
            while (not other.exhausted() and other is not winner
                   and other.current_key() == key):
                other.pop_entry()
        last_emitted = key
        if value is TOMBSTONE:
            continue
        buffer.append((key, value))
        if len(buffer) >= block_capacity:
            flush_buffer()
    flush_buffer()

    table, written, shared, commands = _write_output(
        fs, out_path, units, block_capacity)
    elapsed = (clock.now_us - start_us) / 1e6
    return table, LsmCompactionResult(
        mode=mode.value, elapsed_seconds=elapsed,
        entries_out=table.entry_count, blocks_written=written,
        blocks_shared=shared, share_commands=commands)


def _write_output(fs: HostFs, out_path: str, units: List[tuple],
                  block_capacity: int) -> Tuple[SSTable, int, int, int]:
    """Materialise the merge plan: write fresh blocks, SHARE reused ones."""
    file = fs.create(out_path)
    file.fallocate(len(units) + 1)
    index: List[BlockMeta] = []
    entry_count = 0
    written = 0
    share_ranges: List[Tuple[int, SSTable, int]] = []
    for out_block, unit in enumerate(units):
        if unit[0] == "copy":
            entries = unit[1]
            file.pwrite_block(out_block, (_DATA_TAG, entries))
            written += 1
            index.append(BlockMeta(entries[0][0], entries[-1][0], False,
                                   len(entries)))
            entry_count += len(entries)
        else:
            __, cursor, block_number = unit
            meta = cursor.table.block_meta(block_number)
            share_ranges.append((out_block, cursor.table, block_number))
            index.append(BlockMeta(meta.first_key, meta.last_key, False,
                                   meta.entry_count))
            entry_count += meta.entry_count
    commands = 0
    if share_ranges:
        by_table: dict = {}
        for out_block, table, src_block in share_ranges:
            by_table.setdefault(table, []).append((out_block, src_block, 1))
        for table, ranges in by_table.items():
            commands += share_file_ranges(file, table.file, ranges)
    file.pwrite_block(len(units), (
        _FOOTER_TAG, tuple(meta.as_tuple() for meta in index),
        entry_count, block_capacity))
    file.fsync()
    table = SSTable(fs, file, index, entry_count, block_capacity)
    return table, written, len(share_ranges), commands
