"""Immutable sorted runs (SSTables) on the host filesystem.

An SSTable is one file: ``entry_count_blocks`` data blocks (each holding
up to ``block_capacity`` sorted entries) followed by one footer block
carrying the sparse index (first key of every data block).  The index is
cached in memory after open, like real SSTable index blocks; data blocks
are read from the device on every probe.

Data blocks are the unit SHARE-assisted compaction remaps: a block whose
entries all survive a merge unchanged moves to the output run without
being rewritten.
"""

from __future__ import annotations

import bisect
from typing import Any, Iterator, List, Optional, Sequence, Tuple

from repro.errors import EngineError
from repro.host.file import File
from repro.host.filesystem import HostFs


class _Tombstone:
    """Sentinel marking a deleted key until compaction drops it."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "<tombstone>"


TOMBSTONE = _Tombstone()

_DATA_TAG = "sst-data"
_FOOTER_TAG = "sst-footer"


class BlockMeta:
    """Per-data-block index entry: key fence, tombstone flag, and entry
    count, so SHARE compaction can prove a block reusable — and account
    for it — without reading it."""

    __slots__ = ("first_key", "last_key", "has_tombstone", "entry_count")

    def __init__(self, first_key: Any, last_key: Any,
                 has_tombstone: bool, entry_count: int) -> None:
        self.first_key = first_key
        self.last_key = last_key
        self.has_tombstone = has_tombstone
        self.entry_count = entry_count

    def as_tuple(self) -> tuple:
        return (self.first_key, self.last_key, self.has_tombstone,
                self.entry_count)


class SSTable:
    """One immutable sorted run."""

    def __init__(self, fs: HostFs, file: File, index: List[BlockMeta],
                 entry_count: int, block_capacity: int) -> None:
        self.fs = fs
        self.file = file
        self._index = index
        self._first_keys = [meta.first_key for meta in index]
        self.entry_count = entry_count
        self.block_capacity = block_capacity

    # ------------------------------------------------------------ create

    @classmethod
    def build(cls, fs: HostFs, path: str,
              sorted_entries: Sequence[Tuple[Any, Any]],
              block_capacity: int = 16) -> "SSTable":
        """Write a new run from already-sorted, de-duplicated entries."""
        if block_capacity < 1:
            raise ValueError(f"block_capacity must be >= 1: {block_capacity}")
        file = fs.create(path)
        index: List[BlockMeta] = []
        block_count = -(-len(sorted_entries) // block_capacity) \
            if sorted_entries else 0
        file.fallocate(block_count + 1)
        for block_number in range(block_count):
            chunk = tuple(sorted_entries[block_number * block_capacity:
                                         (block_number + 1) * block_capacity])
            index.append(BlockMeta(
                chunk[0][0], chunk[-1][0],
                any(value is TOMBSTONE for __, value in chunk),
                len(chunk)))
            file.pwrite_block(block_number, (_DATA_TAG, chunk))
        file.pwrite_block(block_count, (
            _FOOTER_TAG, tuple(meta.as_tuple() for meta in index),
            len(sorted_entries), block_capacity))
        file.fsync()
        return cls(fs, file, index, len(sorted_entries), block_capacity)

    @classmethod
    def open(cls, fs: HostFs, path: str) -> "SSTable":
        """Reopen a run: one footer read rebuilds the in-memory index."""
        file = fs.open(path)
        footer = file.pread_block(file.block_count - 1)
        if not (isinstance(footer, tuple) and footer[0] == _FOOTER_TAG):
            raise EngineError(f"{path}: last block is not an SSTable footer")
        __, raw_index, entry_count, block_capacity = footer
        index = [BlockMeta(*entry) for entry in raw_index]
        return cls(fs, file, index, entry_count, block_capacity)

    # ------------------------------------------------------------- reads

    @property
    def path(self) -> str:
        return self.file.path

    @property
    def data_block_count(self) -> int:
        return len(self._index)

    def block_meta(self, block_number: int) -> BlockMeta:
        return self._index[block_number]

    def _block_entries(self, block_number: int) -> Tuple:
        record = self.file.pread_block(block_number)
        if not (isinstance(record, tuple) and record[0] == _DATA_TAG):
            raise EngineError(
                f"{self.path}: block {block_number} is not a data block")
        return record[1]

    def get(self, key: Any) -> Optional[Any]:
        """Value for key (may be TOMBSTONE), or None when not in this run.

        Costs one data-block read when the sparse index says the key could
        be present.
        """
        if not self._index:
            return None
        block_number = bisect.bisect_right(self._first_keys, key) - 1
        if block_number < 0:
            return None
        if key > self._index[block_number].last_key:
            return None  # key falls in a fence gap: no read needed
        entries = self._block_entries(block_number)
        keys = [k for k, __ in entries]
        position = bisect.bisect_left(keys, key)
        if position < len(keys) and keys[position] == key:
            return entries[position][1]
        return None

    def block_items(self) -> Iterator[Tuple[int, Tuple]]:
        """(block number, entries) over every data block in key order."""
        for block_number in range(len(self._index)):
            yield block_number, self._block_entries(block_number)

    def items(self) -> Iterator[Tuple[Any, Any]]:
        for __, entries in self.block_items():
            for key, value in entries:
                yield key, value
