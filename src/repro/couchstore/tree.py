"""Append-only (copy-on-write / wandering) B+tree.

Nodes are immutable once written: any change to a leaf appends a new leaf
block and — this is the wandering-tree amplification of Section 2.2 —
new copies of every node on the path up to the root.  ``apply_batch``
applies a whole commit's changes in one pass, so nodes shared by several
changed keys are rewritten only once per commit (the batch-size effect of
Figure 7(b)).

Values are document pointers: the file block index of the document
(plus its length in blocks).  The tree never reads documents.
"""

from __future__ import annotations

import bisect
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.errors import EngineError
from repro.couchstore.layout import INTERNAL_TAG, LEAF_TAG
from repro.host.file import File


class AppendTree:
    """B+tree over an append-only file.

    ``root_block`` of None means the tree is empty.  A node cache keyed by
    block index avoids re-reading immutable nodes from the device, like
    couchstore's in-memory btree cache; it holds only nodes reachable
    from ``root_block``, and document blocks are never cached here.
    """

    def __init__(self, file: File, leaf_capacity: int = 7,
                 internal_fanout: int = 200,
                 root_block: Optional[int] = None,
                 append_fn=None) -> None:
        if leaf_capacity < 2:
            raise ValueError(f"leaf_capacity must be >= 2: {leaf_capacity}")
        if internal_fanout < 3:
            raise ValueError(f"internal_fanout must be >= 3: {internal_fanout}")
        self.file = file
        self.leaf_capacity = leaf_capacity
        self.internal_fanout = internal_fanout
        self.root_block = root_block
        # Engines inject a preallocation-aware appender; standalone use
        # falls back to plain file appends.
        self._append = append_fn if append_fn is not None else file.append_block
        self._cache: Dict[int, tuple] = {}
        #: Last ``get`` answer as (root_block, key, pointer).
        self._memo: tuple = (None, None, None)
        #: Blocks the running ``apply_batch`` has replaced so far.
        self._replaced: List[int] = []
        self.nodes_written = 0
        self.nodes_obsoleted = 0

    # ------------------------------------------------------------- node IO

    def _read(self, block: int) -> tuple:
        node = self._cache.get(block)
        if node is None:
            node = self.file.pread_block(block)
            if not isinstance(node, tuple) or node[0] not in (LEAF_TAG,
                                                              INTERNAL_TAG):
                raise EngineError(f"block {block} is not an index node")
            self._cache[block] = node
        return node

    def _write(self, node: tuple) -> int:
        block = self._append(node)
        self._cache[block] = node
        self.nodes_written += 1
        return block

    # -------------------------------------------------------------- lookup

    def get(self, key: Any) -> Optional[Any]:
        """Document pointer stored under ``key``, or None.

        The last answer is remembered under the root it was read from:
        the tree is copy-on-write, so the same root is the same tree and
        the memo never needs invalidating."""
        root = self.root_block
        memo = self._memo
        if memo[0] == root and memo[1] == key:
            return memo[2]
        pointer = None
        if root is not None:
            cached = self._cache.get
            node = cached(root) or self._read(root)
            while node[0] == INTERNAL_TAG:
                block = node[2][bisect.bisect_right(node[1], key)]
                node = cached(block) or self._read(block)
            keys = node[1]
            index = bisect.bisect_right(keys, key)
            if index and keys[index - 1] == key:
                pointer = node[2][index - 1]
        self._memo = (root, key, pointer)
        return pointer

    def items(self) -> Iterator[Tuple[Any, Any]]:
        """All (key, pointer) pairs in key order."""
        if self.root_block is None:
            return
        stack = [self.root_block]
        out = []
        # Iterative DFS keeping key order (children pushed reversed).
        while stack:
            node = self._read(stack.pop())
            if node[0] == INTERNAL_TAG:
                stack.extend(reversed(node[2]))
            else:
                out.append(node)
        for leaf in out:
            __, keys, ptrs = leaf
            for key, ptr in zip(keys, ptrs):
                yield key, ptr

    def range_from(self, start_key: Any, limit: int
                   ) -> List[Tuple[Any, Any]]:
        """Up to ``limit`` (key, pointer) pairs with key >= start_key, in
        key order — the scan primitive YCSB workload E needs."""
        if limit < 1:
            raise ValueError(f"limit must be >= 1: {limit}")
        if self.root_block is None:
            return []
        out: List[Tuple[Any, Any]] = []
        self._collect_range(self.root_block, start_key, limit, out)
        return out

    def _collect_range(self, block: int, start_key: Any, limit: int,
                       out: List[Tuple[Any, Any]]) -> None:
        node = self._read(block)
        if node[0] == LEAF_TAG:
            __, keys, ptrs = node
            index = bisect.bisect_left(keys, start_key)
            while index < len(keys) and len(out) < limit:
                out.append((keys[index], ptrs[index]))
                index += 1
            return
        __, keys, children = node
        index = bisect.bisect_right(keys, start_key)
        while index < len(children) and len(out) < limit:
            self._collect_range(children[index], start_key, limit, out)
            index += 1

    def depth(self) -> int:
        """Levels root..leaf inclusive; 0 for an empty tree."""
        if self.root_block is None:
            return 0
        depth = 1
        node = self._read(self.root_block)
        while node[0] == INTERNAL_TAG:
            depth += 1
            node = self._read(node[2][0])
        return depth

    # --------------------------------------------------------------- batch

    def apply_batch(self, changes: Dict[Any, Optional[Any]]) -> int:
        """Apply a commit's worth of changes (pointer values; None deletes)
        copy-on-write; returns the number of index nodes written.

        The root pointer moves to the new root; untouched subtrees are
        reused by reference.
        """
        if not changes:
            return 0
        written_before = self.nodes_written
        if self.root_block is None:
            live = sorted((k, v) for k, v in changes.items() if v is not None)
            self.root_block = self._build_from_entries(live)
            return self.nodes_written - written_before
        self._replaced = []
        result = self._apply(self.root_block, dict(changes))
        self.root_block = self._collapse_to_root(result)
        # Only after the swap: until then the old root still reaches them.
        self.nodes_obsoleted += len(self._replaced)
        for block in self._replaced:
            del self._cache[block]
        return self.nodes_written - written_before

    def _collapse_to_root(self, entries: List[Tuple[Any, int]]) -> Optional[int]:
        """Turn the top-level (min_key, block) list into a single root."""
        if not entries:
            # Everything deleted: keep an explicit empty leaf as root.
            return self._write((LEAF_TAG, (), ()))
        while len(entries) > 1:
            entries = self._build_internal_level(entries)
        return entries[0][1]

    def _apply(self, block: int, changes: Dict[Any, Optional[Any]]
               ) -> List[Tuple[Any, int]]:
        """Recursive copy-on-write merge; returns replacement (min_key,
        block) entries for this subtree (possibly the original block when
        untouched)."""
        node = self._read(block)
        if node[0] == LEAF_TAG:
            return self._apply_leaf(block, node, changes)
        __, keys, children = node
        child_changes: List[Dict[Any, Optional[Any]]] = [
            {} for __ in children]
        for key, value in changes.items():
            child_changes[bisect.bisect_right(keys, key)][key] = value
        new_entries: List[Tuple[Any, int]] = []
        touched = False
        for child, sub in zip(children, child_changes):
            if not sub:
                new_entries.append((self._min_key(child), child))
                continue
            replacement = self._apply(child, sub)
            if len(replacement) != 1 or replacement[0][1] != child:
                touched = True
            new_entries.extend(replacement)
        if not touched:
            return [(new_entries[0][0] if new_entries else None, block)]
        self._replaced.append(block)
        if not new_entries:
            return []
        if len(new_entries) <= self.internal_fanout:
            return [self._write_internal(new_entries)]
        return self._split_entries_into_internals(new_entries)

    def _apply_leaf(self, block: int, node: tuple,
                    changes: Dict[Any, Optional[Any]]
                    ) -> List[Tuple[Any, int]]:
        __, keys, ptrs = node
        merged = dict(zip(keys, ptrs))
        for key, value in changes.items():
            if value is None:
                merged.pop(key, None)
            else:
                merged[key] = value
        entries = sorted(merged.items())
        if entries == list(zip(keys, ptrs)):
            return [(keys[0] if keys else None, block)]
        self._replaced.append(block)
        if not entries:
            return []
        return self._split_entries_into_leaves(entries)

    # ---------------------------------------------------------- node build

    def _split_entries_into_leaves(self, entries: List[Tuple[Any, Any]]
                                   ) -> List[Tuple[Any, int]]:
        chunks = _balanced_chunks(entries, self.leaf_capacity)
        out = []
        for chunk in chunks:
            keys = tuple(k for k, __ in chunk)
            ptrs = tuple(v for __, v in chunk)
            out.append((keys[0], self._write((LEAF_TAG, keys, ptrs))))
        return out

    def _split_entries_into_internals(self, entries: List[Tuple[Any, int]]
                                      ) -> List[Tuple[Any, int]]:
        out = []
        for chunk in _balanced_chunks(entries, self.internal_fanout):
            out.append(self._write_internal(chunk))
        return out

    def _write_internal(self, entries: List[Tuple[Any, int]]
                        ) -> Tuple[Any, int]:
        keys = tuple(min_key for min_key, __ in entries[1:])
        children = tuple(block for __, block in entries)
        return (entries[0][0], self._write((INTERNAL_TAG, keys, children)))

    def _build_internal_level(self, entries: List[Tuple[Any, int]]
                              ) -> List[Tuple[Any, int]]:
        return [self._write_internal(chunk)
                for chunk in _balanced_chunks(entries, self.internal_fanout)]

    def _build_from_entries(self, entries: List[Tuple[Any, Any]]) -> int:
        """Bulk-build a whole tree (initial load and compaction rebuild)."""
        if not entries:
            return self._write((LEAF_TAG, (), ()))
        level = self._split_entries_into_leaves(entries)
        while len(level) > 1:
            level = self._build_internal_level(level)
        return level[0][1]

    def bulk_load(self, sorted_items: List[Tuple[Any, Any]]) -> int:
        """Replace the tree with a bulk-built one over ``sorted_items``
        (compaction's index rebuild); returns nodes written."""
        written_before = self.nodes_written
        self._cache.clear()
        self.root_block = self._build_from_entries(list(sorted_items))
        return self.nodes_written - written_before

    def _min_key(self, block: int) -> Any:
        node = self._read(block)
        while node[0] == INTERNAL_TAG:
            node = self._read(node[2][0])
        keys = node[1]
        return keys[0] if keys else None


def _balanced_chunks(entries: List, capacity: int) -> List[List]:
    """Split ``entries`` into the fewest chunks of at most ``capacity``,
    sized as evenly as possible (avoids degenerate single-entry nodes)."""
    if not entries:
        return []
    count = -(-len(entries) // capacity)
    base = len(entries) // count
    extra = len(entries) % count
    chunks = []
    start = 0
    for index in range(count):
        size = base + (1 if index < extra else 0)
        chunks.append(entries[start:start + size])
        start += size
    return chunks
