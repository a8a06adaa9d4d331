"""Update-in-place B+tree over the buffer pool.

This is the InnoDB-style index: nodes are pages, updates modify pages in
place (in the pool; the device still writes out of place internally), and
the *flush* path — not the tree — is what differs between DWB and SHARE
modes.  Keys are arbitrary comparable Python values; rows are opaque.

Deletion is lazy (no rebalancing): emptied leaves stay linked until the
tree is rebuilt, which matches what the experiments need — LinkBench never
shrinks the database meaningfully.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Any, Callable, Iterator, List, Optional, Tuple

from repro.errors import EngineError
from repro.innodb.page import Page

LEAF = "leaf"
INTERNAL = "internal"

#: Slots in a tree's reusable descent-path buffer.  Every internal node
#: has at least two children, so no tree that fits a device gets close.
MAX_DEPTH = 64


class BTree:
    """A B+tree whose nodes live in the buffer pool.

    The tree talks to storage through three callbacks supplied by the
    engine: ``fetch(page_id) -> Page``, ``write(page) -> None`` (installs
    the new image dirty in the pool), and ``allocate() -> page_id``.
    ``lsn_source`` is any object whose ``next_lsn`` attribute is the LSN
    to stamp on a page written now (the engine passes its redo log).
    """

    def __init__(self, name: str,
                 fetch: Callable[[int], Page],
                 write: Callable[[Page], None],
                 allocate: Callable[[], int],
                 lsn_source: Any,
                 leaf_capacity: int = 32,
                 internal_fanout: int = 64,
                 root_page_id: Optional[int] = None) -> None:
        if leaf_capacity < 2:
            raise ValueError(f"leaf_capacity must be >= 2: {leaf_capacity}")
        if internal_fanout < 3:
            raise ValueError(f"internal_fanout must be >= 3: {internal_fanout}")
        self.name = name
        self._fetch = fetch
        self._write = write
        self._allocate = allocate
        self._lsn_source = lsn_source
        self.leaf_capacity = leaf_capacity
        self.internal_fanout = internal_fanout
        # Internal page ids of the last descent, root first; only a
        # split reads it (the first ``depth`` slots).
        self._path: List[int] = [0] * MAX_DEPTH
        if root_page_id is None:
            root_page_id = self._allocate()
            self._store(root_page_id, (LEAF, (), (), None))
        self.root_page_id = root_page_id
        self.entry_count = 0

    # ------------------------------------------------------------ plumbing

    def _node(self, page_id: int) -> tuple:
        page = self._fetch(page_id)
        if not page.checksum_ok:
            raise EngineError(f"torn page {page_id} read through B+tree")
        return page.payload

    def _store(self, page_id: int, payload: tuple) -> None:
        self._write(Page(page_id, self._lsn_source.next_lsn, payload))

    def _descend(self, key: Any) -> Tuple[int, tuple, int]:
        """Leaf holding ``key``'s position: its page id, its (already
        fetched) payload, and the number of internal levels above it,
        whose page ids are now in ``self._path`` (root first).

        Every keyed access funnels through here, so the walk is written
        flat — one fetch and one bisect per level, nothing else: the
        fetched leaf payload is returned rather than refetched by the
        caller, and the path goes into the tree's one buffer by index
        because only a split ever reads it."""
        fetch = self._fetch
        path = self._path
        depth = 0
        page_id = self.root_page_id
        while True:
            page = fetch(page_id)
            if not page.checksum_ok:
                raise EngineError(
                    f"torn page {page_id} read through B+tree")
            node = page.payload
            if node[0] != INTERNAL:
                return page_id, node, depth
            path[depth] = page_id
            depth += 1
            page_id = node[2][bisect_right(node[1], key)]

    # -------------------------------------------------------------- lookup

    def get(self, key: Any) -> Optional[Any]:
        """Row stored under ``key``, or None."""
        __, node, __ = self._descend(key)
        keys = node[1]
        # Keys are unique, so a stored key sits just left of where
        # bisect_right lands.
        index = bisect_right(keys, key)
        if index and keys[index - 1] == key:
            return node[2][index - 1]
        return None

    def range(self, low: Any, high: Any, limit: Optional[int] = None
              ) -> List[Tuple[Any, Any]]:
        """The (key, row) pairs with low <= key <= high in key order, at
        most ``limit`` of them.

        One slice per leaf.  The next leaf is fetched only when this
        one ran out with every key from ``low`` on still <= ``high`` and
        the limit not yet met — a limit met on a leaf's last key stops
        here — because each fetch is a buffer-pool touch."""
        if limit is not None and limit < 1:
            raise ValueError(f"limit must be >= 1: {limit}")
        __, node, __ = self._descend(low)
        found: List[Tuple[Any, Any]] = []
        while True:
            __, keys, rows, next_leaf = node
            start = bisect_left(keys, low)
            stop = bisect_right(keys, high, start)
            if limit is not None and stop - start >= limit:
                stop = start + limit
                found += zip(keys[start:stop], rows[start:stop])
                return found
            found += zip(keys[start:stop], rows[start:stop])
            if stop < len(keys) or next_leaf is None:
                return found
            if limit is not None:
                limit -= stop - start
            node = self._node(next_leaf)

    # -------------------------------------------------------------- insert

    def put(self, key: Any, row: Any) -> bool:
        """Insert or overwrite; returns True when the key was new."""
        was_new, __ = self.upsert(key, row)
        return was_new

    def upsert(self, key: Any, row: Any) -> Tuple[bool, Optional[Any]]:
        """Insert or overwrite in one descent; returns ``(was_new,
        previous_row)``.  The transaction layer uses the previous row as
        its undo record, replacing a separate :meth:`get` per write."""
        leaf_id, node, depth = self._descend(key)
        __, keys, rows, next_leaf = node
        index = bisect_right(keys, key)
        if index and keys[index - 1] == key:
            was_new = False
            old_row = rows[index - 1]
            rows = rows[:index - 1] + (row,) + rows[index:]
        else:
            was_new = True
            old_row = None
            keys = keys[:index] + (key,) + keys[index:]
            rows = rows[:index] + (row,) + rows[index:]
            self.entry_count += 1
            if len(keys) > self.leaf_capacity:
                self._split_leaf(leaf_id, keys, rows, next_leaf,
                                 self._path[:depth])
                return True, None
        self._write(Page(leaf_id, self._lsn_source.next_lsn,
                         (LEAF, keys, rows, next_leaf)))
        return was_new, old_row

    def _split_leaf(self, leaf_id: int, keys: tuple, rows: tuple,
                    next_leaf: Optional[int], path: List[int]) -> None:
        mid = len(keys) // 2
        right_id = self._allocate()
        self._store(right_id, (LEAF, keys[mid:], rows[mid:], next_leaf))
        self._store(leaf_id, (LEAF, keys[:mid], rows[:mid], right_id))
        self._insert_into_parent(path, leaf_id, keys[mid], right_id)

    def _insert_into_parent(self, path: List[int], left_id: int,
                            separator: Any, right_id: int) -> None:
        if not path:
            new_root = self._allocate()
            self._store(new_root,
                        (INTERNAL, (separator,), (left_id, right_id)))
            self.root_page_id = new_root
            return
        parent_id = path[-1]
        __, keys, children = self._node(parent_id)
        index = bisect_right(keys, separator)
        keys = keys[:index] + (separator,) + keys[index:]
        children = children[:index + 1] + (right_id,) + children[index + 1:]
        if len(children) <= self.internal_fanout:
            self._store(parent_id, (INTERNAL, keys, children))
            return
        mid = len(keys) // 2
        push_up = keys[mid]
        right_internal = self._allocate()
        self._store(right_internal,
                    (INTERNAL, keys[mid + 1:], children[mid + 1:]))
        self._store(parent_id, (INTERNAL, keys[:mid], children[:mid + 1]))
        self._insert_into_parent(path[:-1], parent_id, push_up, right_internal)

    # -------------------------------------------------------------- delete

    def delete(self, key: Any) -> bool:
        """Remove ``key``; returns True when it existed (lazy, no merge)."""
        __, existed = self.pop(key)
        return existed

    def pop(self, key: Any) -> Tuple[Optional[Any], bool]:
        """Remove ``key`` in one descent; returns ``(removed_row,
        existed)`` — the row feeds the transaction layer's undo record.
        The existed flag disambiguates a stored ``None`` row."""
        leaf_id, node, __ = self._descend(key)
        __, keys, rows, next_leaf = node
        index = bisect_right(keys, key) - 1
        if index < 0 or keys[index] != key:
            return None, False
        self.entry_count -= 1
        self._write(Page(leaf_id, self._lsn_source.next_lsn,
                         (LEAF, keys[:index] + keys[index + 1:],
                          rows[:index] + rows[index + 1:], next_leaf)))
        return rows[index], True

    # --------------------------------------------------------------- debug

    def depth(self) -> int:
        """Levels from root to leaf inclusive."""
        depth = 1
        node = self._node(self.root_page_id)
        while node[0] == INTERNAL:
            depth += 1
            node = self._node(node[2][0])
        return depth

    def items(self) -> Iterator[Tuple[Any, Any]]:
        """Full scan in key order: one fetch per page on the leftmost
        descent, then one per leaf."""
        node = self._node(self.root_page_id)
        while node[0] == INTERNAL:
            node = self._node(node[2][0])
        while True:
            __, keys, rows, next_leaf = node
            yield from zip(keys, rows)
            if next_leaf is None:
                return
            node = self._node(next_leaf)
