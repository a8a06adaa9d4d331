"""A small embedded key-value database over the pager.

Page 0 holds the database header (B+tree root, allocator cursor, entry
count); the remaining pages hold B+tree nodes (reusing the InnoDB tree,
which only needs fetch/write/allocate callbacks).  Every transaction's
page set — including the header — commits atomically through the pager's
journal mode, so the whole database is crash-consistent under ROLLBACK,
WAL, and SHARE alike; only the I/O cost differs.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Iterator, Optional

from repro.errors import EngineError
from repro.host.filesystem import HostFs
from repro.innodb.btree import BTree
from repro.innodb.page import Page
from repro.sim.faults import NO_FAULTS, FaultPlan
from repro.sqlitelike.pager import JournalMode, Pager

HEADER_PAGE = 0


class SqliteLikeDb:
    """Single-table embedded KV database with transactional commits."""

    def __init__(self, fs: HostFs, path: str, mode: JournalMode,
                 page_count: int = 4096, leaf_capacity: int = 16,
                 internal_fanout: int = 32,
                 faults: FaultPlan = NO_FAULTS,
                 _pager: Optional[Pager] = None) -> None:
        self.pager = _pager if _pager is not None else Pager(
            fs, path, mode, page_count, faults=faults)
        # The tree stamps this on the page images it builds; the pager
        # stores bare payloads, so it is never read back.
        self.next_lsn = 0
        self._in_txn = False
        header = self.pager.read_page(HEADER_PAGE)
        if header is None:
            self._next_page = 1
            # Creating the tree writes its empty root, which implicitly
            # opens the bootstrap transaction via _ensure_txn_for_bootstrap.
            self.tree = self._make_tree(None, leaf_capacity, internal_fanout)
            self._write_header()
            self.pager.commit()
        else:
            __, root, next_page, leaf_capacity, internal_fanout = header
            self._next_page = next_page
            self.tree = self._make_tree(root, leaf_capacity, internal_fanout)

    def _make_tree(self, root: Optional[int], leaf_capacity: int,
                   internal_fanout: int) -> BTree:
        return BTree("kv",
                     fetch=self._fetch,
                     write=self._write,
                     allocate=self._allocate,
                     lsn_source=self,
                     leaf_capacity=leaf_capacity,
                     internal_fanout=internal_fanout,
                     root_page_id=root)

    # --------------------------------------------------- tree callbacks

    def _fetch(self, page_id: int) -> Page:
        payload = self.pager.read_page(page_id)
        if payload is None:
            raise EngineError(f"tree referenced unwritten page {page_id}")
        return Page(page_id, 0, payload)

    def _write(self, page: Page) -> None:
        self._ensure_txn_for_bootstrap()
        self.pager.write_page(page.page_id, page.payload)

    def _allocate(self) -> int:
        page_id = self._next_page
        self._next_page += 1
        if page_id >= self.pager.page_count:
            raise EngineError("database file is full")
        return page_id

    def _ensure_txn_for_bootstrap(self) -> None:
        # The tree constructor writes its empty root before the first
        # explicit transaction exists; fold that into the bootstrap commit.
        if self.pager._txn is None:
            self.pager.begin()

    def _write_header(self) -> None:
        self.pager.write_page(HEADER_PAGE, (
            "dbhdr", self.tree.root_page_id, self._next_page,
            self.tree.leaf_capacity, self.tree.internal_fanout))

    # ---------------------------------------------------------- txn API

    @contextmanager
    def transaction(self) -> Iterator["SqliteLikeDb"]:
        """All puts/deletes inside commit atomically (or not at all)."""
        if self._in_txn:
            raise EngineError("nested transactions are not supported")
        self._in_txn = True
        if self.pager._txn is None:
            self.pager.begin()
        try:
            yield self
        except BaseException:
            # Abort: discard dirty pages AND restore the in-memory tree
            # state (root pointer, allocator) from the committed header.
            self.pager.rollback_txn()
            header = self.pager.read_page(HEADER_PAGE)
            __, root, next_page, leaf_capacity, internal_fanout = header
            self._next_page = next_page
            self.tree = self._make_tree(root, leaf_capacity, internal_fanout)
            self._in_txn = False
            raise
        self._write_header()
        self.pager.commit()
        self._in_txn = False

    def put(self, key: Any, value: Any) -> None:
        if not self._in_txn:
            with self.transaction():
                self.tree.put(key, value)
            return
        self.tree.put(key, value)

    def delete(self, key: Any) -> bool:
        if not self._in_txn:
            with self.transaction():
                return self.tree.delete(key)
        return self.tree.delete(key)

    def get(self, key: Any) -> Optional[Any]:
        return self.tree.get(key)

    def items(self):
        return self.tree.items()

    # ---------------------------------------------------------- recovery

    @classmethod
    def open(cls, fs: HostFs, path: str, mode: JournalMode,
             page_count: int = 4096) -> "SqliteLikeDb":
        """Reopen after a crash: the pager runs the journal-mode recovery,
        then the header page tells us the committed tree root."""
        pager = Pager.open(fs, path, mode, page_count)
        return cls(fs, path, mode, page_count, _pager=pager)
