"""Heap-table engine with WAL and the full_page_writes switch.

The pgbench experiment's performance lives entirely in the commit path:
every transaction updates a handful of heap rows, logs WAL, and fsyncs.
With ``full_page_writes`` on, the *first* touch of each heap page after a
checkpoint adds a full page image to the WAL; with it off, only the small
logical records are written — and the paper observes throughput roughly
doubling.  (With a SHARE-capable device, PostgreSQL could turn the option
off safely; the experiment quantifies the headroom.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Set

from repro.errors import EngineError
from repro.postgres.wal import Wal
from repro.ssd.device import Ssd


@dataclass(frozen=True)
class PostgresConfig:
    """Engine tunables.

    ``checkpoint_interval_commits`` stands in for checkpoint_timeout /
    max_wal_size: how many commits pass between checkpoints, which resets
    the first-touch set and forces dirty heap pages to the data device.
    """

    full_page_writes: bool = True
    rows_per_page: int = 32
    checkpoint_interval_commits: int = 2000

    def __post_init__(self) -> None:
        if self.rows_per_page < 1:
            raise ValueError(f"rows_per_page must be >= 1: {self.rows_per_page}")
        if self.checkpoint_interval_commits < 1:
            raise ValueError("checkpoint_interval_commits must be >= 1")


class PostgresEngine:
    """Minimal heap + WAL engine."""

    def __init__(self, data_ssd: Ssd, wal_ssd: Ssd,
                 config: Optional[PostgresConfig] = None) -> None:
        self.config = config or PostgresConfig()
        self.data_ssd = data_ssd
        self.faults = data_ssd.faults
        self.wal = Wal(wal_ssd, data_page_bytes=data_ssd.page_size)
        self._tables: Dict[str, int] = {}          # name -> first page id
        self._table_pages: Dict[str, int] = {}     # name -> page count
        self._next_page = 0
        self._buffer: Dict[int, Dict[int, Any]] = {}   # page id -> rows
        self._dirty: Set[int] = set()
        self._fpw_logged: Set[int] = set()
        self.commits = 0
        self.checkpoints = 0

    # -------------------------------------------------------------- schema

    def create_table(self, name: str, rows: int) -> None:
        """Create a heap table sized for ``rows`` rows, zero-filled."""
        if name in self._tables:
            raise EngineError(f"table exists: {name}")
        pages = -(-rows // self.config.rows_per_page)
        self._tables[name] = self._next_page
        self._table_pages[name] = pages
        for page_id in range(self._next_page, self._next_page + pages):
            self.data_ssd.write(page_id, ("heap", page_id, ()))
        self._next_page += pages

    def _page_of(self, table: str, row_id: int) -> int:
        first = self._tables.get(table)
        if first is None:
            raise EngineError(f"no such table: {table}")
        page_index = row_id // self.config.rows_per_page
        if page_index >= self._table_pages[table]:
            raise EngineError(
                f"row {row_id} beyond table {table!r} of "
                f"{self._table_pages[table]} pages")
        return first + page_index

    # ------------------------------------------------------------ row I/O

    def _load_page(self, page_id: int) -> Dict[int, Any]:
        rows = self._buffer.get(page_id)
        if rows is None:
            image = self.data_ssd.read(page_id)
            rows = dict(image[2])
            self._buffer[page_id] = rows
        return rows

    def read_row(self, table: str, row_id: int) -> Any:
        page_id = self._page_of(table, row_id)
        return self._load_page(page_id).get(row_id)

    def update_row(self, table: str, row_id: int, value: Any) -> None:
        """WAL-before-data update of one row."""
        page_id = self._page_of(table, row_id)
        rows = self._load_page(page_id)
        if self.config.full_page_writes and page_id not in self._fpw_logged:
            self.wal.log_full_page_image(page_id, ("before", tuple(rows.items())))
            self._fpw_logged.add(page_id)
        self.wal.log_record(("update", table, row_id, value))
        rows[row_id] = value
        self._dirty.add(page_id)

    def insert_row(self, table: str, row_id: int, value: Any) -> None:
        """Append-style insert (pgbench's history table)."""
        self.update_row(table, row_id, value)

    # -------------------------------------------------------------- commit

    def commit(self) -> None:
        """fsync the WAL; checkpoint on schedule."""
        self.wal.commit()
        self.faults.checkpoint("postgres.wal_commit")
        self.commits += 1
        if self.commits % self.config.checkpoint_interval_commits == 0:
            self.checkpoint()

    def checkpoint(self) -> None:
        """Flush dirty heap pages to the data device and reset the
        first-touch (full-page-image) tracking."""
        self.faults.checkpoint("postgres.ckpt_begin")
        for page_id in sorted(self._dirty):
            rows = self._buffer[page_id]
            self.data_ssd.write(page_id,
                                ("heap", page_id, tuple(rows.items())))
        self.data_ssd.flush()
        self.wal.log_checkpoint_marker()
        self._dirty.clear()
        self._fpw_logged.clear()
        self.checkpoints += 1
        self.faults.checkpoint("postgres.ckpt_end")

    # --------------------------------------------------------------- stats

    @property
    def wal_stats(self):
        return self.wal.stats


def recover_row_state(data_ssd: Ssd, wal_ssd: Ssd,
                      tables: Dict[str, tuple]) -> Dict[str, Dict[int, Any]]:
    """Rebuild committed row state after a crash: read the surviving heap
    pages, then replay WAL commits past the last checkpoint marker.

    ``tables`` maps table name to ``(first_page, page_count)`` — the
    catalog lives with the workload harness, not on the device.  Full
    page images are ignored (they protect torn heap pages, which the
    simulated device never produces); ``update`` records carry the new
    value and are idempotent, so replay order only has to be by commit
    sequence, which :meth:`Wal.replay_scan` guarantees."""
    state: Dict[str, Dict[int, Any]] = {name: {} for name in tables}
    for name, (first, count) in tables.items():
        for page_id in range(first, first + count):
            if not data_ssd.ftl.is_mapped(page_id):
                continue
            record = data_ssd.ftl.read(page_id)
            if isinstance(record, tuple) and record and record[0] == "heap":
                state[name].update(dict(record[2]))
    for payload in Wal.replay_scan(wal_ssd):
        for entry in payload:
            if entry[0] != "rec":
                continue
            record = entry[1]
            if record[0] == "update" and record[1] in state:
                __, table, row_id, value = record
                state[table][row_id] = value
    return state
