"""The InnoDB-like engine: tables, transactions, flush modes.

Layout of the system tablespace file (block indices = page ids):

* block 0 — catalog page (table name -> root page id, next allocation),
* blocks 1 .. dwb_pages — the doublewrite area,
* everything after — table pages, allocated by a bump allocator.

The engine drives exactly the pipeline the paper measures: transactions
append redo records to a log on a *separate* device and group-commit;
dirty pages leave the LRU buffer pool in batches through the
mode-specific doublewrite pipeline; adaptive flushing keeps the dirty
fraction bounded so flushing happens continuously in steady state rather
than in checkpoint bursts.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from operator import attrgetter
from typing import Any, List, Optional

from repro.errors import EngineError
from repro.host.filesystem import FsConfig, HostFs
from repro.innodb.btree import BTree
from repro.innodb.buffer_pool import BufferPool
from repro.innodb.doublewrite import DoublewriteBuffer
from repro.innodb.page import Page
from repro.innodb.redo import RedoLog
from repro.obs import COUNTER
from repro.sim.faults import NO_FAULTS, FaultPlan
from repro.ssd.device import Ssd

CATALOG_PAGE_ID = 0


class FlushMode(Enum):
    """The three configurations of Section 5.3.1, plus the related-work
    atomic-write FTL baseline (Section 6.1) for comparison."""

    DWB_ON = "dwb_on"
    DWB_OFF = "dwb_off"
    SHARE = "share"
    ATOMIC_WRITE = "atomic_write"


@dataclass(frozen=True)
class InnoDBConfig:
    """Engine tunables.

    ``buffer_pool_pages`` plays the role of the paper's 50–150 MB buffer
    pool (divide by the page size to compare).  ``dirty_flush_threshold``
    triggers adaptive flushing: when the dirty fraction of the pool
    exceeds it, each commit flushes one batch.
    """

    buffer_pool_pages: int = 1024
    flush_batch_pages: int = 64
    dwb_pages: int = 128
    leaf_capacity: int = 32
    internal_fanout: int = 64
    dirty_flush_threshold: float = 0.5
    file_grow_chunk: int = 1024

    def __post_init__(self) -> None:
        if self.flush_batch_pages > self.dwb_pages:
            raise ValueError("flush batch cannot exceed the doublewrite area")
        if not 0.0 < self.dirty_flush_threshold <= 1.0:
            raise ValueError(
                f"dirty_flush_threshold must be in (0, 1]: "
                f"{self.dirty_flush_threshold}")


class _Tables(dict):
    """The table catalog; indexing an unknown name raises the engine's
    error, so the per-operation lookup is a plain subscript."""

    def __missing__(self, name: str) -> BTree:
        raise EngineError(f"no such table: {name}")


#: ``innodb.*`` telemetry rows, read off the engine's own counters.
ENGINE_ROWS = (
    ("transactions", COUNTER, attrgetter("transactions")),
    ("flush_batches", COUNTER, attrgetter("flush_batches")),
)


class InnoDBEngine:
    """MySQL/InnoDB stand-in with pluggable page-flush mode."""

    def __init__(self, mode: FlushMode, data_ssd: Ssd, log_ssd: Ssd,
                 config: Optional[InnoDBConfig] = None,
                 faults: FaultPlan = NO_FAULTS,
                 fs_config: Optional[FsConfig] = None) -> None:
        self.mode = mode
        self.config = config or InnoDBConfig()
        self.faults = faults
        self.data_ssd = data_ssd
        self.log_ssd = log_ssd
        self.telemetry = data_ssd.telemetry
        self._tracer = self.telemetry.tracer
        self.telemetry.collect("innodb", ENGINE_ROWS, self)
        self._m_flush_pages = self.telemetry.histogram(
            "innodb.flush_batch_pages")
        self.fs = HostFs(data_ssd, fs_config or FsConfig())
        self.tablespace = self.fs.create("/ibdata")
        self.tablespace.fallocate(1 + self.config.dwb_pages
                                  + self.config.file_grow_chunk)
        self.dwb = DoublewriteBuffer(self.tablespace, first_block=1,
                                     size_pages=self.config.dwb_pages,
                                     faults=faults)
        self.redo = RedoLog(log_ssd)
        self.pool = BufferPool(
            capacity_pages=self.config.buffer_pool_pages,
            read_page=self.tablespace.pread_block,
            flush_callback=self._flush_batch,
            flush_batch_pages=self.config.flush_batch_pages)
        self._next_page_id = 1 + self.config.dwb_pages
        # Adaptive-flush trigger in pages, resolved once (the check runs
        # every commit).
        self._flush_trigger = (self.config.buffer_pool_pages
                               * self.config.dirty_flush_threshold)
        self.tables = _Tables()
        self._in_transaction = False
        self.transactions = 0
        self.flush_batches = 0

    def devices(self):
        """Every device this engine issues commands to, for workload
        drivers that run their completions and drain them around
        concurrent operations."""
        return (self.data_ssd, self.log_ssd)

    # ----------------------------------------------------------- page I/O

    def _allocate_page(self) -> int:
        page_id = self._next_page_id
        self._next_page_id += 1
        if page_id >= self.tablespace.block_count:
            self.tablespace.fallocate(
                self.tablespace.block_count + self.config.file_grow_chunk)
        return page_id

    def _flush_batch(self, pages: List[Page]) -> None:
        """Route one dirty batch through the mode's pipeline."""
        with self.telemetry.tracer.span("innodb.flush_batch",
                                        mode=self.mode.value,
                                        pages=len(pages)):
            if self.mode is FlushMode.DWB_ON:
                self.dwb.flush_dwb_on(pages)
            elif self.mode is FlushMode.DWB_OFF:
                self.dwb.flush_dwb_off(pages)
            elif self.mode is FlushMode.ATOMIC_WRITE:
                # Section 6.1 baseline: the device's atomic-write command
                # replaces the doublewrite buffer entirely (Ouyang et al.).
                from repro.host.ioctl import atomic_write_ioctl
                atomic_write_ioctl(self.tablespace,
                                   [(page.page_id, page) for page in pages])
            else:
                self.dwb.flush_share(pages)
        self.flush_batches += 1
        if self.telemetry.enabled:
            self._m_flush_pages.record(len(pages))

    # ------------------------------------------------------------- tables

    def create_table(self, name: str) -> BTree:
        if name in self.tables:
            raise EngineError(f"table exists: {name}")
        tree = BTree(name,
                     fetch=self.pool.fetch,
                     write=self.pool.put,
                     allocate=self._allocate_page,
                     lsn_source=self.redo,
                     leaf_capacity=self.config.leaf_capacity,
                     internal_fanout=self.config.internal_fanout)
        self.tables[name] = tree
        return tree

    def table(self, name: str) -> BTree:
        return self.tables[name]

    # ------------------------------------------------------- transactions

    def transaction(self) -> "Transaction":
        """One transaction, used as ``with engine.transaction() as txn``:
        logical ops are applied to the trees and logged; commit
        group-commits the redo log, then adaptive flushing may push one
        dirty batch.

        An exception inside the block aborts the transaction: the undo
        records collected per operation are applied in reverse (InnoDB's
        rollback), and the buffered redo records are discarded before
        they ever reach the log device.
        """
        return Transaction(self)

    def _commit_transaction(self) -> None:
        """Commit with a fault plan or the tracer recording; the bare
        commit in :meth:`Transaction.__exit__` is this minus the
        checkpoint and the span."""
        with self._tracer.span("innodb.txn_commit"):
            self.redo.commit()
            self.faults.checkpoint("innodb.txn_durable")
            self.transactions += 1
            if self.pool.dirty_count > self._flush_trigger:
                self.pool.flush_some(self.config.flush_batch_pages)

    # ---------------------------------------------------------- lifecycle

    def checkpoint(self) -> None:
        """Flush every dirty page and persist the catalog."""
        with self.telemetry.tracer.span("innodb.checkpoint"):
            self.faults.checkpoint("innodb.ckpt_begin")
            self.pool.flush_all()
            catalog = {name: tree.root_page_id
                       for name, tree in self.tables.items()}
            payload = ("catalog", tuple(sorted(catalog.items())),
                       self._next_page_id)
            self.tablespace.pwrite_block(
                CATALOG_PAGE_ID,
                Page(CATALOG_PAGE_ID, self.redo.next_lsn, payload))
            self.tablespace.fsync()
            self.faults.checkpoint("innodb.ckpt_end")


class Transaction:
    """One transaction scope and the logical operations inside it.

    ``with engine.transaction() as txn`` opens the scope on
    construction and commits (or, on an exception, rolls back) when the
    block exits.  Reads go straight to the trees; writes are applied to
    the trees (the buffer pool holds the dirty pages) *and* appended to
    the redo log so recovery can replay them.  Each write also records
    its logical inverse so an abort can roll the trees back (InnoDB's
    undo).  Durability of the logical operations comes from the log
    commit; the flush pipeline only controls how page images reach their
    home locations.
    """

    __slots__ = ("_engine", "_undo", "_first_lsn")

    def __init__(self, engine: InnoDBEngine) -> None:
        if engine._in_transaction:
            raise EngineError("nested transactions are not supported")
        engine._in_transaction = True
        self._engine = engine
        self._undo: List = []
        self._first_lsn = engine.redo.next_lsn

    def __enter__(self) -> "Transaction":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        engine = self._engine
        if exc_type is not None:
            self._rollback()
            engine._in_transaction = False
            return
        engine._in_transaction = False
        if engine.faults.passive and not engine._tracer.recording:
            engine.redo.commit()
            engine.transactions += 1
            pool = engine.pool
            if pool.dirty_count > engine._flush_trigger:
                pool.flush_some(engine.config.flush_batch_pages)
        else:
            engine._commit_transaction()

    # Reads -----------------------------------------------------------------

    def get(self, table: str, key: Any) -> Optional[Any]:
        return self._engine.tables[table].get(key)

    def range(self, table: str, low: Any, high: Any,
              limit: Optional[int] = None) -> List:
        return self._engine.tables[table].range(low, high, limit)

    # Writes ----------------------------------------------------------------

    def put(self, table: str, key: Any, row: Any) -> bool:
        tree = self._engine.tables[table]
        self._engine.redo.append(("put", table, key, row))
        was_new, old_row = tree.upsert(key, row)
        self._undo.append((table, key, old_row))
        return was_new

    def delete(self, table: str, key: Any) -> bool:
        tree = self._engine.tables[table]
        self._engine.redo.append(("delete", table, key))
        old_row, existed = tree.pop(key)
        self._undo.append((table, key, old_row))
        return existed

    # Abort -----------------------------------------------------------------

    def _rollback(self) -> None:
        """Apply undo records newest-first and drop the un-committed redo
        tail (it never reached the log device): every record appended
        since the scope opened took exactly one LSN."""
        for table, key, old_row in reversed(self._undo):
            tree = self._engine.tables[table]
            if old_row is None:
                tree.delete(key)
            else:
                tree.put(key, old_row)
        self._undo.clear()
        redo = self._engine.redo
        del redo._pending[len(redo._pending)
                          - (redo.next_lsn - self._first_lsn):]
