"""InnoDB crash recovery.

The paper's recoverability argument (Section 2, Section 4.3): after a
crash, the engine must find a consistent copy of every page.  Recovery
here does what InnoDB does, scaled to the reproduction:

1. **Doublewrite scan** — every page image in the doublewrite area is
   checked against its home location; a torn home page is repaired from
   the intact staged copy.  In SHARE mode this step is a no-op by
   construction: the home LPN *is* the staged copy (the device remapped
   it atomically), so no torn home page can exist.
2. **Redo replay** — the durable log records are re-applied logically
   over freshly rebuilt trees.  The reproduction's log is never
   truncated, so a full replay reconstructs every committed transaction;
   this sidesteps checkpoint-LSN bookkeeping without weakening the
   property under test (committed == recovered).

``recover`` returns a fresh engine plus a report of what was repaired.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import TornPageError
from repro.innodb.engine import FlushMode, InnoDBConfig, InnoDBEngine
from repro.innodb.page import Page
from repro.ssd.device import Ssd


@dataclass
class RecoveryReport:
    """What recovery observed and fixed."""

    torn_pages_found: List[int] = field(default_factory=list)
    pages_repaired_from_dwb: List[int] = field(default_factory=list)
    records_replayed: int = 0


def recover(mode: FlushMode, data_ssd: Ssd, log_ssd: Ssd,
            config: Optional[InnoDBConfig] = None,
            fs_config=None) -> tuple:
    """Restart the engine after a crash.

    ``data_ssd`` and ``log_ssd`` carry the surviving media (after
    ``power_cycle()``).  Returns ``(engine, report)``.  A torn page
    without a doublewrite copy raises :class:`TornPageError` — that is
    precisely the DWB_OFF data-loss scenario.  ``fs_config``
    must match whatever the crashed engine used (journal sizing drives
    the tablespace's deterministic block layout).
    """
    data_ssd.power_cycle()
    log_ssd.power_cycle()
    engine = InnoDBEngine(mode, data_ssd, log_ssd, config,
                          fs_config=fs_config)
    report = RecoveryReport()
    _reextend_tablespace(engine, data_ssd)
    _repair_torn_pages(engine, report)
    _replay_redo(engine, report, log_ssd)
    return engine, report


def _reextend_tablespace(engine: InnoDBEngine, data_ssd: Ssd) -> None:
    """Grow the re-created tablespace back over the pre-crash blocks.

    File block LPNs are allocated deterministically (the tablespace is the
    filesystem's first and only growing file), so probing successive LPNs
    past the fresh file's end recovers the old written length."""
    probe = engine.tablespace.block_lpn(engine.tablespace.block_count - 1) + 1
    grow = 0
    while (probe + grow < data_ssd.logical_pages
           and data_ssd.ftl.is_mapped(probe + grow)):
        grow += 1
    if grow:
        engine.tablespace.fallocate(engine.tablespace.block_count + grow)


def _repair_torn_pages(engine: InnoDBEngine,
                       report: RecoveryReport) -> None:
    """Step 1: the doublewrite scan."""
    dwb_copies: Dict[int, Page] = {}
    for block in engine.dwb.staged_blocks():
        lpn = engine.tablespace.block_lpn(block)
        if not engine.data_ssd.ftl.is_mapped(lpn):
            continue
        image = engine.data_ssd.read(lpn)
        if isinstance(image, Page) and not image.is_torn():
            existing = dwb_copies.get(image.page_id)
            if existing is None or image.lsn >= existing.lsn:
                dwb_copies[image.page_id] = image
    data_start = 1 + engine.config.dwb_pages
    for block in range(data_start, engine.tablespace.block_count):
        lpn = engine.tablespace.block_lpn(block)
        if not engine.data_ssd.ftl.is_mapped(lpn):
            continue
        image = engine.data_ssd.read(lpn)
        if not isinstance(image, Page) or not image.is_torn():
            continue
        report.torn_pages_found.append(block)
        staged = dwb_copies.get(block)
        if staged is not None:
            engine.tablespace.pwrite_block(block, staged)
            report.pages_repaired_from_dwb.append(block)
        else:
            raise TornPageError(
                f"page {block} is torn and no doublewrite copy exists "
                "(this is the DWB-off data-loss scenario)")
    if report.pages_repaired_from_dwb:
        engine.tablespace.fsync()


def _replay_redo(engine: InnoDBEngine, report: RecoveryReport,
                 log_ssd: Ssd) -> None:
    """Step 2: logical redo over rebuilt trees."""
    records = engine.redo.replay_records()
    for __, record in records:
        op = record[0]
        if op == "put":
            __, table, key, row = record
            if table not in engine.tables:
                engine.create_table(table)
            engine.table(table).put(key, row)
        elif op == "delete":
            __, table, key = record
            if table not in engine.tables:
                engine.create_table(table)
            engine.table(table).delete(key)
        else:
            continue
        report.records_replayed += 1
    # Recovery must not re-log the replayed work: the records are already
    # durable.  Move the in-memory LSN past the replayed tail and the log
    # cursor past the durable log pages so new commits append, not clobber.
    engine.redo.next_lsn = (records[-1][0] + 1) if records else 1
    cursor = 0
    while (cursor < log_ssd.logical_pages
           and log_ssd.ftl.is_mapped(cursor)):
        cursor += 1
    engine.redo._cursor_lpn = cursor % log_ssd.logical_pages
