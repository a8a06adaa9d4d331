"""Doublewrite buffer and the three flush pipelines.

This module is the exact point where the paper intervenes in InnoDB
(Section 4.3, "less than 200 lines ... in buffer and file"): a batch of
dirty pages leaves the buffer pool and must reach its home locations in
the tablespace atomically per page.

* ``flush_dwb_on``  — stage the batch in the doublewrite area, fsync, then
  write every page at its home location, fsync.  Two page writes per page.
* ``flush_dwb_off`` — write home locations directly.  One write per page,
  but a crash mid-write can leave a torn home page with no intact copy.
* ``flush_share``   — stage the batch in the doublewrite area, fsync, then
  issue one SHARE batch remapping each home LPN onto its staged copy.  One
  page write per page plus a mapping-only command.
"""

from __future__ import annotations

from operator import attrgetter
from typing import List

from repro.errors import EngineError, PowerFailure, ResilienceError
from repro.host.file import File
from repro.host.resilience import ShareGuard
from repro.innodb.page import Page, torn_copy
from repro.obs import COUNTER
from repro.sim.faults import NO_FAULTS, FaultPlan


#: ``innodb.dwb.*`` telemetry rows, read off the buffer's own counters.
DWB_ROWS = tuple((name, COUNTER, attrgetter(name)) for name in (
    "batches_staged", "pages_staged", "home_page_writes", "share_batches"))


class DoublewriteBuffer:
    """The doublewrite area: a contiguous region of the tablespace file.

    InnoDB's real DWB is 128 pages (two 64-page chunks) inside the system
    tablespace; here it is a dedicated block range of the same file,
    written round-robin in batch-sized strides.
    """

    def __init__(self, tablespace: File, first_block: int,
                 size_pages: int = 128,
                 faults: FaultPlan = NO_FAULTS) -> None:
        if size_pages < 1:
            raise ValueError(f"doublewrite area needs >= 1 page: {size_pages}")
        self.tablespace = tablespace
        self.first_block = first_block
        self.size_pages = size_pages
        self.faults = faults
        self.resilience = ShareGuard(tablespace.fs.ssd, engine="innodb")
        self._cursor = 0
        self.batches_staged = 0
        self.pages_staged = 0
        self.home_page_writes = 0
        self.share_batches = 0
        self.telemetry = tablespace.fs.telemetry
        self.telemetry.collect("innodb.dwb", DWB_ROWS, self)

    def _stage(self, pages: List[Page]) -> List[int]:
        """Write the batch into the doublewrite area and fsync; returns
        the file block indices of the staged copies."""
        if len(pages) > self.size_pages:
            raise EngineError(
                f"flush batch of {len(pages)} exceeds the doublewrite area "
                f"of {self.size_pages} pages")
        if self._cursor + len(pages) > self.size_pages:
            self._cursor = 0
        start = self.first_block + self._cursor
        with self.telemetry.tracer.span("innodb.dwb.stage",
                                        pages=len(pages)):
            self.faults.checkpoint("innodb.dwb_stage")
            self.tablespace.pwrite_blocks(start, pages)
            self.tablespace.fsync()
        blocks = list(range(start, start + len(pages)))
        self._cursor += len(pages)
        self.batches_staged += 1
        self.pages_staged += len(pages)
        return blocks

    def staged_blocks(self) -> List[int]:
        """Every block of the doublewrite area (recovery scans them all)."""
        return list(range(self.first_block, self.first_block + self.size_pages))

    # ------------------------------------------------------------ pipelines

    def flush_dwb_on(self, pages: List[Page]) -> None:
        """Default InnoDB: journal to DWB, then write in place."""
        self._stage(pages)
        for page in pages:
            self.faults.checkpoint("innodb.home_write")
            self._home_write_with_torn_window(page)
        self.tablespace.fsync()

    def flush_dwb_off(self, pages: List[Page]) -> None:
        """Doublewrite disabled: home writes only (torn-page unsafe)."""
        for page in pages:
            self.faults.checkpoint("innodb.home_write")
            self._home_write_with_torn_window(page)
        self.tablespace.fsync()

    def flush_share(self, pages: List[Page]) -> None:
        """SHARE mode: journal to DWB, then remap home LPNs onto the
        staged copies — the second write never happens (Section 4.3).

        When the SHARE command fails past the resilience layer's retry
        budget (or the breaker is open), the batch degrades to the
        classic second home-write.  That is crash-safe with no extra
        machinery: the staged copies are already durable in the
        doublewrite area, and recovery always scans it, so a home write
        torn by a crash mid-fallback is repaired from its staged copy."""
        staged = self._stage(pages)
        ranges = [(page.page_id, staged_block, 1)
                  for page, staged_block in zip(pages, staged)]
        self.faults.checkpoint("innodb.share_remap")
        try:
            self.resilience.share_file_ranges(self.tablespace,
                                              self.tablespace, ranges)
        except ResilienceError:
            self.faults.checkpoint("innodb.share_fallback")
            self.resilience.record_fallback()
            for page in pages:
                self.faults.checkpoint("innodb.home_write")
                self._home_write_with_torn_window(page)
            self.tablespace.fsync()
            return
        self.share_batches += 1

    # ------------------------------------------------------------ internals

    def _home_write_with_torn_window(self, page: Page) -> None:
        """Write a page at its home location, honouring an armed torn-write
        fault: power dies mid-write, leaving a checksum-corrupt image."""
        try:
            self.faults.checkpoint("innodb.torn_window")
        except PowerFailure:
            self.tablespace.pwrite_block(page.page_id, torn_copy(page))
            raise
        self.tablespace.pwrite_block(page.page_id, page)
        self.home_page_writes += 1
