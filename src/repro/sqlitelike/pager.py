"""The pager: page-granular transactions with three journal modes.

* ``ROLLBACK`` — SQLite's default: before-images of every page a
  transaction touches are written (and fsynced) to a side journal before
  the in-place updates; recovery restores the before-images if the
  journal is still live.  Two-plus writes per page.
* ``WAL`` — after-images are appended to a write-ahead log; a commit
  frame seals them; a checkpoint later copies the newest frames into the
  database file.  Still roughly two writes per page over time.
* ``SHARE`` — the paper's mode: dirty pages are staged into a scratch
  region at the end of the database file, then one SHARE batch remaps the
  home pages onto the staged copies.  One write per page, atomic at the
  device, no journal files at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Any, Dict, List, Optional

from repro.errors import EngineError, PowerFailure, ResilienceError
from repro.host.file import File
from repro.host.filesystem import HostFs
from repro.host.resilience import ShareGuard
from repro.sim.faults import NO_FAULTS, FaultPlan

JOURNAL_SUFFIX = "-journal"
WAL_SUFFIX = "-wal"

_JHDR_LIVE = "jhdr-live"
_JHDR_EMPTY = "jhdr-empty"
_WAL_FRAME = "wal-frame"
_WAL_COMMIT = "wal-commit"

#: Pages of the SHARE mode's scratch region at the end of the file.
SCRATCH_PAGES = 64

#: WAL frames that trigger a checkpoint.
WAL_CHECKPOINT_FRAMES = 256


class JournalMode(Enum):
    """How commits achieve atomicity.

    ``XFTL`` is the Section 6.2 baseline: the device's transactional
    interface stages in-place writes and commits them atomically — no
    journal files and no scratch region, but it requires the X-FTL
    command set instead of the simpler SHARE command.
    """

    ROLLBACK = "rollback"
    WAL = "wal"
    SHARE = "share"
    XFTL = "xftl"


@dataclass
class PagerStats:
    """Commit-path accounting for the mode comparison."""

    commits: int = 0
    pages_committed: int = 0
    journal_page_writes: int = 0
    db_page_writes: int = 0
    wal_frames: int = 0
    checkpoints: int = 0
    share_pairs: int = 0


class Pager:
    """Fixed-size page file with transactional page updates."""

    def __init__(self, fs: HostFs, path: str, mode: JournalMode,
                 page_count: int, faults: FaultPlan = NO_FAULTS,
                 _existing: bool = False) -> None:
        if page_count < 1:
            raise ValueError(f"page_count must be >= 1: {page_count}")
        self.fs = fs
        self.path = path
        self.mode = mode
        self.page_count = page_count
        self.faults = faults
        self.resilience = ShareGuard(fs.ssd, engine="sqlite")
        self.stats = PagerStats()
        self.db_file = fs.open(path) if _existing else fs.create(path)
        total = page_count + (SCRATCH_PAGES if mode is JournalMode.SHARE
                              else 0)
        self.db_file.fallocate(total)
        self._scratch_cursor = 0
        self._txn: Optional[Dict[int, Any]] = None
        self._cache: Dict[int, Any] = {}
        self._wal_index: Dict[int, int] = {}
        self._wal_frame_count = 0
        self.journal_file: Optional[File] = None
        self.wal_file: Optional[File] = None
        if mode is JournalMode.ROLLBACK:
            journal_path = path + JOURNAL_SUFFIX
            self.journal_file = (fs.open(journal_path) if fs.exists(journal_path)
                                 else fs.create(journal_path))
        elif mode is JournalMode.SHARE:
            # A journal only exists if a past commit degraded to rollback
            # mode (SHARE unavailable); it must be reopened so recovery
            # can see a live header from a crashed fallback commit.
            journal_path = path + JOURNAL_SUFFIX
            if fs.exists(journal_path):
                self.journal_file = fs.open(journal_path)
        elif mode is JournalMode.WAL:
            wal_path = path + WAL_SUFFIX
            self.wal_file = (fs.open(wal_path) if fs.exists(wal_path)
                             else fs.create(wal_path))

    # ------------------------------------------------------------- reading

    def _check_pgno(self, pgno: int) -> None:
        if not 0 <= pgno < self.page_count:
            raise EngineError(
                f"page {pgno} outside database of {self.page_count} pages")

    def read_page(self, pgno: int) -> Optional[Any]:
        """Newest committed (or transaction-local) content of a page,
        None if never written."""
        self._check_pgno(pgno)
        if self._txn is not None and pgno in self._txn:
            return self._txn[pgno]
        if pgno in self._cache:
            return self._cache[pgno]
        data = self._read_committed(pgno)
        if data is not None:
            self._cache[pgno] = data
        return data

    def _read_committed(self, pgno: int) -> Optional[Any]:
        wal_block = self._wal_index.get(pgno)
        if wal_block is not None:
            record = self.wal_file.pread_block(wal_block)
            return record[2]
        lpn = self.db_file.block_lpn(pgno)
        if not self.fs.ssd.ftl.is_mapped(lpn):
            return None
        return self.db_file.pread_block(pgno)

    # ------------------------------------------------------- transactions

    def begin(self) -> None:
        if self._txn is not None:
            raise EngineError("transaction already open")
        self._txn = {}

    def write_page(self, pgno: int, data: Any) -> None:
        self._check_pgno(pgno)
        if self._txn is None:
            raise EngineError("write outside a transaction")
        self._txn[pgno] = data

    def rollback_txn(self) -> None:
        """Abort: forget transaction-local changes."""
        self._txn = None

    def commit(self) -> None:
        if self._txn is None:
            raise EngineError("no transaction to commit")
        dirty = self._txn
        if not dirty:
            self._txn = None
            return
        if self.mode is JournalMode.ROLLBACK:
            self._commit_rollback(dirty)
        elif self.mode is JournalMode.WAL:
            self._commit_wal(dirty)
        elif self.mode is JournalMode.XFTL:
            self._commit_xftl(dirty)
        else:
            self._commit_share(dirty)
        self._cache.update(dirty)
        self._txn = None
        self.stats.commits += 1
        self.stats.pages_committed += len(dirty)

    # ------------------------------------------------------ rollback mode

    def _commit_rollback(self, dirty: Dict[int, Any]) -> None:
        journal = self.journal_file
        before = [(pgno, self._read_committed(pgno)) for pgno in sorted(dirty)]
        images = [("jimg", pgno, image) for pgno, image in before]
        journal.fallocate(1 + len(images))
        # Images first, live header last: the header is the journal's
        # commit point.  Were it written first, a crash between header
        # and images would leave a live header over a previous commit's
        # stale before-images — and recovery would roll back acknowledged
        # data.
        journal.pwrite_blocks(1, images)
        journal.fsync()
        journal.pwrite_block(0, (_JHDR_LIVE, len(images)))
        journal.fsync()
        self.stats.journal_page_writes += len(images) + 1
        self.faults.checkpoint("sqlite.after_journal")
        for pgno in sorted(dirty):
            self._in_place_write(pgno, dirty[pgno])
        self.db_file.fsync()
        self.faults.checkpoint("sqlite.after_db_write")
        journal.pwrite_block(0, (_JHDR_EMPTY, 0))
        journal.fsync()
        self.stats.journal_page_writes += 1

    def _in_place_write(self, pgno: int, data: Any) -> None:
        """Home-location write with the torn-write window."""
        try:
            self.faults.checkpoint("sqlite.torn_window")
        except PowerFailure:
            from repro.innodb.page import Page, torn_copy
            self.db_file.pwrite_block(
                pgno, torn_copy(Page(pgno, 0, data)))
            raise
        self.db_file.pwrite_block(pgno, data)
        self.stats.db_page_writes += 1

    # ----------------------------------------------------------- WAL mode

    def _commit_wal(self, dirty: Dict[int, Any]) -> None:
        wal = self.wal_file
        start = wal.block_count
        frames = [(_WAL_FRAME, pgno, dirty[pgno]) for pgno in sorted(dirty)]
        frames.append((_WAL_COMMIT, len(frames), None))
        wal.fallocate(start + len(frames))
        wal.pwrite_blocks(start, frames)
        wal.fsync()
        self.faults.checkpoint("sqlite.after_wal_commit")
        for offset, pgno in enumerate(sorted(dirty)):
            self._wal_index[pgno] = start + offset
        self._wal_frame_count += len(frames)
        self.stats.wal_frames += len(frames)
        if self._wal_frame_count >= WAL_CHECKPOINT_FRAMES:
            self.checkpoint_wal()

    def checkpoint_wal(self) -> None:
        """Copy the newest WAL frames into the database file and reset the
        log (SQLite's checkpoint)."""
        if self.mode is not JournalMode.WAL or not self._wal_index:
            self._wal_frame_count = 0
            return
        for pgno, wal_block in sorted(self._wal_index.items()):
            record = self.wal_file.pread_block(wal_block)
            self.db_file.pwrite_block(pgno, record[2])
            self.stats.db_page_writes += 1
        self.db_file.fsync()
        self.faults.checkpoint("sqlite.after_wal_checkpoint")
        self.wal_file.truncate_blocks(0)
        self.wal_file.fsync()
        self._wal_index.clear()
        self._wal_frame_count = 0
        self.stats.checkpoints += 1

    # ---------------------------------------------------------- XFTL mode

    def _commit_xftl(self, dirty: Dict[int, Any]) -> None:
        """The transactional-FTL way: stage in-place writes under a
        device transaction, commit atomically inside the firmware."""
        ssd = self.fs.ssd
        txn_id = ssd.begin_txn()
        for pgno in sorted(dirty):
            self.faults.checkpoint("sqlite.xftl_write")
            ssd.write_txn(txn_id, self.db_file.block_lpn(pgno), dirty[pgno])
            self.stats.db_page_writes += 1
        self.faults.checkpoint("sqlite.xftl_commit")
        ssd.commit_txn(txn_id)

    # --------------------------------------------------------- SHARE mode

    def _commit_share(self, dirty: Dict[int, Any]) -> None:
        """Stage into the scratch tail, fsync, publish with SHARE."""
        pgnos = sorted(dirty)
        if len(pgnos) > SCRATCH_PAGES:
            raise EngineError(
                f"transaction of {len(pgnos)} pages exceeds the scratch "
                f"region of {SCRATCH_PAGES}")
        if self._scratch_cursor + len(pgnos) > SCRATCH_PAGES:
            self._scratch_cursor = 0
        scratch_base = self.page_count + self._scratch_cursor
        self.db_file.pwrite_blocks(scratch_base,
                                   [dirty[pgno] for pgno in pgnos])
        self.db_file.fsync()
        self.stats.db_page_writes += len(pgnos)
        self.faults.checkpoint("sqlite.after_share_stage")
        ranges = [(pgno, scratch_base + index, 1)
                  for index, pgno in enumerate(pgnos)]
        try:
            self.resilience.share_file_ranges(self.db_file, self.db_file,
                                              ranges)
        except ResilienceError:
            # SHARE unavailable: finish this commit in rollback-journal
            # mode.  The journal file is created on first use and kept;
            # opening the pager in SHARE mode replays a live journal, so
            # a crash mid-fallback recovers exactly like ROLLBACK mode.
            # The staged scratch copies are stranded either way.
            self.faults.checkpoint("sqlite.share_fallback")
            self.resilience.record_fallback()
            self._ensure_journal()
            self._commit_rollback(dirty)
            self._scratch_cursor += len(pgnos)
            return
        self.stats.share_pairs += len(pgnos)
        self._scratch_cursor += len(pgnos)

    def _ensure_journal(self) -> None:
        if self.journal_file is None:
            journal_path = self.path + JOURNAL_SUFFIX
            self.journal_file = (self.fs.open(journal_path)
                                 if self.fs.exists(journal_path)
                                 else self.fs.create(journal_path))

    # ------------------------------------------------------------ recovery

    @classmethod
    def open(cls, fs: HostFs, path: str, mode: JournalMode,
             page_count: int) -> "Pager":
        """Reopen after a crash, running the mode's recovery protocol."""
        pager = cls(fs, path, mode, page_count, _existing=fs.exists(path))
        if mode is JournalMode.ROLLBACK:
            pager._recover_rollback()
        elif mode is JournalMode.WAL:
            pager._recover_wal()
        elif mode is JournalMode.SHARE:
            # SHARE itself needs no host-side recovery (the device's
            # atomic mapping commit was the commit point), but a commit
            # that degraded to the rollback journal might have died
            # mid-write — replay its journal like ROLLBACK mode would.
            pager._recover_rollback()
        # XFTL needs no host-side recovery at all.
        return pager

    def _recover_rollback(self) -> None:
        journal = self.journal_file
        if journal is None or journal.block_count == 0:
            return
        lpn = journal.block_lpn(0)
        if not self.fs.ssd.ftl.is_mapped(lpn):
            return
        header = journal.pread_block(0)
        if not (isinstance(header, tuple) and header[0] == _JHDR_LIVE):
            return
        count = header[1]
        # A live header is only published after its images are durable,
        # so every image block must be mapped; an unmapped one means the
        # journal predates that protocol (or the media lost pages) and
        # must not be replayed.
        if any(not self.fs.ssd.ftl.is_mapped(journal.block_lpn(block))
               for block in range(1, 1 + count)):
            return
        restored = 0
        for block in range(1, 1 + count):
            record = journal.pread_block(block)
            __, pgno, image = record
            if image is None:
                continue  # page had never been written; leave it
            self.db_file.pwrite_block(pgno, image)
            restored += 1
        self.db_file.fsync()
        journal.pwrite_block(0, (_JHDR_EMPTY, 0))
        journal.fsync()

    def _recover_wal(self) -> None:
        wal = self.wal_file
        pending: List = []
        for block in range(wal.block_count):
            lpn = wal.block_lpn(block)
            if not self.fs.ssd.ftl.is_mapped(lpn):
                break
            record = wal.pread_block(block)
            if record[0] == _WAL_FRAME:
                pending.append((block, record[1]))
            elif record[0] == _WAL_COMMIT:
                for frame_block, pgno in pending:
                    self._wal_index[pgno] = frame_block
                self._wal_frame_count += len(pending) + 1
                pending = []
        # Frames after the last commit record are uncommitted: ignored.
