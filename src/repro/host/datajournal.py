"""Full (data=journal) filesystem journaling, with and without SHARE.

Section 6.3 relates SHARE to JFTL: under ext4's ``data=journal`` mode
every data page is written twice — once into the journal, once at its
home location during checkpoint — and JFTL showed the second write can be
replaced by a remap inside the FTL.  SHARE expresses the same
optimisation through a public interface: the journal *is* the staged
copy, and checkpointing becomes a SHARE batch.

``DataJournalingFs`` wraps a :class:`HostFs` with transactional
journaled writes:

* ``CLASSIC`` checkpoint — copy each journaled page to its home block,
* ``SHARE`` checkpoint — remap each home block onto its journal copy.

Checkpoints run when the journal fills (or explicitly), exactly like the
kernel's journal-space-driven checkpointing.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import FileSystemError, ResilienceError
from repro.host.file import File
from repro.host.filesystem import HostFs
from repro.host.resilience import ShareGuard


class CheckpointMode(Enum):
    """How journaled pages reach their home locations."""

    CLASSIC = "classic"
    SHARE = "share"


@dataclass
class JournalStats:
    """Write accounting for the JFTL comparison."""

    transactions: int = 0
    journaled_pages: int = 0
    journal_block_writes: int = 0
    checkpoint_writes: int = 0
    checkpoint_share_pairs: int = 0
    checkpoints: int = 0


class DataJournalingFs:
    """data=journal semantics over a HostFs."""

    def __init__(self, fs: HostFs, mode: CheckpointMode,
                 journal_blocks: int = 256) -> None:
        if journal_blocks < 8:
            raise ValueError(
                f"data journal needs >= 8 blocks: {journal_blocks}")
        self.fs = fs
        self.mode = mode
        self.faults = fs.ssd.faults
        self.resilience = ShareGuard(fs.ssd, engine="datajournal")
        self.journal = fs.create("/.datajournal")
        self.journal.fallocate(journal_blocks)
        self.journal_blocks = journal_blocks
        self._cursor = 0
        # Checkpoint epoch: block 0 holds a ("jepoch", n) marker once the
        # first checkpoint completes.  Commit records are tagged with the
        # epoch they were written in, so post-crash replay can ignore
        # commits from before the last checkpoint — their journal images
        # may already be overwritten.
        self._epoch = 0
        self._txn: Optional[List[Tuple[File, int, Any]]] = None
        # Journal entries awaiting checkpoint: (file, home block) -> the
        # journal block holding the newest copy.
        self._unckpt: Dict[Tuple[int, int], Tuple[File, int, int]] = {}
        self.stats = JournalStats()

    # -------------------------------------------------------------- write

    def begin(self) -> None:
        if self._txn is not None:
            raise FileSystemError("journal transaction already open")
        self._txn = []

    def journaled_write(self, file: File, block: int, data: Any) -> None:
        """Stage one page write into the open transaction."""
        if self._txn is None:
            raise FileSystemError("journaled write outside a transaction")
        self._txn.append((file, block, data))

    def commit(self) -> None:
        """Write the transaction's pages + commit record to the journal
        (the durability point), deferring home-location propagation to
        the next checkpoint."""
        if self._txn is None:
            raise FileSystemError("no journal transaction to commit")
        txn, self._txn = self._txn, None
        if not txn:
            return
        needed = len(txn) + 1  # data blocks + commit record
        if needed > self.journal_blocks - 1:
            raise FileSystemError(
                f"transaction of {len(txn)} pages exceeds the journal")
        if self._cursor + needed > self.journal_blocks:
            self.checkpoint()
        start = self._cursor
        with self.faults.operation(
                "datajournal.commit",
                tuple(self.journal.block_lpns(start, needed))):
            self.faults.checkpoint("datajournal.commit_begin")
            # Journal data blocks hold the RAW page images — that is what
            # makes the SHARE checkpoint possible: remapping a home block
            # onto a journal block must expose the page content itself.
            # The descriptor (which home block each image belongs to)
            # rides in the commit record, as in ext4's descriptor blocks;
            # it also carries the epoch and start cursor so replay can
            # rebuild the un-checkpointed set.
            records: List[Any] = [data for __, __, data in txn]
            records.append(("jcommit", self._epoch, start,
                            tuple((file.path, block)
                                  for file, block, __ in txn)))
            self.journal.pwrite_blocks(start, records)
            self.journal.fsync()
            self.faults.checkpoint("datajournal.commit_durable")
            for offset, (file, block, data) in enumerate(txn):
                self._unckpt[(id(file), block)] = (file, block,
                                                   start + offset)
            self._cursor += needed
            self.stats.transactions += 1
            self.stats.journaled_pages += len(txn)
            self.stats.journal_block_writes += needed

    # ------------------------------------------------------------- reads

    def read(self, file: File, block: int) -> Any:
        """Read through the journal: the newest un-checkpointed copy wins."""
        entry = self._unckpt.get((id(file), block))
        if entry is not None:
            return self.journal.pread_block(entry[2])
        return file.pread_block(block)

    # --------------------------------------------------------- checkpoint

    def checkpoint(self) -> None:
        """Propagate every journaled page to its home location, bump the
        epoch marker, and free the journal space."""
        self.faults.checkpoint("datajournal.ckpt_begin")
        if self._unckpt:
            if self.mode is CheckpointMode.CLASSIC:
                self._checkpoint_classic()
            else:
                self._checkpoint_share()
        self._unckpt.clear()
        # The marker makes the checkpoint durable *as an event*: replay
        # only trusts jcommit records from the marker's epoch, because a
        # later partial commit may overwrite older epochs' journal images.
        self._epoch += 1
        self.journal.pwrite_block(0, ("jepoch", self._epoch))
        self.journal.fsync()
        self._cursor = 1
        self.stats.checkpoints += 1
        self.faults.checkpoint("datajournal.ckpt_end")

    def _checkpoint_classic(self) -> None:
        """ext4's way: read each journal copy, write it home."""
        for file, block, journal_block in self._unckpt.values():
            image = self.journal.pread_block(journal_block)
            file.pwrite_block(block, image)
            self.stats.checkpoint_writes += 1
        self.fs.ssd.flush()

    def _checkpoint_share(self) -> None:
        """The JFTL/SHARE way: remap home blocks onto journal copies.

        A file whose SHARE batch fails past the retry budget is
        checkpointed the CLASSIC way instead (copy journal image home).
        The journal images stay durable until the epoch bump at the end
        of :meth:`checkpoint`, so a crash anywhere inside the fallback
        replays the same commits — nothing is lost either way."""
        by_file: Dict[int, Tuple[File, List[Tuple[int, int, int]]]] = {}
        for file, block, journal_block in self._unckpt.values():
            entry = by_file.setdefault(id(file), (file, []))
            entry[1].append((block, journal_block, 1))
        degraded = False
        for file, ranges in by_file.values():
            try:
                self.resilience.share_file_ranges(file, self.journal, ranges)
            except ResilienceError:
                self.faults.checkpoint("datajournal.share_fallback")
                self.resilience.record_fallback()
                for block, journal_block, __ in ranges:
                    image = self.journal.pread_block(journal_block)
                    file.pwrite_block(block, image)
                    self.stats.checkpoint_writes += 1
                degraded = True
            else:
                self.stats.checkpoint_share_pairs += len(ranges)
        if degraded:
            self.fs.ssd.flush()

    # ----------------------------------------------------------- recovery

    def rescan(self) -> int:
        """Post-crash journal replay: rebuild the un-checkpointed set
        from the persisted journal.

        Scans every mapped journal block, finds the newest ``jepoch``
        marker, and replays (in write order) the ``jcommit`` records of
        that epoch — those are the acknowledged transactions whose pages
        have not yet reached their home locations.  Older epochs are
        ignored: their images may have been overwritten, and checkpoint
        already propagated them.  Returns the number of replayed
        transactions."""
        self._txn = None
        self._unckpt.clear()
        ssd = self.fs.ssd
        epoch = 0
        commits: List[Tuple[int, Tuple[Tuple[str, int], ...]]] = []
        for jblock in range(self.journal_blocks):
            if not ssd.ftl.is_mapped(self.journal.block_lpn(jblock)):
                continue
            record = self.journal.pread_block(jblock)
            if not isinstance(record, tuple) or not record:
                continue
            if record[0] == "jepoch":
                epoch = max(epoch, record[1])
            elif record[0] == "jcommit" and len(record) == 4:
                commits.append((record[2], record))
        replayed = 0
        end = 1 if epoch else 0
        for start, (__, rec_epoch, __start, targets) in sorted(commits):
            if rec_epoch != epoch:
                continue
            for offset, (path, block) in enumerate(targets):
                file = self.fs.open(path)
                self._unckpt[(id(file), block)] = (file, block,
                                                   start + offset)
            end = max(end, start + len(targets) + 1)
            replayed += 1
        self._epoch = epoch
        self._cursor = end
        return replayed
