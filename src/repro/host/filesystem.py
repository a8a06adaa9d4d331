"""Extent-based host filesystem over an :class:`repro.ssd.device.Ssd`.

Models the parts of the paper's ext4 (ordered mode, O_DIRECT) setup that
matter to the experiments:

* files are lists of device LPNs; data writes go straight to the device
  (O_DIRECT — no page cache is modelled),
* ``fallocate`` reserves LPNs without writing them (the SHARE-based
  Couchbase compaction of Figure 3 depends on this),
* metadata is journaled in *ordered* mode: an fsync that observes metadata
  changes (file growth, create, unlink) writes a descriptor+commit pair to
  a dedicated journal area before the fsync returns — this is the extra
  traffic that keeps Figure 6(a)'s reduction below 50 %,
* ``unlink`` TRIMs the file's extents, which is how the old Couchbase file
  releases its shared pages after compaction.

The directory table itself is kept in host memory: the experiments never
crash the filesystem structure, only the device and the database engines
(whose durability lives in device pages, not in the directory).
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Dict, List, Optional

from repro.errors import FileExists, FileNotFound, NoSpace
from repro.host.file import File
from repro.obs import COUNTER
from repro.ssd.device import Ssd


#: The descriptor + commit blocks of one ordered-mode journal transaction.
METADATA_PAGES_PER_COMMIT = 2


@dataclass(frozen=True)
class FsConfig:
    """Filesystem assembly options.

    ``journal_blocks`` LPNs are reserved for the metadata journal.
    """

    journal_blocks: int = 256

    def __post_init__(self) -> None:
        if self.journal_blocks < METADATA_PAGES_PER_COMMIT:
            raise ValueError("journal area smaller than one commit")


#: ``host.*`` telemetry rows, read off the filesystem's own counters.
HOST_ROWS = (
    ("metadata_commits", COUNTER, attrgetter("metadata_commits")),
    ("fsync_calls", COUNTER, attrgetter("fsync_calls")),
    ("ioctl.share_commands", COUNTER, attrgetter("share_ioctl_commands")),
)


class HostFs:
    """A minimal but honest filesystem facade.

    Block size equals the device page size; all file I/O is in whole
    blocks, matching the databases' O_DIRECT page I/O.
    """

    def __init__(self, ssd: Ssd, config: Optional[FsConfig] = None) -> None:
        self.ssd = ssd
        self.config = config or FsConfig()
        if self.config.journal_blocks >= ssd.logical_pages // 4:
            raise ValueError("journal area would consume too much of the device")
        self.telemetry = ssd.telemetry
        self.telemetry.collect("host", HOST_ROWS, self)
        self.block_size = ssd.page_size
        self._journal_base = 0
        self._journal_cursor = 0
        self._files: Dict[str, File] = {}
        # Free-space map: a compact cursor+recycled-pool allocator over the
        # LPNs after the journal area.
        self._alloc_cursor = self.config.journal_blocks
        self._recycled: List[int] = []
        self.metadata_commits = 0
        self.fsync_calls = 0
        #: SHARE commands the share ioctl issued for this filesystem's files.
        self.share_ioctl_commands = 0

    # ------------------------------------------------------------ files

    def create(self, path: str) -> File:
        """Create an empty file.  Metadata-dirties the filesystem."""
        if path in self._files:
            raise FileExists(f"file exists: {path}")
        handle = File(self, path)
        self._files[path] = handle
        handle._metadata_dirty = True
        return handle

    def open(self, path: str) -> File:
        handle = self._files.get(path)
        if handle is None:
            raise FileNotFound(f"no such file: {path}")
        return handle

    def exists(self, path: str) -> bool:
        return path in self._files

    def unlink(self, path: str) -> None:
        """Delete a file: TRIM its extents on the device and return the
        LPNs to the free pool."""
        handle = self._files.pop(path, None)
        if handle is None:
            raise FileNotFound(f"no such file: {path}")
        self._release_file(handle, path)

    def _release_file(self, handle: "File", path: str) -> None:
        """TRIM a dropped file's extents and recycle its LPNs."""
        with self.telemetry.tracer.span("host.unlink", path=path,
                                        blocks=len(handle._blocks)):
            for start, count in _runs(handle._blocks):
                self.ssd.trim(start, count)
            self.release_blocks(handle._blocks)
            handle._blocks = []
            handle.block_count = 0
            handle._unlinked = True
            self._commit_metadata()

    def reflink_copy(self, src_path: str, dst_path: str) -> int:
        """Copy a file without copying data (Section 1's "file copy
        operations that can occur almost without copying data").

        Allocates fresh LPNs for the destination and SHAREs every written
        source block onto them; holes (fallocated-but-unwritten blocks)
        stay holes.  Returns the number of SHARE commands issued.
        """
        src = self.open(src_path)
        dst = self.create(dst_path)
        if src.block_count == 0:
            self._commit_metadata()
            return 0
        dst.fallocate(src.block_count)
        from repro.host.ioctl import share_file_ranges
        ranges = []
        run_start = None
        for index in range(src.block_count + 1):
            written = (index < src.block_count
                       and self.ssd.ftl.is_mapped(src.block_lpn(index)))
            if written and run_start is None:
                run_start = index
            elif not written and run_start is not None:
                ranges.append((run_start, run_start, index - run_start))
                run_start = None
        commands = share_file_ranges(dst, src, ranges) if ranges else 0
        self._commit_metadata()
        return commands

    def rename(self, old_path: str, new_path: str) -> None:
        """Atomic rename; replaces ``new_path`` if it exists (the couch
        compaction switch-over).

        The directory entry swaps before the replaced file's extents are
        TRIMmed: the swap itself touches no device state, so a power
        failure leaves either the old name or the new one — never
        neither.  Releasing the replaced extents afterwards mirrors a
        real filesystem's orphaned-inode cleanup; a crash mid-release
        at worst delays the TRIMs, it cannot lose the rename."""
        handle = self._files.get(old_path)
        if handle is None:
            raise FileNotFound(f"no such file: {old_path}")
        if new_path == old_path:
            return
        replaced = self._files.pop(new_path, None)
        del self._files[old_path]
        handle.path = new_path
        self._files[new_path] = handle
        self._commit_metadata()
        if replaced is not None:
            self._release_file(replaced, new_path)

    # -------------------------------------------------------- allocation

    def allocate_blocks(self, count: int) -> List[int]:
        """Hand out ``count`` LPNs (fallocate machinery).  Prefers fresh
        contiguous space, falls back to recycled LPNs."""
        if count < 1:
            raise ValueError(f"count must be >= 1: {count}")
        fresh_available = self.ssd.logical_pages - self._alloc_cursor
        out: List[int] = []
        if fresh_available >= count:
            out = list(range(self._alloc_cursor, self._alloc_cursor + count))
            self._alloc_cursor += count
            return out
        out = list(range(self._alloc_cursor,
                         self._alloc_cursor + fresh_available))
        self._alloc_cursor += fresh_available
        needed = count - len(out)
        if len(self._recycled) < needed:
            raise NoSpace(
                f"filesystem full: need {needed} more blocks, "
                f"{len(self._recycled)} recycled available")
        out.extend(self._recycled[:needed])
        del self._recycled[:needed]
        return out

    def release_blocks(self, lpns: List[int]) -> None:
        """Return LPNs to the free pool (truncate/unlink path)."""
        self._recycled.extend(lpns)

    @property
    def free_blocks(self) -> int:
        return (self.ssd.logical_pages - self._alloc_cursor
                + len(self._recycled))

    # ---------------------------------------------------------- metadata

    def _commit_metadata(self) -> None:
        """Write one ordered-mode journal transaction (descriptor +
        commit) to the journal area."""
        with self.telemetry.tracer.span("host.journal_commit"):
            for _ in range(METADATA_PAGES_PER_COMMIT):
                lpn = self._journal_base + self._journal_cursor
                self._journal_cursor = (self._journal_cursor + 1) % self.config.journal_blocks
                self.ssd.write(lpn, ("fsmeta", self.metadata_commits))
            self.ssd.flush()
        self.metadata_commits += 1

    def fsync_file(self, handle: File) -> None:
        """Durability point for one file: device flush plus a metadata
        journal commit when the file's metadata changed."""
        with self.telemetry.tracer.span(
                "host.fsync", path=handle.path,
                metadata=handle._metadata_dirty):
            self.ssd.flush()
            if handle._metadata_dirty:
                self._commit_metadata()
                handle._metadata_dirty = False
        self.fsync_calls += 1


def _runs(blocks: List[int]) -> List[tuple]:
    """Compress an LPN list into (start, count) runs for ranged TRIM."""
    if not blocks:
        return []
    ordered = sorted(blocks)
    runs = []
    start = prev = ordered[0]
    for lpn in ordered[1:]:
        if lpn == prev + 1:
            prev = lpn
            continue
        runs.append((start, prev - start + 1))
        start = prev = lpn
    runs.append((start, prev - start + 1))
    return runs
