"""File handle: block-granular I/O over the extent filesystem.

All offsets are in filesystem blocks (= device pages), mirroring the
O_DIRECT page I/O the paper's databases perform.  A file is an ordered list
of device LPNs; ``block_lpn`` / ``block_lpns`` expose the mapping so the
share ioctl can translate file offsets to device addresses.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, List, Sequence

from repro.errors import FileSystemError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.host.filesystem import HostFs


class File:
    """An open file.  Created via :meth:`HostFs.create` / :meth:`HostFs.open`."""

    def __init__(self, fs: "HostFs", path: str) -> None:
        self.fs = fs
        self.path = path
        self._blocks: List[int] = []
        #: Current size in blocks (``len(self._blocks)``, kept as a plain
        #: attribute: engines compare against it on every append).
        self.block_count = 0
        self._metadata_dirty = False
        self._unlinked = False

    # ---------------------------------------------------------- geometry

    def block_lpn(self, index: int) -> int:
        """Device LPN backing file block ``index``."""
        return self.block_lpns(index, 1)[0]

    def block_lpns(self, index: int, count: int) -> List[int]:
        """Device LPNs backing the ``count`` file blocks from ``index``:
        one range check, one slice."""
        if (self._unlinked or index < 0 or count < 0
                or index + count > self.block_count):
            self._check_open()
            bad = index if index < 0 else max(index, self.block_count)
            raise FileSystemError(
                f"block index {bad} outside file of {self.block_count} "
                "blocks")
        return self._blocks[index:index + count]

    def _check_open(self) -> None:
        if self._unlinked:
            raise FileSystemError(f"file {self.path!r} was unlinked")

    # ---------------------------------------------------------------- IO

    def fallocate(self, block_count: int) -> None:
        """Grow the file to at least ``block_count`` blocks without
        writing data — reserves LPNs only (Figure 3, step 1 of SHARE
        compaction)."""
        self._check_open()
        grow = block_count - len(self._blocks)
        if grow <= 0:
            return
        self._blocks.extend(self.fs.allocate_blocks(grow))
        self.block_count += grow
        self._metadata_dirty = True

    def append_block(self, data: Any) -> int:
        """Append one block; returns its file block index."""
        self._check_open()
        index = self.block_count
        self._blocks.extend(self.fs.allocate_blocks(1))
        self.block_count = index + 1
        self.fs.ssd.write(self._blocks[index], data)
        self._metadata_dirty = True
        return index

    def pwrite_block(self, index: int, data: Any) -> None:
        """Write one existing block in place (from the file's view; the
        device still writes out of place internally)."""
        if self._unlinked or not 0 <= index < self.block_count:
            self.block_lpn(index)       # raises the unlinked / range error
        lpn = self._blocks[index]
        tracer = self.fs.telemetry.tracer
        if tracer.recording:
            with tracer.span("host.pwrite", path=self.path, blocks=1):
                self.fs.ssd.write(lpn, data)
        else:
            self.fs.ssd.write(lpn, data)

    def pwrite_blocks(self, index: int, pages: Sequence[Any]) -> None:
        """Write consecutive blocks with one device command per contiguous
        LPN run."""
        self._check_open()
        if not pages:
            return
        lpns = self.block_lpns(index, len(pages))
        tracer = self.fs.telemetry.tracer
        if tracer.recording:
            with tracer.span("host.pwrite", path=self.path,
                             blocks=len(pages)):
                self._pwrite_runs(lpns, pages)
        else:
            self._pwrite_runs(lpns, pages)

    def _pwrite_runs(self, lpns: List[int], pages: Sequence[Any]) -> None:
        """One ``write_multi`` per contiguous LPN run."""
        run_start = 0
        for i in range(1, len(lpns) + 1):
            contiguous = i < len(lpns) and lpns[i] == lpns[i - 1] + 1
            if not contiguous:
                self.fs.ssd.write_multi(lpns[run_start],
                                        list(pages[run_start:i]))
                run_start = i

    def pread_block(self, index: int) -> Any:
        """Read one block."""
        if self._unlinked or not 0 <= index < self.block_count:
            self.block_lpn(index)       # raises the unlinked / range error
        return self.fs.ssd.read(self._blocks[index])

    def truncate_blocks(self, block_count: int) -> None:
        """Shrink the file, trimming and recycling the dropped blocks."""
        self._check_open()
        if block_count < 0:
            raise ValueError(f"negative size: {block_count}")
        if block_count >= len(self._blocks):
            return
        dropped = self._blocks[block_count:]
        self._blocks = self._blocks[:block_count]
        self.block_count = block_count
        for lpn in dropped:
            self.fs.ssd.trim(lpn)
        self.fs.release_blocks(dropped)
        self._metadata_dirty = True

    def fsync(self) -> None:
        """Force durability of data and (if changed) metadata."""
        self._check_open()
        self.fs.fsync_file(self)
