"""The share ioctl: file-level entry point of the SHARE command.

Applications address file blocks; the filesystem resolves them to device
LPNs and forwards batches of ``(dst_lpn, src_lpn)`` pairs to the device,
exactly the ioctl plumbing of Section 4 ("a user-level library that
implements a protocol for the new commands via the ioctl system call").

Batches larger than the device's atomic limit are split (in one place,
``Ssd.in_batches``): each sub-batch is atomic on its own, and the helpers
return the number of device commands so callers can reason about (and the
stats can count) the round trips that Section 3.2's batching argument is
about.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.errors import IoctlError
from repro.host.file import File


def share_ioctl(dst_file: File, dst_block: int, src_file: File,
                src_block: int, length: int = 1) -> int:
    """Remap ``length`` blocks of ``dst_file`` (starting at ``dst_block``)
    onto the physical pages of ``src_file``'s blocks.

    Returns the number of SHARE commands issued to the device.
    """
    return share_file_ranges(dst_file, src_file,
                             [(dst_block, src_block, length)])


def share_file_ranges(dst_file: File, src_file: File,
                      ranges: Sequence[Tuple[int, int, int]]) -> int:
    """Batch form: each range is (dst_block, src_block, length).

    Used by the SHARE-based Couchbase compaction, which shares every valid
    document of the old file into the new file with as few round trips as
    possible.  Returns the number of device commands issued.
    """
    if dst_file.fs is not src_file.fs:
        raise IoctlError("share across filesystems is impossible")
    pairs: List[Tuple[int, int]] = []
    for dst_block, src_block, length in ranges:
        # The common range is one block: one check, two subscripts (an
        # unlinked file has no blocks, so it takes the path that raises).
        if (length == 1 and 0 <= dst_block < dst_file.block_count
                and 0 <= src_block < src_file.block_count):
            pairs.append((dst_file._blocks[dst_block],
                          src_file._blocks[src_block]))
            continue
        if length < 1:
            raise IoctlError(f"length must be >= 1: {length}")
        pairs += zip(dst_file.block_lpns(dst_block, length),
                     src_file.block_lpns(src_block, length))
    if not pairs:
        raise IoctlError("no ranges to share")
    ssd = dst_file.fs.ssd
    if not ssd.supports_share:
        raise IoctlError("device does not support the SHARE command")
    tracer = ssd.telemetry.tracer
    if not tracer.recording:        # as in Ssd._command: no span
        commands = ssd.in_batches(ssd.share_batch, pairs)
    else:
        with tracer.span("host.share_ioctl", pairs=len(pairs)) as span:
            commands = ssd.in_batches(ssd.share_batch, pairs)
            span.set(commands=commands)
    dst_file.fs.share_ioctl_commands += commands
    return commands


def atomic_write_ioctl(file: File, items: Sequence[Tuple[int, object]]) -> int:
    """Atomic multi-page write through the file layer: each item is
    (file block index, page image).  Used by the atomic-write baseline
    mode (Section 6.1); returns the number of device commands issued."""
    if not items:
        raise IoctlError("no pages to write atomically")
    ssd = file.fs.ssd
    resolved = [(file.block_lpn(block), data) for block, data in items]
    with ssd.telemetry.tracer.span("host.atomic_write_ioctl",
                                   pages=len(resolved)) as span:
        commands = ssd.in_batches(ssd.write_atomic, resolved)
        span.set(commands=commands)
    return commands

