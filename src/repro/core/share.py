"""High-level SHARE batching.

The device commits one mapping page of deltas atomically; applications that
want to remap more pages than that must decide how to split.  The builder
here accumulates pairs, validates them eagerly (fail before any device
state changes), and submits in atomic chunks.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.errors import ShareError
from repro.ftl.share_ext import (MAX_BATCH_UNLIMITED, SharePair,
                                 expand_range, validate_batch)
from repro.ssd.device import Ssd

__all__ = ["SharePair", "expand_range", "ShareBatchBuilder"]


class ShareBatchBuilder:
    """Accumulates SHARE pairs and submits them in device-atomic chunks.

    Each submitted chunk is atomic on its own; cross-chunk atomicity is the
    caller's problem (InnoDB needs none — every page pair is independent;
    Couchbase compaction is restartable as a whole, Section 4.3).
    """

    def __init__(self, ssd: Ssd) -> None:
        if not ssd.supports_share:
            raise ShareError("device does not support the SHARE command")
        self._ssd = ssd
        self._pairs: List[Tuple[int, int]] = []
        self._dst_seen = set()

    def add(self, dst_lpn: int, src_lpn: int) -> "ShareBatchBuilder":
        """Queue one remap; validates the pair and duplicates eagerly."""
        validate_batch([(dst_lpn, src_lpn)], self._ssd.logical_pages,
                       MAX_BATCH_UNLIMITED)
        if dst_lpn in self._dst_seen:
            raise ShareError(f"destination LPN queued twice: {dst_lpn}")
        self._dst_seen.add(dst_lpn)
        self._pairs.append((dst_lpn, src_lpn))
        return self

    def add_range(self, dst_lpn: int, src_lpn: int, length: int) -> "ShareBatchBuilder":
        for dst, src in expand_range(dst_lpn, src_lpn, length):
            self.add(dst, src)
        return self

    def __len__(self) -> int:
        return len(self._pairs)

    def submit(self) -> int:
        """Issue the queued pairs; returns the number of device commands."""
        if not self._pairs:
            raise ShareError("nothing queued to share")
        commands = self._ssd.in_batches(self._ssd.share_batch, self._pairs)
        self._pairs = []
        self._dst_seen = set()
        return commands
