"""Controller DRAM read cache.

Section 4.2.1: most of the SSD's DRAM holds the forward mapping table;
"the remaining space is used for I/O buffers and cache", and the SHARE
prototype trades a portion of that cache for the reverse-mapping table.
This module is that cache: an LRU of recently read/written logical pages
served at DRAM speed instead of a NAND read.

The DRAM-budget ablation benchmark splits a fixed byte budget between
this cache and the share table to quantify the paper's trade.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Optional

#: Unique miss sentinel so a cached ``None`` payload stays a hit.
_MISS = object()


class DramReadCache:
    """LRU cache of LPN -> page image."""

    def __init__(self, capacity_pages: int) -> None:
        if capacity_pages < 0:
            raise ValueError(
                f"capacity must be non-negative: {capacity_pages}")
        self.capacity_pages = capacity_pages
        # Plain attribute, not a property: lookup/insert run once per
        # host command and a property costs a Python call each time.
        self.enabled = capacity_pages > 0
        self._entries: "OrderedDict[int, Any]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, lpn: int) -> Optional[tuple]:
        """Return (data,) on a hit, None on a miss.  The tuple wrapper
        distinguishes a cached None payload from a miss."""
        if not self.enabled:
            return None
        entries = self._entries
        data = entries.get(lpn, _MISS)
        if data is not _MISS:
            entries.move_to_end(lpn)
            self.hits += 1
            return (data,)
        self.misses += 1
        return None

    def insert(self, lpn: int, data: Any) -> None:
        """Install or refresh an entry, evicting LRU on overflow."""
        if not self.enabled:
            return
        self._entries[lpn] = data
        self._entries.move_to_end(lpn)
        while len(self._entries) > self.capacity_pages:
            self._entries.popitem(last=False)

    def invalidate(self, lpns) -> None:
        """Drop the entries of every LPN in ``lpns`` (on trim/share)."""
        entries = self._entries
        for lpn in lpns:
            entries.pop(lpn, None)

    def clear(self) -> None:
        self._entries.clear()

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
