"""Flash array geometry.

The OpenSSD generation used in the paper exposes a page-mapped array of MLC
NAND; for the reproduction what matters is the page/block structure (GC works
in block units, programs in page units) and the capacity arithmetic, so the
geometry is parameterised and kept modest by default so experiments stay
laptop-fast.
"""

from __future__ import annotations

from dataclasses import dataclass

KIB = 1024
MIB = 1024 * KIB


@dataclass(frozen=True)
class FlashGeometry:
    """Physical shape of the NAND array.

    Attributes
    ----------
    page_size:
        Bytes per physical page.  The FTL maps whole pages, matching the
        paper's "FTL mapping granularity".
    pages_per_block:
        Program/erase asymmetry: programs address pages, erases address
        blocks of this many pages.
    block_count:
        Total physical blocks, including over-provisioned ones not exposed
        through the logical address space.
    overprovision_ratio:
        Fraction of raw capacity hidden from the host; the paper's OpenSSD
        aging pre-run drives GC behaviour that only exists because the
        exposed logical space is smaller than the raw space.
    channel_count:
        Independent NAND channels.  Blocks are striped across channels
        (``block % channel_count``), so programs/reads/erases on blocks
        of different channels can overlap in time.  1 (the default)
        reproduces the fully serial device model exactly.
    """

    page_size: int = 4 * KIB
    pages_per_block: int = 128
    block_count: int = 1024
    overprovision_ratio: float = 0.08
    channel_count: int = 1

    def __post_init__(self) -> None:
        if self.page_size <= 0 or self.page_size % 512:
            raise ValueError(f"page_size must be a positive multiple of 512: {self.page_size}")
        if self.pages_per_block <= 0:
            raise ValueError(f"pages_per_block must be positive: {self.pages_per_block}")
        if self.block_count <= 1:
            raise ValueError(f"block_count must be > 1: {self.block_count}")
        if not 0.0 < self.overprovision_ratio < 0.5:
            raise ValueError(
                f"overprovision_ratio must be in (0, 0.5): {self.overprovision_ratio}")
        if not 1 <= self.channel_count <= self.block_count:
            raise ValueError(
                f"channel_count must be in [1, block_count]: {self.channel_count}")

    @property
    def total_pages(self) -> int:
        """Raw physical pages in the array."""
        return self.block_count * self.pages_per_block

    @property
    def logical_pages(self) -> int:
        """Pages exposed through the logical (LPN) address space."""
        return int(self.total_pages * (1.0 - self.overprovision_ratio))

    def first_ppn(self, block: int) -> int:
        """First physical page number of ``block``."""
        self.check_block(block)
        return block * self.pages_per_block

    def check_ppn(self, ppn: int) -> None:
        if not 0 <= ppn < self.block_count * self.pages_per_block:
            raise ValueError(f"PPN out of range [0, {self.total_pages}): {ppn}")

    def check_block(self, block: int) -> None:
        if not 0 <= block < self.block_count:
            raise ValueError(f"block out of range [0, {self.block_count}): {block}")

    @classmethod
    def small(cls, page_size: int = 4 * KIB,
              channel_count: int = 1) -> "FlashGeometry":
        """A tiny array for unit tests (64 blocks x 32 pages)."""
        return cls(page_size=page_size, pages_per_block=32, block_count=64,
                   overprovision_ratio=0.125, channel_count=channel_count)
