"""NAND flash array model: geometry, timing, and the chip-level rules
(no overwrite, erase-before-rewrite, sequential in-block programming)."""

from repro.flash.geometry import FlashGeometry
from repro.flash.nand import NandArray
from repro.flash.timing import FlashTiming, MLC_TIMING, FAST_TIMING

__all__ = [
    "FlashGeometry",
    "NandArray",
    "FlashTiming",
    "MLC_TIMING",
    "FAST_TIMING",
]
