"""FTL tunables.

Defaults mirror the paper's OpenSSD prototype where it states them (share
table of 250 entries for 4 KiB mapping pages / 500 for 8 KiB) and use
conventional values elsewhere.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Bytes one delta record occupies in a mapping page: (LPN, old PPN,
#: new PPN, seq) at 4 bytes each as on the 32-bit Barefoot controller.
DELTA_RECORD_BYTES = 16

#: Extra read attempts firmware makes after an uncorrectable read before
#: surfacing the error.  A data page that needed one is scrubbed —
#: relocated to a fresh PPN — before it decays further.
READ_RETRIES = 2


@dataclass(frozen=True)
class FtlConfig:
    """Knobs of :class:`repro.ftl.pagemap.PageMappingFtl`.

    Attributes
    ----------
    map_block_count:
        Blocks reserved (at the top of the array) for the mapping delta log.
    share_table_entries:
        Capacity of the reverse-mapping share table — the number of *extra*
        (beyond-the-first) LPN references physical pages may collectively
        hold.  Paper: 250 entries for 4 KiB pages, 500 for 8 KiB.  Extras
        beyond it spill to the flash-resident mapping log (GC pays a
        lookup read to resolve them).
    gc_low_water / gc_high_water:
        Greedy GC starts when the free-block pool drops to ``gc_low_water``
        and collects victims until the pool reaches ``gc_high_water``.
    spare_block_count:
        Data blocks reserved as replacements for grown bad blocks.  The
        default of 0 keeps usable capacity identical to a fault-free
        device; harnesses that inject media faults opt in.
    l2p_strategy:
        Forward-map backing: ``"flat"`` (default, the hot backing; DRAM
        array, bit-identical to the pre-strategy FTL) or ``"delta"`` (the
        compact one; Page-Differential-Logging hybrid).  See
        :mod:`repro.ftl.mapping`.
    l2p_group_pages:
        Group size (LPNs per group) for the ``delta`` backing; ignored by
        ``flat``.
    """

    map_block_count: int = 4
    share_table_entries: int = 250
    gc_low_water: int = 3
    gc_high_water: int = 6
    wear_leveling: bool = True
    wear_delta_threshold: int = 16
    spare_block_count: int = 0
    l2p_strategy: str = "flat"
    l2p_group_pages: int = 64

    def __post_init__(self) -> None:
        if self.wear_delta_threshold < 1:
            raise ValueError(
                f"wear_delta_threshold must be >= 1: {self.wear_delta_threshold}")
        if self.map_block_count < 1:
            raise ValueError(f"map_block_count must be >= 1: {self.map_block_count}")
        if self.share_table_entries < 1:
            raise ValueError(
                f"share_table_entries must be >= 1: {self.share_table_entries}")
        if self.gc_low_water < 2:
            raise ValueError(f"gc_low_water must be >= 2: {self.gc_low_water}")
        if self.gc_high_water <= self.gc_low_water:
            raise ValueError("gc_high_water must exceed gc_low_water")
        if self.spare_block_count < 0:
            raise ValueError(
                f"spare_block_count must be >= 0: {self.spare_block_count}")
        from repro.ftl.mapping import STRATEGY_NAMES
        if self.l2p_strategy not in STRATEGY_NAMES:
            raise ValueError(
                f"l2p_strategy must be one of {', '.join(STRATEGY_NAMES)}: "
                f"{self.l2p_strategy!r}")
        if self.l2p_group_pages < 1:
            raise ValueError(
                f"l2p_group_pages must be >= 1: {self.l2p_group_pages}")

    def deltas_per_page(self, page_size: int) -> int:
        """How many delta records fit in one mapping page — the atomic
        SHARE batch limit (Section 4.2.2)."""
        return max(1, page_size // DELTA_RECORD_BYTES)
