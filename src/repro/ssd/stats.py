"""Host-visible device counters.

These are the numbers Figure 6 plots: page writes requested by the host,
garbage-collection events inside the device, and copyback pages moved by
GC.  Write amplification factor (WAF) is derived as
``(host programs + GC copybacks + map/spill programs) / host programs``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict


def _waf(host_writes: float, total_programs: float) -> float:
    if host_writes <= 0:
        return 0.0
    return total_programs / host_writes


@dataclass
class DeviceStats:
    """Cumulative counters maintained by the :class:`repro.ssd.device.Ssd`
    facade.  All byte counts use the device page size."""

    page_size: int = 4096
    host_write_pages: int = 0
    host_read_pages: int = 0
    share_commands: int = 0
    share_pairs: int = 0
    trim_commands: int = 0
    flush_commands: int = 0
    gc_events: int = 0
    copyback_pages: int = 0
    block_erases: int = 0
    map_page_writes: int = 0
    # Always 0 since a full share table spills to the mapping log, never
    # to a page copy; kept because perfbench reads it by name.
    share_spill_pages: int = 0
    share_log_spills: int = 0
    spill_lookups: int = 0
    wear_level_moves: int = 0
    busy_us: float = 0.0
    # Counts only the telemetry rows report (``device.<name>.
    # write_commands`` / ``trim_pages``).  Not in :meth:`snapshot`,
    # whose key set the recorded golden runs pin.
    write_commands: int = 0
    trim_pages: int = 0
    extra: Dict[str, int] = field(default_factory=dict)

    @property
    def host_written_bytes(self) -> int:
        return self.host_write_pages * self.page_size

    @property
    def host_read_bytes(self) -> int:
        return self.host_read_pages * self.page_size

    @property
    def total_nand_programs(self) -> int:
        """Every page program the media absorbed."""
        return (self.host_write_pages + self.copyback_pages
                + self.map_page_writes + self.share_spill_pages)

    @property
    def write_amplification(self) -> float:
        """Device-internal WAF relative to host page writes.  A fresh
        device (no host writes yet — e.g. internal map traffic only)
        reports 0.0 rather than dividing by zero."""
        return _waf(self.host_write_pages, self.total_nand_programs)

    def snapshot(self) -> Dict[str, float]:
        out: Dict[str, float] = {
            "host_write_pages": self.host_write_pages,
            "host_read_pages": self.host_read_pages,
            "share_commands": self.share_commands,
            "share_pairs": self.share_pairs,
            "trim_commands": self.trim_commands,
            "flush_commands": self.flush_commands,
            "gc_events": self.gc_events,
            "copyback_pages": self.copyback_pages,
            "block_erases": self.block_erases,
            "map_page_writes": self.map_page_writes,
            "share_spill_pages": self.share_spill_pages,
            "share_log_spills": self.share_log_spills,
            "spill_lookups": self.spill_lookups,
            "wear_level_moves": self.wear_level_moves,
            "write_amplification": self.write_amplification,
            "busy_us": self.busy_us,
        }
        out.update(self.extra)
        return out

    def delta_since(self, before: "DeviceStats") -> Dict[str, float]:
        """Difference of the numeric counters against an earlier copy.

        ``write_amplification`` is a ratio, so its delta is recomputed
        from the interval's own counters (guarded against a write-free
        interval) rather than subtracting two cumulative ratios, which
        would be meaningless.
        """
        now = self.snapshot()
        past = before.snapshot()
        delta = {key: now[key] - past.get(key, 0) for key in now}
        host = delta["host_write_pages"]
        programs = (host + delta["copyback_pages"]
                    + delta["map_page_writes"] + delta["share_spill_pages"])
        delta["write_amplification"] = _waf(host, programs)
        return delta

    def copy(self) -> "DeviceStats":
        clone = DeviceStats(page_size=self.page_size)
        clone.__dict__.update({k: (dict(v) if isinstance(v, dict) else v)
                               for k, v in self.__dict__.items()})
        return clone
