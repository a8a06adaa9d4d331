"""Latency parameters for the NAND array and the host interface.

Values follow the MLC-class chips on the first-generation OpenSSD (Samsung
K9LCG08U1M-class): reads are tens of microseconds, programs are on the
order of a millisecond (MLC tPROG), erases are milliseconds.  The paper argues its
results are independent of absolute device speed; the timing model exists so
the benchmark harness can convert operation counts into throughput and
latency *shapes* comparable to the paper's figures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple


@dataclass(frozen=True)
class FlashTiming:
    """Per-operation latencies in microseconds.

    ``transfer_us_per_kib`` models the channel/SATA transfer cost, charged
    per KiB moved in addition to the array operation itself.
    ``copyback_us`` is the internal GC valid-page move (read + program
    without crossing the host interface).
    """

    read_us: float = 60.0
    program_us: float = 1300.0
    erase_us: float = 2500.0
    transfer_us_per_kib: float = 25.0
    copyback_us: float = 1360.0
    # Firmware costs: mapping-table ops are DRAM-speed, command handling has
    # a small fixed overhead per host command (SATA round trip, §3.2's
    # motivation for batching SHARE pairs).
    command_overhead_us: float = 20.0
    map_update_us: float = 0.2

    def __post_init__(self) -> None:
        for name in ("read_us", "program_us", "erase_us", "transfer_us_per_kib",
                     "copyback_us", "command_overhead_us", "map_update_us"):
            value = getattr(self, name)
            if value < 0:
                raise ValueError(f"{name} must be non-negative: {value}")

    def read_latency(self, size_bytes: int) -> float:
        """Host-visible read of ``size_bytes`` from one page."""
        return self.read_us + self.transfer_us_per_kib * (size_bytes / 1024.0)

    def program_latency(self, size_bytes: int) -> float:
        """Host-visible program of ``size_bytes`` into one page."""
        return self.program_us + self.transfer_us_per_kib * (size_bytes / 1024.0)


#: OpenSSD-class MLC timing used by the paper-shaped experiments.
MLC_TIMING = FlashTiming()

#: Datacenter-SATA-SSD-class timing (the Samsung PM853T log device of the
#: experimental setup): faster programs, deeper internal parallelism
#: folded into the per-op figures.
SATA_SSD_TIMING = FlashTiming(read_us=60.0, program_us=90.0,
                              erase_us=1200.0, transfer_us_per_kib=10.0,
                              copyback_us=100.0, command_overhead_us=15.0,
                              map_update_us=0.2)

#: Cheap timing for unit tests where only counts matter.
FAST_TIMING = FlashTiming(read_us=1.0, program_us=10.0, erase_us=30.0,
                          transfer_us_per_kib=0.5, copyback_us=11.0,
                          command_overhead_us=1.0, map_update_us=0.01)


class ChannelSet:
    """Per-channel busy resources.

    An operation occupies its channel for its duration: different
    channels overlap freely, operations on one channel serialise.  All
    times are integer microseconds so the event-driven device reproduces
    the serial model's per-command rounding exactly at one channel.

    ``busy_us`` accumulates occupied time per channel since the last
    :meth:`reset_accounting`, which is what the per-channel utilisation
    gauges report.
    """

    __slots__ = ("channel_count", "_free_us", "busy_us")

    def __init__(self, channel_count: int = 1) -> None:
        if channel_count < 1:
            raise ValueError(f"need at least one channel: {channel_count}")
        self.channel_count = channel_count
        self._free_us: List[int] = [0] * channel_count
        self.busy_us: List[int] = [0] * channel_count

    def acquire(self, channel: int, earliest_us: int,
                duration_us: int) -> Tuple[int, int]:
        """Occupy ``channel`` for ``duration_us`` starting no earlier
        than ``earliest_us``; returns ``(start_us, end_us)``.  Both are
        integer microseconds already (the device rounds once, when it
        prices the command), so nothing is coerced here."""
        if not 0 <= channel < self.channel_count:
            raise ValueError(
                f"channel out of range [0, {self.channel_count}): {channel}")
        free_us = self._free_us
        start = free_us[channel]
        if earliest_us > start:
            start = earliest_us
        end = start + duration_us
        free_us[channel] = end
        self.busy_us[channel] += duration_us
        return start, end

    def utilization(self, elapsed_us: int) -> List[float]:
        """Per-channel busy fraction over ``elapsed_us``."""
        if elapsed_us <= 0:
            return [0.0] * self.channel_count
        return [min(1.0, busy / elapsed_us) for busy in self.busy_us]

    def reset_accounting(self) -> None:
        """Zero the utilisation accumulators (measurement boundary);
        busy-until horizons are kept — in-flight work stays in flight."""
        self.busy_us = [0] * self.channel_count

    def reset(self) -> None:
        """Free every channel (power cycle): the busy-until horizons go;
        the utilisation accumulators belong to the measured interval,
        which a power cycle does not end."""
        self._free_us = [0] * self.channel_count
