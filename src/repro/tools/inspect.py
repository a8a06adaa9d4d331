"""Device inspector: dump the FTL's internal state after a scenario.

Shows what firmware engineers would pull off a debug UART: mapping
pressure (mapped LPNs, shared pages, log-backed mappings), free-space and
GC state, wear histogram, and the share-table occupancy the paper sizes
at 250 entries.

Usage::

    python -m repro.tools.inspect                 # canned mixed scenario
    python -m repro.tools.inspect --scenario share-heavy
"""

from __future__ import annotations

import argparse
import random
from typing import Dict, List, Optional

from repro.flash.geometry import FlashGeometry
from repro.ftl.config import FtlConfig
from repro.ftl.mapping import resolve_l2p_strategy
from repro.sim.clock import SimClock
from repro.ssd.device import Ssd, SsdConfig

SCENARIOS = ("mixed", "share-heavy", "overwrite")


def build_device(block_count: int = 128) -> Ssd:
    geometry = FlashGeometry(page_size=4096, pages_per_block=64,
                             block_count=block_count,
                             overprovision_ratio=0.1)
    return Ssd(SimClock(), SsdConfig(
        geometry=geometry,
        ftl=FtlConfig(map_block_count=6,
                      l2p_strategy=resolve_l2p_strategy())))


def run_scenario(ssd: Ssd, scenario: str, seed: int = 3) -> None:
    rng = random.Random(seed)
    span = int(ssd.logical_pages * 0.6)
    for lpn in range(span):
        ssd.write(lpn, ("base", lpn))
    if scenario == "mixed":
        for i in range(span):
            action = rng.random()
            if action < 0.5:
                ssd.write(rng.randrange(span), ("w", i))
            elif action < 0.8:
                ssd.read(rng.randrange(span))
            else:
                ssd.share(span + (i % (ssd.logical_pages - span - 1)),
                          rng.randrange(span))
    elif scenario == "share-heavy":
        free_span = ssd.logical_pages - span
        for i in range(span * 2):
            ssd.share(span + (i % free_span), rng.randrange(span))
    elif scenario == "overwrite":
        for i in range(span * 3):
            ssd.write(rng.randrange(span), ("w", i))
    else:
        raise ValueError(f"unknown scenario {scenario!r}")


def gather_report(ssd: Ssd) -> Dict[str, object]:
    """Collect the inspector's numbers as a dict (tests use this)."""
    ftl = ssd.ftl
    erase_counts = ssd.nand.erase_counts
    histogram: Dict[int, int] = {}
    for count in erase_counts:
        histogram[count] = histogram.get(count, 0) + 1
    shared_pages = ftl.rev.shared_pages()
    return {
        "logical_pages": ftl.logical_pages,
        "mapped_lpns": ftl.fwd.mapped_count,
        "utilization": ftl.fwd.mapped_count / ftl.logical_pages,
        "l2p_strategy": ftl.fwd.name,
        "l2p_footprint_bytes": ftl.fwd.footprint_bytes(),
        "l2p_fragments": ftl.fwd.fragment_count(),
        "l2p_remap_splits": ftl.fwd.remap_splits,
        "free_blocks": ftl.free_block_count,
        "shared_physical_pages": shared_pages,
        "share_table_used": ftl.rev.extra_entries,
        "share_table_capacity": ftl.rev.capacity,
        "share_table_spilled": ftl.rev.spilled_entries,
        "share_table_spill_peak": ftl.rev.spilled_peak,
        "log_backed_mappings": len(ftl._share_backed),
        "trim_tombstones": len(ftl._trim_tombstones),
        "map_page_writes": ftl.map_page_writes,
        "gc_events": ftl.stats.gc_events,
        "copyback_pages": ftl.stats.copyback_pages,
        "wear_histogram": dict(sorted(histogram.items())),
        "waf": ssd.stats.write_amplification,
    }


def format_report(report: Dict[str, object]) -> str:
    lines = ["device state", "-" * 40]
    for key, value in report.items():
        if key == "wear_histogram":
            continue
        if isinstance(value, float):
            lines.append(f"{key:>24}: {value:.3f}")
        else:
            lines.append(f"{key:>24}: {value}")
    lines.append(f"{'wear histogram':>24}: erase-count -> blocks")
    for count, blocks in report["wear_histogram"].items():
        lines.append(f"{'':>26}{count:>3} -> {'#' * min(60, blocks)} "
                     f"({blocks})")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scenario", choices=SCENARIOS, default="mixed")
    parser.add_argument("--blocks", type=int, default=128)
    parser.add_argument("--seed", type=int, default=3)
    args = parser.parse_args(argv)
    ssd = build_device(args.blocks)
    run_scenario(ssd, args.scenario, args.seed)
    ssd.ftl.check_invariants()
    print(format_report(gather_report(ssd)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
