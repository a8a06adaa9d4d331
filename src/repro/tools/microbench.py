"""fio-style micro-benchmark for the simulated SHARE SSD.

Patterns:

* ``seqwrite`` / ``randwrite`` — page writes over a span,
* ``randread`` — reads over previously written pages,
* ``share``   — SHARE remaps (one pair per op) against a written span,
* ``mixed``   — 70/30 random read/write.

Reports IOPS (virtual time), bandwidth, device WAF, and GC work — the
microscopic view of the macro effects in the paper's Figure 6.

Usage::

    python -m repro.tools.microbench --pattern randwrite --ops 20000
    python -m repro.tools.microbench --pattern share --utilization 0.8
"""

from __future__ import annotations

import argparse
import json
import random
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Dict, List, Optional

from repro.flash.geometry import FlashGeometry
from repro.flash.timing import MLC_TIMING
from repro.ftl.config import FtlConfig
from repro.sim.clock import SimClock
from repro.ssd.device import Ssd, SsdConfig

PATTERNS = ("seqwrite", "randwrite", "randread", "share", "mixed")


@dataclass
class MicrobenchResult:
    """One run's numbers.

    ``elapsed_seconds``/``iops`` are *virtual* (modeled device time);
    ``wall_seconds``/``sim_ops_per_s`` measure the simulator itself —
    the wall-clock cost of producing those virtual seconds (a quick
    local reading; ``perfbench`` is the measuring stick).
    """

    pattern: str
    operations: int
    elapsed_seconds: float
    iops: float
    bandwidth_mib_s: float
    waf: float
    gc_events: int
    copyback_pages: int
    wall_seconds: float = 0.0

    @property
    def sim_ops_per_s(self) -> float:
        """Simulator speed: operations simulated per wall second."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.operations / self.wall_seconds

    def to_bench_record(self) -> Dict[str, Any]:
        """The ``--json`` record of one run."""
        return {
            "name": f"micro.{self.pattern}",
            "operations": self.operations,
            "wall_s": self.wall_seconds,
            "sim_ops_per_s": self.sim_ops_per_s,
            "virtual_s": self.elapsed_seconds,
            "iops_virtual": self.iops,
            "waf": self.waf,
            "gc_events": self.gc_events,
        }

    def format(self) -> str:
        return (f"{self.pattern}: {self.operations} ops in "
                f"{self.elapsed_seconds:.3f}s virtual -> "
                f"{self.iops:,.0f} IOPS, {self.bandwidth_mib_s:.1f} MiB/s, "
                f"WAF {self.waf:.2f}, GC {self.gc_events} events / "
                f"{self.copyback_pages} copybacks "
                f"[{self.wall_seconds:.3f}s wall, "
                f"{self.sim_ops_per_s:,.0f} ops/s simulated]")


def run_microbench(pattern: str, ops: int = 10_000,
                   utilization: float = 0.6, seed: int = 1,
                   block_count: int = 256,
                   ssd: Optional[Ssd] = None) -> MicrobenchResult:
    """Run one pattern and return the measurements."""
    if pattern not in PATTERNS:
        raise ValueError(f"unknown pattern {pattern!r}; pick from {PATTERNS}")
    if not 0.05 <= utilization <= 0.98:
        raise ValueError(f"utilization must be in [0.05, 0.98]: {utilization}")
    if ssd is None:
        clock = SimClock()
        geometry = FlashGeometry(page_size=4096, pages_per_block=128,
                                 block_count=block_count,
                                 overprovision_ratio=0.08)
        ssd = Ssd(clock, SsdConfig(geometry=geometry, timing=MLC_TIMING,
                                   ftl=FtlConfig(map_block_count=max(
                                       4, block_count // 24))))
    clock = ssd.clock
    rng = random.Random(seed)
    span = int(ssd.logical_pages * utilization)
    # Precondition: fill the working span so reads/shares/GC have targets.
    for lpn in range(span):
        ssd.ftl.write(lpn, ("precond", lpn))
    ssd.reset_measurement()
    clock.reset()
    wall_start = perf_counter()
    if pattern == "seqwrite":
        for i in range(ops):
            ssd.write(i % span, ("w", i))
    elif pattern == "randwrite":
        for i in range(ops):
            ssd.write(rng.randrange(span), ("w", i))
    elif pattern == "randread":
        for __ in range(ops):
            ssd.read(rng.randrange(span))
    elif pattern == "share":
        free_base = span
        free_span = ssd.logical_pages - span
        for i in range(ops):
            ssd.share(free_base + (i % free_span), rng.randrange(span))
    elif pattern == "mixed":
        for i in range(ops):
            if rng.random() < 0.7:
                ssd.read(rng.randrange(span))
            else:
                ssd.write(rng.randrange(span), ("w", i))
    wall_seconds = perf_counter() - wall_start
    elapsed = clock.now_seconds
    stats = ssd.stats
    moved_pages = stats.host_write_pages + stats.host_read_pages \
        + stats.share_pairs
    bandwidth = (moved_pages * ssd.page_size / 2**20 / elapsed
                 if elapsed > 0 else 0.0)
    return MicrobenchResult(
        pattern=pattern, operations=ops, elapsed_seconds=elapsed,
        iops=ops / elapsed if elapsed > 0 else 0.0,
        bandwidth_mib_s=bandwidth,
        waf=stats.write_amplification,
        gc_events=stats.gc_events,
        copyback_pages=stats.copyback_pages,
        wall_seconds=wall_seconds)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pattern", choices=PATTERNS + ("all",),
                        default="all")
    parser.add_argument("--ops", type=int, default=10_000)
    parser.add_argument("--utilization", type=float, default=0.6)
    parser.add_argument("--blocks", type=int, default=256)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="also write the results as JSON records "
                             "(one list under 'micro')")
    args = parser.parse_args(argv)
    patterns = PATTERNS if args.pattern == "all" else (args.pattern,)
    results = []
    for pattern in patterns:
        result = run_microbench(pattern, ops=args.ops,
                                utilization=args.utilization,
                                seed=args.seed, block_count=args.blocks)
        results.append(result)
        print(result.format())
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump({"micro": [r.to_bench_record() for r in results]},
                      fh, indent=2)
            fh.write("\n")
        print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
