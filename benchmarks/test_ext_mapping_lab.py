"""Extension: L2P mapping-strategy lab (footprint vs fragmentation).

The forward map sits behind a strategy interface with two backings:
the flat array default (the hot one) and a page-differential delta
encoding (the compact one).  This lab runs each backing over three
device workloads —

* ``seq``    — one sequential fill of 60% of the address space,
* ``rand``   — the fill plus random overwrites of a hot span,
* ``share``  — the fill plus a SHARE-heavy phase remapping scattered
  sources into fresh destinations (the paper's checkpoint pattern),

and records the modeled device-DRAM footprint, fragment count, SHARE
remap splits, splits-per-pair, WAF, and raw simulation speed to
``results/mapping_lab.jsonl`` (read back by
``python -m repro.tools.report --section mapping``).

Shape asserted: every backing rebuilds the same logical mapping (equal
mapped counts and read-back agreement on probes); delta beats the flat
array's footprint on the sequential fill and still beats it on the SHARE
phase, while paying measurable SHARE fragmentation (splits per pair)
that the flat array never does; and the flat default's footprint is
workload-independent.  (GFTL-style group tables and CCFTL-style extents
were dropped after this lab showed both larger than flat on the SHARE
phase — EXPERIMENTS.md, "SHARE fragments run-based compressed maps".)
"""

import json
import random
from pathlib import Path
from time import perf_counter

from conftest import run_once

from repro.flash.geometry import FlashGeometry
from repro.ftl.config import FtlConfig
from repro.ftl.mapping import STRATEGY_NAMES
from repro.ssd.device import Ssd, SsdConfig
from repro.sim.clock import SimClock

WORKLOADS = ("seq", "rand", "share")
FILL_FRACTION = 0.6
GROUP_PAGES = 64
SEED = 0x10AB


def _build(strategy: str) -> Ssd:
    geometry = FlashGeometry(page_size=4096, pages_per_block=64,
                             block_count=64, overprovision_ratio=0.12)
    return Ssd(SimClock(), SsdConfig(
        geometry=geometry,
        ftl=FtlConfig(map_block_count=5,
                      l2p_strategy=strategy,
                      l2p_group_pages=GROUP_PAGES)))


def _drive(ssd: Ssd, workload: str):
    """Run one workload; returns (ops, share_pairs) executed."""
    rng = random.Random(SEED)
    span = int(ssd.logical_pages * FILL_FRACTION)
    ops = 0
    pairs = 0
    for lpn in range(span):
        ssd.write(lpn, ("base", lpn))
        ops += 1
    if workload == "rand":
        hot = max(64, span // 4)
        for i in range(span):
            ssd.write(rng.randrange(hot), ("hot", i))
            ops += 1
    elif workload == "share":
        free_span = ssd.logical_pages - span
        for i in range(span):
            dst = span + (i % free_span)
            src = rng.randrange(span)
            if dst == src:
                continue
            ssd.share(dst, src)
            ops += 1
            pairs += 1
    return ops, pairs


def _run_cell(strategy: str, workload: str):
    ssd = _build(strategy)
    start = perf_counter()
    ops, pairs = _drive(ssd, workload)
    elapsed = perf_counter() - start
    ssd.ftl.check_invariants()
    fwd = ssd.ftl.fwd
    return {
        "type": "mapping_lab",
        "strategy": strategy,
        "workload": workload,
        "ops": ops,
        "share_pairs": pairs,
        "mapped_lpns": fwd.mapped_count,
        "footprint_bytes": fwd.footprint_bytes(),
        "fragments": fwd.fragment_count(),
        "remap_splits": fwd.remap_splits,
        "splits_per_pair": (fwd.remap_splits / pairs) if pairs else 0.0,
        "waf": ssd.stats.write_amplification,
        "wall_kops_per_s": (ops / elapsed / 1e3) if elapsed > 0 else 0.0,
        "probe": [(lpn, ssd.read(lpn))
                  for lpn in range(0, ssd.logical_pages, 97)
                  if ssd.ftl.is_mapped(lpn)],
    }


def test_mapping_strategy_lab(benchmark):
    def sweep():
        return [_run_cell(strategy, workload)
                for workload in WORKLOADS
                for strategy in sorted(STRATEGY_NAMES)]

    rows = run_once(benchmark, sweep)

    out = Path(__file__).resolve().parent.parent / "results" \
        / "mapping_lab.jsonl"
    out.parent.mkdir(parents=True, exist_ok=True)
    with out.open("w") as fh:
        for row in rows:
            fh.write(json.dumps(
                {k: v for k, v in row.items() if k != "probe"}) + "\n")

    cells = {(row["workload"], row["strategy"]): row for row in rows}
    print()
    for workload in WORKLOADS:
        for strategy in sorted(STRATEGY_NAMES):
            row = cells[(workload, strategy)]
            print(f"{workload:>5} / {strategy:>9}: "
                  f"{row['footprint_bytes']:>8} B, "
                  f"{row['fragments']:>5} frags, "
                  f"{row['remap_splits']:>5} remap splits "
                  f"({row['splits_per_pair']:.3f}/pair), "
                  f"WAF {row['waf']:.3f}, "
                  f"{row['wall_kops_per_s']:.1f} kops/s")

    for workload in WORKLOADS:
        flat = cells[(workload, "flat")]
        for strategy in sorted(STRATEGY_NAMES):
            row = cells[(workload, strategy)]
            # Same logical state regardless of backing: equal mapped
            # counts, identical read-back on the probe LPNs, same WAF
            # (the backing never changes what hits the media).
            assert row["mapped_lpns"] == flat["mapped_lpns"], (
                workload, strategy)
            assert row["probe"] == flat["probe"], (workload, strategy)
            assert abs(row["waf"] - flat["waf"]) < 1e-9, (
                workload, strategy)

    # The flat array is workload-oblivious: fixed footprint, no splits.
    flat_footprints = {cells[(w, "flat")]["footprint_bytes"]
                       for w in WORKLOADS}
    assert len(flat_footprints) == 1
    assert all(cells[(w, "flat")]["remap_splits"] == 0 for w in WORKLOADS)

    # Delta wins the sequential fill on footprint.
    flat_seq = cells[("seq", "flat")]["footprint_bytes"]
    assert cells[("seq", "delta")]["footprint_bytes"] < flat_seq

    # SHARE fragments delta — splits per pair, and random sources cost it
    # more footprint than the clean sequential fill — yet it stays below
    # the flat array on the paper's own workload.
    share_delta = cells[("share", "delta")]
    assert share_delta["remap_splits"] > 0
    assert share_delta["splits_per_pair"] > 0.5
    assert (share_delta["footprint_bytes"]
            > cells[("seq", "delta")]["footprint_bytes"])
    assert (share_delta["footprint_bytes"]
            < cells[("share", "flat")]["footprint_bytes"])
