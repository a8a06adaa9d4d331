"""Recovery parity across L2P mapping strategies.

Every backing must rebuild the *same* logical mapping from the same
media: after a power cut at any delta-log fault point of the ftl-basic
harness, recovering the NAND under each strategy's config must agree —
entry for entry — with a recovery under the flat default.  The sweep
reuses the power family's deterministic enumeration, so the sampled
power-cut sites land exactly where the map log commits and checkpoints.

The last test is the fault-free side of the same claim: on an engine
stack with GC active, nothing above the FTL can tell the backings apart.
"""

import dataclasses
import functools

import pytest

from repro.bench import harness
from repro.crashcheck import POWER, Site, sample_evenly
from repro.crashcheck.workloads import FtlBasicHarness
from repro.errors import PowerFailure
from repro.ftl.config import FtlConfig
from repro.ftl.mapping import STRATEGY_NAMES
from repro.ftl.pagemap import PageMappingFtl
from repro.sim.faults import FaultPlan, PowerFailAfter

from conftest import small_linkbench_stack

#: Per-strategy cap on injected power cuts (checkpoint boundaries are
#: always kept; commit points are sampled evenly up to this budget).
SAMPLE_BUDGET = 12


def _maplog_occurrences():
    """The delta-log fault sites of one deterministic ftl-basic run:
    every checkpoint rotation point plus an even sample of the
    per-batch commit points."""
    occurrences, __ = POWER.enumerate(FtlBasicHarness, POWER.modes)
    maplog = [occ for occ in occurrences
              if occ.power_point.startswith("maplog.")]
    assert maplog, "ftl-basic reached no maplog fault points"
    rotations = [occ for occ in maplog
                 if occ.power_point in ("maplog.checkpoint_start",
                                        "maplog.checkpoint_end")]
    commits = [occ for occ in maplog if occ not in rotations]
    sampled = rotations + sample_evenly(
        commits, max(1, SAMPLE_BUDGET - len(rotations)))
    # De-dup while keeping enumeration order.
    return list(dict.fromkeys(sampled))


_SITES = _maplog_occurrences()


def _crash_at(site: Site, l2p: str = "flat") -> FtlBasicHarness:
    """Run ftl-basic on the ``l2p`` backing until the injected power
    cut."""
    faults = FaultPlan()
    harness = FtlBasicHarness(faults, l2p)
    faults.arm(PowerFailAfter(site.power_point, site.power_nth))
    with pytest.raises(PowerFailure):
        harness.run()
    faults.disarm()
    return harness


@pytest.mark.parametrize("strategy",
                         [s for s in STRATEGY_NAMES if s != "flat"])
@pytest.mark.parametrize("site", _SITES,
                         ids=[f"{occ.power_point}#{occ.power_nth}"
                              for occ in _SITES])
def test_recovery_parity_with_flat(strategy, site):
    # The workload itself runs under the flat default (the op sequence,
    # and therefore the persisted media, is identical either way — the
    # backing only changes the DRAM representation); parity is about
    # what each strategy *rebuilds* from that media.
    harness = _crash_at(site)
    nand = harness.ssd.nand
    base_config = harness.ssd.config.ftl
    flat = PageMappingFtl.recover(
        nand, dataclasses.replace(base_config, l2p_strategy="flat"))
    other = PageMappingFtl.recover(
        nand, dataclasses.replace(base_config, l2p_strategy=strategy,
                                  l2p_group_pages=16))
    assert other.fwd.name == strategy
    assert other.fwd.snapshot() == flat.fwd.snapshot()
    assert other.fwd.mapped_count == flat.fwd.mapped_count
    # The rebuilt strategy must satisfy the FTL's own cross-structure
    # invariants too, not just mirror the flat table.
    other.check_invariants()


@pytest.mark.parametrize("strategy",
                         [s for s in STRATEGY_NAMES if s != "flat"])
def test_crash_while_running_under_strategy(strategy):
    # Complementary direction: the *workload* runs under the compact
    # backing, crashes at a mid-run commit site, and both that backing
    # and the flat one rebuild identical mappings from its media.
    site = _SITES[len(_SITES) // 2]
    harness = _crash_at(site, strategy)
    assert harness.ssd.ftl.fwd.name == strategy
    nand = harness.ssd.nand
    base_config = harness.ssd.config.ftl
    recovered = PageMappingFtl.recover(nand, base_config)
    flat = PageMappingFtl.recover(
        nand, dataclasses.replace(base_config, l2p_strategy="flat"))
    assert recovered.fwd.name == strategy
    assert recovered.fwd.snapshot() == flat.fwd.snapshot()
    recovered.check_invariants()


def _observe_linkbench(strategy, monkeypatch):
    """Everything visible above the FTL after a small GC-bound LinkBench
    run on an InnoDB SHARE stack whose devices use ``strategy`` (the
    builders build every device's ``FtlConfig`` with the default backing;
    the stack's is swapped in where they build it)."""
    monkeypatch.setattr(harness, "FtlConfig",
                        functools.partial(FtlConfig, l2p_strategy=strategy))
    stack, driver = small_linkbench_stack(seed=3, db_pages_estimate=120)
    assert stack.data_ssd.ftl.fwd.name == strategy
    assert stack.log_ssd.ftl.fwd.name == strategy
    driver.load()
    driver.run(4000, concurrency=16)
    return {
        "clock_us": stack.clock.now_us,
        "data": stack.data_ssd.stats.snapshot(),
        "log": stack.log_ssd.stats.snapshot(),
        "rows": {name: list(tree.items())
                 for name, tree in stack.engine.tables.items()},
    }


def test_l2p_backing_is_invisible_above_the_ftl(monkeypatch):
    # The backing changes only the DRAM representation of the map: on an
    # engine stack with GC active, the virtual clock, both devices'
    # counters and every row must not depend on it.
    flat = _observe_linkbench("flat", monkeypatch)
    assert flat["data"]["gc_events"] > 0
    assert flat["data"]["share_pairs"] > 0
    assert sum(len(rows) for rows in flat["rows"].values()) > 600
    for strategy in STRATEGY_NAMES:
        if strategy != "flat":
            assert _observe_linkbench(strategy, monkeypatch) == flat, strategy
