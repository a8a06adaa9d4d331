"""Block retirement against the evacuation loop it used to have.

GC and retirement share one page-move loop, ``PageMappingFtl._evacuate``
(strict for GC, ``tolerant`` for retirement).  The retirement-only loop
it replaced is kept here, only in the tests, as the oracle: the same
seeded run — shares (some spilled), trims, an X-FTL transaction that is
always open, and injected program, erase or read failures — is driven
once through the unified loop and once with the oracle patched in for
every retirement, and both must leave the same forward map, the same
spare stamps page for page, and the same ``FtlStats``.
"""

import random

import pytest

from repro.errors import (MediaError, OutOfSpaceError,
                          UncorrectableReadError)
from repro.flash.geometry import FlashGeometry
from repro.flash.nand import NandArray
from repro.ftl.config import FtlConfig
from repro.ftl.pagemap import PageMappingFtl
from repro.sim.faults import EraseFault, FaultPlan, ProgramFault, ReadFault


# ---------------------------------------------------------------- oracle

EVACUATE = PageMappingFtl._evacuate   # the unified loop, before any patch


def oracle_evacuate_for_retirement(ftl, block, inflight):
    """The old ``_evacuate_for_retirement``: a per-page walk of the block
    that asks the reverse map about one page at a time."""
    start = block * ftl._pages_per_block
    for ppn in range(start, start + ftl._write_ptr[block]):
        if ppn in ftl._shadow_owner:
            try:
                ftl._move_shadow_page(ppn)
            except (MediaError, OutOfSpaceError):
                pass   # shadow copy lost; its txn fails at read time
            continue
        if not ftl.rev.is_valid(ppn):
            continue
        refs = sorted(ftl.rev.refs(ppn))
        try:
            data = ftl._read_page(ppn)
        except UncorrectableReadError:
            continue
        stamps = tuple((lpn, ftl._next_seq()) for lpn in refs
                       if lpn not in inflight)
        try:
            new_ppn = ftl._program_data(data, stamps, for_gc=True)
        except (MediaError, OutOfSpaceError):
            continue
        ftl.rev.move_page(ppn, new_ppn, refs)
        ftl._valid_count[block] -= 1
        ftl._valid_count[new_ppn // ftl._pages_per_block] += 1
        stamped = {lpn for lpn, __ in stamps}
        for lpn in refs:
            ftl.fwd.update(lpn, new_ppn)
            if lpn in stamped:
                ftl._share_backed.pop(lpn, None)
        ftl.stats.copyback_pages += 1
        ftl._note_work("copyback", new_ppn)


# ---------------------------------------------------------------- driver

class Coverage:
    """What the retired blocks held when they retired."""

    def __init__(self):
        self.retirements = 0
        self.with_shadow_page = 0
        self.with_shared_page = 0
        self.with_inflight_lpn = 0


def run(monkeypatch, seed, fault, use_oracle):
    """One seeded run; returns ``(ftl, coverage)``."""
    coverage = Coverage()

    def evacuate_or_oracle(ftl, victim, inflight=frozenset(),
                           tolerant=False):
        if not tolerant:
            return EVACUATE(ftl, victim)
        full = ftl._pages_per_block
        pages = range(victim * full, (victim + 1) * full)
        coverage.retirements += 1
        coverage.with_shadow_page += any(
            ppn in ftl._shadow_owner for ppn in pages)
        coverage.with_shared_page += any(
            len(ftl.rev.refs(ppn)) > 1 for ppn in pages
            if ftl.rev.is_valid(ppn))
        coverage.with_inflight_lpn += any(
            ftl.fwd.lookup(lpn) in pages for lpn in inflight)
        if use_oracle:
            return oracle_evacuate_for_retirement(ftl, victim, inflight)
        return EVACUATE(ftl, victim, inflight, tolerant)

    monkeypatch.setattr(PageMappingFtl, "_evacuate", evacuate_or_oracle)
    faults = FaultPlan()
    faults.media.enable_counting()
    geometry = FlashGeometry(page_size=4096, pages_per_block=16,
                             block_count=76, overprovision_ratio=0.15,
                             channel_count=2)
    ftl = PageMappingFtl(
        NandArray(geometry, faults=faults),
        FtlConfig(map_block_count=8, share_table_entries=8,
                  spare_block_count=10), faults=faults)
    rng = random.Random(seed)
    span = int(ftl.logical_pages * 0.85)
    written = set()
    recent = [0]   # half the traffic revisits these: a failing block then
    #                holds shared pages and old copies of in-flight LPNs
    txn = ftl.begin_txn()
    for index in range(5000):
        if index % 250 == 100 and ftl.spare_blocks():
            counts = faults.media.op_counts
            if fault == "program" and index % 500 == 100:
                # Aimed at a host rewrite of an LPN whose old copy sits
                # in the block the program is about to fail on.
                block = ftl.active_blocks().get(f"host(ch{ftl._host_cursor})")
                lpn = next((lpn for lpn in recent if lpn in written and
                            ftl.fwd.lookup(lpn) // geometry.pages_per_block
                            == block),
                           recent[-1])
                faults.media.arm(ProgramFault(nth=counts["program"] + 1))
                ftl.write(lpn, ("v", lpn, index))
                written.add(lpn)
            elif fault == "program":
                faults.media.arm(ProgramFault(
                    nth=counts["program"] + rng.randrange(1, 30)))
            elif fault == "erase":
                faults.media.arm(EraseFault(nth=counts["erase"] + 1))
            else:   # a page dies for good; GC finds it and retires the block
                faults.media.arm(ReadFault(
                    nth=counts["read"] + rng.randrange(1, 30)))
        roll = rng.random()
        lpn = int(span * rng.random() ** 2)   # skewed: blocks age unevenly
        if rng.random() < 0.5:
            lpn = rng.choice(recent)
        if roll < 0.55 or lpn not in written:
            ftl.write(lpn, ("v", lpn, index))
            written.add(lpn)
            recent = recent[-7:] + [lpn]
        elif roll < 0.75:
            source = rng.choice(recent)
            if source != lpn and source in written:
                ftl.share(lpn, source)
        elif roll < 0.82:
            ftl.trim(lpn)
            written.discard(lpn)
        elif roll < 0.99:
            ftl.write_txn(txn, lpn, ("t", lpn, index))
        else:
            written.update(ftl.txn_lpns(txn))
            ftl.commit_txn(txn)
            txn = ftl.begin_txn()
    ftl.commit_txn(txn)
    return ftl, coverage


# ------------------------------------------------------------ differential

@pytest.mark.parametrize("fault", ["program", "erase", "read"])
@pytest.mark.parametrize("seed", [3, 19])
def test_unified_evacuation_matches_the_retirement_oracle(
        monkeypatch, seed, fault):
    ftl, coverage = run(monkeypatch, seed, fault, use_oracle=False)
    oracle, oracle_coverage = run(monkeypatch, seed, fault, use_oracle=True)
    assert vars(coverage) == vars(oracle_coverage)
    assert coverage.retirements >= 5
    if fault == "program":   # the fault that retires a block still in use
        assert coverage.with_shadow_page
        assert coverage.with_shared_page
        assert coverage.with_inflight_lpn
    assert ftl.fwd.snapshot() == oracle.fwd.snapshot()
    blocks = range(ftl.geometry.block_count)
    assert [ftl.nand.scan_block(block) for block in blocks] == \
        [oracle.nand.scan_block(block) for block in blocks]
    assert vars(ftl.stats) == vars(oracle.stats)
    assert ftl.take_work() == oracle.take_work()
    assert ftl.grown_bad_blocks == oracle.grown_bad_blocks
    ftl.check_invariants()
