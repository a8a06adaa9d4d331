"""Differential oracle for GC's copyback runs.

With no media fault armed ``PageMappingFtl._evacuate`` moves a GC victim's
live pages as copyback runs (``_copyback_runs``): one NAND copyback run,
one reverse-map run and one ledger extend per chunk of the open GC
block.  Its effect must be exactly the per-page loop it replaced, which
lives on here, and only here, as the reference (``reference_evacuate``,
patched onto the reference device's FTL).

The fence is the whole device, field for field
(``test_write_run_oracle.device_state``: NAND arrays, overflow and
counters, reverse map, L2P, block table, ``_seq``, ``_share_backed``,
``FtlStats``, map log, device stats and clock) plus every drained work
ledger, in order.  Runs cover both L2P backings on 1, 2 and 4 channels,
shared pages that spill, TRIMs, wear-level moves, ``idle_gc``, a victim
whose pages cross into a fresh GC block, a GC block that finds no free
block to open, plans that only count media operations or hold a power
fuse (the runs serve them, and their counts and trace match), and a
plan with a media fault armed (the per-page loop runs, and the NAND run
refuses).
"""

import cProfile
import random
import types
from itertools import count as count_from

import pytest

from repro.errors import (MediaError, OutOfSpaceError, PowerFailure,
                          ProgramError, ReadError)
from repro.flash.geometry import FlashGeometry
from repro.flash.timing import FAST_TIMING
from repro.ftl.blocks import BAD, CLOSED, FREE, OPEN, BlockTable
from repro.ftl.config import FtlConfig
from repro.ftl.mapping import STRATEGY_NAMES
from repro.sim.clock import SimClock
from repro.sim.faults import FaultPlan, PowerFailAfter, ReadFault
from repro.ssd.device import Ssd, SsdConfig

from test_write_run_oracle import assert_same_state

CHANNELS = (1, 2, 4)


def make_ssd(channels=4, l2p="flat", faults=None, share_entries=8,
             pages_per_block=32, block_count=64, **ftl):
    geometry = FlashGeometry(page_size=4096, pages_per_block=pages_per_block,
                             block_count=block_count,
                             overprovision_ratio=0.125,
                             channel_count=channels)
    config = SsdConfig(geometry=geometry, timing=FAST_TIMING,
                       ftl=FtlConfig(map_block_count=4,
                                     share_table_entries=share_entries,
                                     l2p_strategy=l2p, **ftl))
    ssd = (Ssd(SimClock(), config) if faults is None
           else Ssd(SimClock(), config, faults=faults))
    record_ledgers(ssd)
    return ssd


def record_ledgers(ssd):
    """Keep every ledger the device drains, in order, on ``ssd.ledgers``."""
    ledgers = ssd.ledgers = []
    ftl = ssd.ftl
    take_work = ftl.take_work

    def recording_take_work():
        work = take_work()
        ledgers.append(list(work))
        return work
    ftl.take_work = recording_take_work


# ------------------------------------------------------------ reference

def reference_evacuate(self, victim, inflight=frozenset(), tolerant=False):
    """The per-page ``_evacuate`` loop, as it was before copyback runs."""
    full = self._pages_per_block
    channels = self._channel_count
    start = victim * full
    ppns, lpns, shared = self.rev.live_pages(
        start, start + self._write_ptr[victim])
    live = [(ppn, *shared[ppn]) if ppn in shared else (ppn, [lpn], False)
            for ppn, lpn in zip(ppns, lpns)]
    shadow = self._shadow_owner
    if shadow:
        live = sorted(live + [(ppn, None, False)
                              for ppn in range(start, start + full)
                              if ppn in shadow])
    stats = self.stats
    work = self.work
    valid = self._valid_count
    share_backed = self._share_backed
    fwd_update = self.fwd.update
    move_page = self.rev.move_page
    for ppn, refs, spilled in live:
        try:
            if refs is None:
                self._move_shadow_page(ppn)
                continue
            if spilled and not tolerant:
                stats.spill_lookups += 1
                work.append(("spill_lookup", victim % channels))
            data = self._read_page(ppn)
            if not inflight and len(refs) == 1:
                seq = self._seq
                self._seq = seq + 1
                new_ppn = self._program_data(data, None, True, refs[0], seq)
            else:
                stamped = ([lpn for lpn in refs if lpn not in inflight]
                           if inflight else refs)
                stamps = tuple(zip(stamped, count_from(self._seq)))
                self._seq += len(stamps)
                new_ppn = self._program_data(data, stamps, True)
        except (MediaError, OutOfSpaceError):
            if not tolerant:
                raise
            continue
        move_page(ppn, new_ppn, refs)
        valid[victim] -= 1
        valid[new_ppn // full] += 1
        for lpn in refs:
            fwd_update(lpn, new_ppn)
            if lpn in share_backed and lpn not in inflight:
                del share_backed[lpn]
        stats.copyback_pages += 1
        work.append(("copyback", new_ppn // full % channels))


def per_page_gc(ftl):
    ftl._evacuate = types.MethodType(reference_evacuate, ftl)


def pair(channels=4, l2p="flat", **kwargs):
    ssd, ref = make_ssd(channels, l2p, **kwargs), make_ssd(channels, l2p,
                                                          **kwargs)
    per_page_gc(ref.ftl)
    return ssd, ref


def assert_same_device(ssd, ref):
    assert ssd.ledgers == ref.ledgers, "a work ledger drifted"
    assert_same_state(ssd, ref)


def drive(devices, steps, seed, span_fraction=0.85, idle_every=0,
          shares=True):
    """Seeded writes, SHAREs (writes when ``shares`` is off), TRIMs and
    reads, the same on every device; returns the blocks ``idle_gc``
    reclaimed on the first."""
    rng = random.Random(seed)
    reclaimed = 0
    span = int(devices[0].logical_pages * span_fraction)
    live = set()
    for step in range(steps):
        roll = rng.random()
        lpn = int(span * rng.random() ** 2)   # skewed: blocks age unevenly
        source = rng.randrange(span)
        for device in devices:
            if roll < 0.55 or lpn not in live or (
                    roll < 0.75 and not shares):
                device.write(lpn, ("w", step, lpn))
            elif roll < 0.75:
                if source != lpn and source in live:
                    device.share(lpn, source)
            elif roll < 0.82:
                device.trim(lpn, 1 + step % 3)
            else:
                device.read(lpn)
            if idle_every and step % idle_every == idle_every - 1:
                idle = device.idle_gc(2, 0.3)
                if device is devices[0]:
                    reclaimed += idle
        if roll < 0.55 or lpn not in live:
            live.add(lpn)
        elif 0.75 <= roll < 0.82:
            live.difference_update(range(lpn, lpn + 1 + step % 3))
    return reclaimed


# --------------------------------------------------------- GC-bound runs

@pytest.mark.parametrize("l2p", STRATEGY_NAMES)
@pytest.mark.parametrize("channels", CHANNELS)
def test_gc_bound_runs_with_share_and_trim_match_the_per_page_loop(
        channels, l2p):
    ssd, ref = pair(channels, l2p)
    drive((ssd, ref), 6000, seed=channels)
    stats = ssd.ftl.stats
    assert stats.gc_events > 50 and stats.copyback_pages > 500
    assert stats.spill_lookups, "no spilled page was moved"
    assert ssd.ftl.rev.shared_pages()
    assert_same_device(ssd, ref)


@pytest.mark.parametrize("channels", CHANNELS)
def test_idle_gc_and_wear_level_moves_match_the_per_page_loop(channels):
    ssd, ref = pair(channels, wear_delta_threshold=2)
    assert drive((ssd, ref), 5000, seed=10 + channels, idle_every=150)
    assert ssd.ftl.stats.wear_level_moves, "no wear-level move"
    assert_same_device(ssd, ref)


def test_a_victim_whose_pages_cross_into_a_fresh_gc_block():
    ssd, ref = pair(2)
    crossings = []
    runs = ssd.ftl._copyback_runs

    def watched(victim, ppns, lpns, shared):
        ftl = ssd.ftl
        block = ftl._active_gc
        room = 0 if block is None else (ftl._pages_per_block
                                        - ftl._write_ptr[block])
        if 0 < room < len(ppns):
            crossings.append((victim, room, len(ppns), len(shared)))
        return runs(victim, ppns, lpns, shared)
    ssd.ftl._copyback_runs = watched
    drive((ssd, ref), 3000, seed=5)
    assert crossings, "no victim crossed into a fresh GC block"
    assert_same_device(ssd, ref)


def test_a_gc_block_that_finds_no_free_block_stops_where_the_loop_stops():
    """With the free pool drained, a victim whose live pages overflow the
    open GC block raises at the page that finds no block to open, and
    every page before it has moved — on both paths."""
    ssd, ref = pair(1)
    drive((ssd, ref), 2500, seed=3)
    outcomes = []
    for device in (ssd, ref):
        ftl = device.ftl
        blocks = ftl._blocks
        while blocks.free_count:
            blocks.open(0, None)
        room = ftl._pages_per_block - ftl._write_ptr[ftl._active_gc]
        victim = min(block for block, state in enumerate(blocks.state)
                     if state == CLOSED and ftl._valid_count[block] > room)
        with pytest.raises(OutOfSpaceError):
            ftl._reclaim_block(victim, is_gc_event=True)
        outcomes.append((ftl.stats.copyback_pages, ftl._seq))
    assert outcomes[0] == outcomes[1]
    assert_same_state(ssd, ref)


# ------------------------------------------------------ a real FaultPlan

def runs_taken(ssd):
    """Count ``_copyback_runs`` calls on ``ssd``'s FTL in the returned
    list."""
    calls = []
    runs = ssd.ftl._copyback_runs

    def counted(*args):
        calls.append(args[0])
        return runs(*args)
    ssd.ftl._copyback_runs = counted
    return calls


def counting_plan():
    plan = FaultPlan()
    plan.media.enable_counting()
    return plan


def power_plan():
    """Trace every checkpoint; cut power at the 2 000th host program."""
    plan = FaultPlan()
    plan.enable_trace()
    plan.arm(PowerFailAfter("ftl.after_program", 2000))
    return plan


@pytest.mark.parametrize("make_plan", (counting_plan, power_plan))
@pytest.mark.parametrize("channels", (1, 4))
def test_a_real_plan_with_no_media_fault_armed_takes_copyback_runs(
        channels, make_plan):
    """GC passes no power checkpoint, so a plan that counts media
    operations or holds a power fuse moves victims as copyback runs:
    the device, its ledgers, the media counts and the trace match the
    per-page loop up to the cut, through recovery, and after it."""
    ssd = make_ssd(channels, faults=make_plan())
    ref = make_ssd(channels, faults=make_plan())
    per_page_gc(ref.ftl)
    runs = runs_taken(ssd)
    cut = []
    for device in (ssd, ref):   # one at a time: the cut ends the drive
        try:
            drive((device,), 3000, seed=channels)
        except PowerFailure:
            cut.append(device.ftl.stats.host_page_writes)
    assert runs and ssd.ftl.stats.gc_events
    assert cut == ([] if make_plan is counting_plan else [1999, 1999])
    plans = ssd.faults, ref.faults
    assert plans[0].trace == plans[1].trace
    assert plans[0].media.op_counts == plans[1].media.op_counts
    assert_same_device(ssd, ref)
    if cut:
        for device in (ssd, ref):
            device.power_cycle()
            record_ledgers(device)
        per_page_gc(ref.ftl)
        runs = runs_taken(ssd)
        assert_same_device(ssd, ref)
        drive((ssd, ref), 1500, seed=channels + 10)
        assert runs, "no victim after recovery took the run path"
        assert plans[0].trace == plans[1].trace
        assert_same_device(ssd, ref)


def test_an_armed_media_fault_takes_the_per_page_loop():
    """While a media fault is armed every victim takes the per-page
    loop; once the fault has cleared (a read retried past it), runs
    serve again."""
    plans = [counting_plan(), counting_plan()]
    ssd = make_ssd(2, faults=plans[0])
    ref = make_ssd(2, faults=plans[1])
    per_page_gc(ref.ftl)
    drive((ssd, ref), 1500, seed=8)
    for plan in plans:
        plan.media.arm(ReadFault(nth=plan.media.op_counts["read"] + 400,
                                 retries_to_clear=2))
    ftl = ssd.ftl
    victims, runs = [], []   # per call: was a media fault armed?
    for name, seen in (("_evacuate", victims), ("_copyback_runs", runs)):
        def watched(*args, real=getattr(ftl, name), seen=seen, **kwargs):
            seen.append(bool(plans[0].media.armed()))
            return real(*args, **kwargs)
        setattr(ftl, name, watched)
    drive((ssd, ref), 2500, seed=9)
    assert ftl.stats.read_retries and not plans[0].media.armed()
    assert any(victims), "no victim was moved while the fault was armed"
    assert runs and not any(runs), "a run was taken with a fault armed"
    assert plans[0].media.op_counts == plans[1].media.op_counts
    assert_same_device(ssd, ref)

    # The run primitive itself refuses while a media fault is armed.
    nand = ssd.nand
    plans[0].media.arm(ReadFault(nth=10 ** 9))   # armed, never due
    victim = ssd.ftl._blocks.pick_victim()
    source = victim * ssd.ftl._pages_per_block
    target = ssd.ftl._blocks.free_blocks()[0] * ssd.ftl._pages_per_block
    with pytest.raises(ProgramError):
        nand.copyback_run(target, [source], [0], [1], {})


def test_the_run_refuses_an_unreadable_source_before_changing_anything():
    ssd = make_ssd(1)
    drive((ssd,), 1200, seed=4)
    ftl = ssd.ftl
    nand = ssd.nand
    victim = ftl._blocks.pick_victim()
    sources = [victim * ftl._pages_per_block + offset for offset in (0, 1)]
    nand._state[sources[1]] = 2   # failed during program
    target = ftl._blocks.free_blocks()[0] * ftl._pages_per_block
    reads = nand.total_reads
    with pytest.raises(ReadError):
        nand.copyback_run(target, sources, [0, 1], [1, 2], {})
    assert nand.total_reads == reads and not nand._state[target]


# ------------------------------------------------ the wear check's exit

def reference_pick_coldest(table, erase_counts, threshold):
    """``BlockTable.pick_coldest`` as it was: a pass over the states on
    every call."""
    wear = [erases for erases, state in zip(erase_counts, table.state)
            if state == CLOSED]
    if len(wear) < 2:
        return None
    coldest = min(wear)
    if max(wear) - coldest < threshold:
        return None
    return next(block for block, state in enumerate(table.state)
                if state == CLOSED and erase_counts[block] == coldest)


def test_the_wear_check_answers_as_the_full_pass_does():
    """Seeded erase counts and states, spreads below, at and above the
    threshold (map blocks past the data blocks wear too)."""
    rng = random.Random(45)
    table = BlockTable(24, 8, 4)
    answers = set()
    for trial in range(3000):
        table.state[:] = [rng.choice((FREE, OPEN, CLOSED, CLOSED, BAD))
                          for __ in range(24)]
        low = rng.randrange(50)
        erase_counts = [low + rng.randrange(rng.choice((1, 3, 6)))
                        for __ in range(28)]
        threshold = rng.randrange(1, 6)
        got = table.pick_coldest(erase_counts, threshold)
        assert got == reference_pick_coldest(table, erase_counts, threshold)
        answers.add(got is None)
    assert answers == {True, False}


# --------------------------------------------------------- the call fence

#: Calls (builtins included) reclaiming one GC victim may cost: a fixed
#: part (the reverse-map scan, the erase, the block's release) plus a
#: part per copyback chunk (a NAND run, a reverse-map run and their
#: builtins), on a 4-channel device of 128-page blocks with no shared
#: page.  Measured on CPython 3.11: 36 calls for a 52-page victim in two
#: chunks; the per-page loop paid 487 (~9.4 per page).  A shared page
#: adds a ``move_page`` and a few builtins, so the fence leaves it out.
CALLS_PER_VICTIM_FIXED = 20
CALLS_PER_CHUNK = 14


def test_one_victim_costs_calls_per_chunk_not_per_page():
    ssd = make_ssd(4, pages_per_block=128, block_count=68)
    drive((ssd,), 16000, seed=21, shares=False)
    ftl = ssd.ftl
    assert ftl.stats.gc_events and not ftl.rev.shared_pages()
    victim = ftl._blocks.pick_victim()
    live = ftl._valid_count[victim]
    room = ftl._pages_per_block - ftl._write_ptr[ftl._active_gc]
    chunks = 1 if live <= (room or ftl._pages_per_block) else 2
    assert live > 30, "the victim holds too few pages to tell"
    profile = cProfile.Profile(builtins=True)
    profile.enable()
    try:
        ftl._reclaim_block(victim, is_gc_event=True)
    finally:
        profile.disable()
    calls = sum(entry.callcount for entry in profile.getstats())
    assert calls <= CALLS_PER_VICTIM_FIXED + CALLS_PER_CHUNK * chunks, (
        f"{calls} calls to move {live} pages in {chunks} chunk(s)")
    ftl.check_invariants()
