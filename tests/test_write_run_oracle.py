"""Differential oracle for the run write path.

``PageMappingFtl.write_run(first_lpn, pages)`` must have exactly the
effect of ``write(first_lpn + i, page)`` for each page in order.  Its
two callers used to be those per-page loops — the fill phase of
``Ssd.age`` and ``Ssd.write_multi`` — and the loops live on here, and
only here, as the reference.

The fence is *the whole device, field for field*: the NAND arrays and
counters, the block table (states, write pointers, valid counts, free
lists, spares), the open-block slots, the host cursor, the sequence
counter, the forward map (both backings), the reverse map, the
log-backed dicts, the work ledgers, ``FtlStats``, the map log, and —
through ``write_multi`` — the device stats, the DRAM cache and the
clock.  Runs cover fresh devices aged at several fill / rewrite
fractions, runs that cross the GC low-water mark, runs over shared,
trimmed and cached LPNs, runs that stop at the logical end, and real
fault plans, one cut at every page of a run at each write point:
there the rounds before the fuse must leave the same checkpoint trace,
hit counts, media operation counts and journal as the loop, and the
page at the fuse must fail where the loop fails.
"""

import cProfile
import random
from array import array
from collections import deque

import pytest

from repro.errors import OutOfSpaceError, PowerFailure
from repro.flash.geometry import FlashGeometry
from repro.flash.timing import FAST_TIMING
from repro.ftl.config import FtlConfig
from repro.ftl.mapping import STRATEGY_NAMES
from repro.sim.clock import SimClock
from repro.sim.faults import FaultPlan, PowerFailAfter
from repro.ssd.device import _AGED_PAGE, Ssd, SsdConfig

CHANNELS = (1, 2, 4)


def make_ssd(channels=4, l2p="flat", faults=None, cache_pages=0,
             share_entries=64, pages_per_block=32, block_count=64):
    geometry = FlashGeometry(page_size=4096, pages_per_block=pages_per_block,
                             block_count=block_count,
                             overprovision_ratio=0.125,
                             channel_count=channels)
    config = SsdConfig(geometry=geometry, timing=FAST_TIMING,
                       ftl=FtlConfig(map_block_count=4,
                                     share_table_entries=share_entries,
                                     l2p_strategy=l2p),
                       dram_cache_pages=cache_pages)
    if faults is None:
        return Ssd(SimClock(), config)
    return Ssd(SimClock(), config, faults=faults)


# ------------------------------------------------------------ reference

def per_page_loop(ftl):
    """Replace ``ftl.write_run`` by the loop it stands for."""
    def write_run(first_lpn, pages):
        for index, page in enumerate(pages):
            ftl.write(first_lpn + index, page)
    ftl.write_run = write_run


def reference_age(ssd, fill_fraction, rewrite_fraction, seed=17):
    """``Ssd.age`` with its fill phase as one ``ftl.write`` per page."""
    rng = random.Random(seed)
    pages = int(ssd.logical_pages * fill_fraction)
    write = ssd.ftl.write
    for lpn in range(pages):
        write(lpn, _AGED_PAGE)
    for __ in range(int(pages * rewrite_fraction)):
        write(rng.randrange(pages), _AGED_PAGE)
    ssd.reset_measurement()


def reference_write_multi(ssd, lpn, pages):
    """``Ssd.write_multi`` with one ``ftl.write`` and one cache insert per
    page, interleaved."""
    def body(op_kind, op, lpn, pages):
        ftl = ssd.ftl
        ftl._check_lpn_range(lpn, len(pages))
        cache = ssd.cache
        for index, page in enumerate(pages):
            ftl.write(lpn + index, page)
            if cache.enabled:
                cache.insert(lpn + index, page)
        ssd.stats.host_write_pages += len(pages)
        ssd.stats.write_commands += 1
        return ssd._issue("write", lpn, len(pages),
                          len(pages) * ssd._program_latency_us,
                          op_kind=op_kind, op_record=op)
    ssd._command(body, "write", "device.write_multi",
                 tuple(range(lpn, lpn + len(pages))), lpn, pages)


# ---------------------------------------------------------------- state

#: Attributes that are configuration, plumbing or shared services, not
#: device state (the clock is compared through ``now_us``).
SKIP = frozenset({"config", "geometry", "_geometry", "faults", "_faults",
                  "telemetry", "_tracer", "timing", "clock", "events"})


def dump(value, seen):
    """Every field reachable from ``value`` as plain, comparable data
    (dict and list order included)."""
    if value is None or isinstance(value, (bool, int, float, str, bytes)):
        return value
    if isinstance(value, bytearray):
        return bytes(value)
    if isinstance(value, array):
        return value.typecode, value.tolist()
    if isinstance(value, (list, tuple, deque)):
        return type(value).__name__, [dump(item, seen) for item in value]
    if isinstance(value, dict):
        return "dict", [(dump(key, seen), dump(item, seen))
                        for key, item in value.items()]
    if isinstance(value, (set, frozenset)):
        return "set", sorted(map(repr, value))
    if id(value) in seen:
        return "seen", type(value).__name__
    seen.add(id(value))
    names = set(getattr(value, "__dict__", ()))
    for klass in type(value).__mro__:
        names.update(getattr(klass, "__slots__", ()))
    fields = [(name, getattr(value, name)) for name in sorted(names - SKIP)
              if hasattr(value, name)]
    # Bound methods (and the reference's patched-in loop) are behaviour.
    return type(value).__name__, [(name, dump(field, seen))
                                  for name, field in fields
                                  if not callable(field)]


def device_state(ssd):
    return ssd.clock.now_us, dump(ssd, set())


def assert_same_state(ssd, ref):
    got, want = device_state(ssd), device_state(ref)
    if got != want:
        # Name the first component that drifted, not a megabyte diff.
        __, (__, got_fields) = got
        __, (__, want_fields) = want
        drift = [name for (name, value), (__, expected)
                 in zip(got_fields, want_fields) if value != expected]
        assert got == want, f"state drifted in {drift or 'the clock'}"
    ssd.ftl.check_invariants()


def aged_pair(channels, l2p, fill, rewrite, **kwargs):
    ssd, ref = make_ssd(channels, l2p, **kwargs), make_ssd(channels, l2p,
                                                          **kwargs)
    ssd.age(fill, rewrite)
    reference_age(ref, fill, rewrite)
    return ssd, ref


# ------------------------------------------------------------------ age

@pytest.mark.parametrize("l2p", STRATEGY_NAMES)
@pytest.mark.parametrize("channels", CHANNELS)
@pytest.mark.parametrize("fill, rewrite", [
    (0.0, 0.0), (0.3, 0.0), (0.35, 0.2), (0.85, 0.1), (1.0, 0.0),
    (0.95, 1.0)])
def test_age_matches_the_per_page_fill(channels, l2p, fill, rewrite):
    ssd, ref = aged_pair(channels, l2p, fill, rewrite)
    assert_same_state(ssd, ref)


@pytest.mark.parametrize("channels", CHANNELS)
def test_age_of_a_device_with_history(channels):
    """Aging a device whose cursor and open blocks are mid-rotation and
    whose LPNs are already mapped (so the run drops old references)."""
    ssd, ref = make_ssd(channels), make_ssd(channels)
    for device in (ssd, ref):
        for lpn in (5, 3, 900, 4, 17):
            device.write(lpn, ("pre", lpn))
    ssd.age(0.6, 0.3)
    reference_age(ref, 0.6, 0.3)
    assert_same_state(ssd, ref)


# ------------------------------------------------------- crossing into GC

@pytest.mark.parametrize("l2p", STRATEGY_NAMES)
@pytest.mark.parametrize("channels", CHANNELS)
def test_runs_that_cross_the_gc_low_water_mark(channels, l2p):
    ssd, ref = aged_pair(channels, l2p, 0.9, 0.5, block_count=128)
    per_page_loop(ref.ftl)
    rng = random.Random(channels)
    logical = ssd.logical_pages
    gc_before = ssd.ftl.stats.gc_events
    for step in range(6):
        start = rng.randrange(logical // 4)
        length = logical - start - rng.randrange(logical // 8)
        pages = [("run", step, index) for index in range(length)]
        ssd.ftl.write_run(start, pages)
        ref.ftl.write_run(start, pages)
        assert_same_state(ssd, ref)
    assert ssd.ftl.stats.gc_events > gc_before, "no run reached GC"


@pytest.mark.parametrize("channels", CHANNELS)
def test_a_run_past_the_logical_end_stops_where_the_loop_stops(channels):
    ssd, ref = aged_pair(channels, "flat", 0.5, 0.0)
    per_page_loop(ref.ftl)
    logical = ssd.logical_pages
    pages = [("tail", index) for index in range(64)]
    for device in (ssd, ref):
        with pytest.raises(ValueError):
            device.ftl.write_run(logical - 40, pages)
    assert_same_state(ssd, ref)
    for device in (ssd, ref):
        with pytest.raises(ValueError):
            device.ftl.write_run(logical + 3, pages)
        with pytest.raises(ValueError):
            device.ftl.write_run(-2, pages)
    assert_same_state(ssd, ref)


# ------------------------------------------------------------ write_multi

@pytest.mark.parametrize("l2p", STRATEGY_NAMES)
@pytest.mark.parametrize("channels", CHANNELS)
@pytest.mark.parametrize("cache_pages", [0, 48])
def test_write_multi_over_shared_trimmed_and_cached_lpns(channels, l2p,
                                                         cache_pages):
    """Seeded mixes of writes, SHAREs (with a share table small enough
    to spill), TRIMs, reads and multi-page writes of every length."""
    ssd, ref = aged_pair(channels, l2p, 0.7, 0.2, cache_pages=cache_pages,
                         share_entries=8)
    rng = random.Random(channels * 10 + cache_pages)
    span = int(ssd.logical_pages * 0.85)
    for step in range(160):
        roll = rng.random()
        # Half the commands land in a hot range the cache can hold.
        lpn = rng.randrange(span if rng.random() < 0.5 else 64)
        if roll < 0.35:
            length = rng.choice((1, 2, channels, channels + 1,
                                 3 * channels, 40, 97))
            length = min(length, ssd.logical_pages - lpn)
            pages = [("m", step, index) for index in range(length)]
            ssd.write_multi(lpn, pages)
            reference_write_multi(ref, lpn, pages)
            for device in (ssd, ref):
                device.read(lpn + length - 1)   # a hit when cached
            continue
        source = rng.randrange(span)
        for device in (ssd, ref):
            if roll < 0.55:
                if source != lpn and device.ftl.is_mapped(source):
                    device.share(lpn, source)
                else:
                    device.write(lpn, ("w", step))
            elif roll < 0.7:
                device.trim(lpn, 1 + step % 5)
            elif roll < 0.85:
                if device.ftl.is_mapped(lpn):
                    device.read(lpn)
            else:
                device.write(lpn, ("w", step))
    assert ssd.ftl.rev.shared_pages() or ssd.ftl.stats.share_pairs
    assert ssd.ftl.stats.trim_pages
    if cache_pages:
        assert ssd.cache.hits
    assert_same_state(ssd, ref)


@pytest.mark.parametrize("channels", (2, 4))
def test_a_write_multi_that_runs_out_of_space_caches_what_it_wrote(
        channels):
    """A second full pass over a small device's whole logical space
    leaves GC no victim part-way through a command: the pages written
    before the error are cached, as per-page inserts cached them."""
    ssd, ref = aged_pair(channels, "flat", 0.8, 0.5, cache_pages=48,
                         block_count=48)
    stopped = []
    for device, write_multi in ((ssd, Ssd.write_multi),
                                (ref, reference_write_multi)):
        logical = device.logical_pages
        stats = device.ftl.stats
        with pytest.raises(OutOfSpaceError):
            for step in range(2):
                for lpn in range(0, logical, 97):
                    before = stats.host_page_writes
                    write_multi(device, lpn, [("o", step, index) for index
                                              in range(min(97, logical - lpn))])
        stopped.append((step, lpn, stats.host_page_writes - before))
    assert stopped[0] == stopped[1]
    assert 0 < stopped[0][2] < 97, "the error fell between two commands"
    assert_same_state(ssd, ref)


# ------------------------------------------------------ a real FaultPlan

def traced_plan():
    plan = FaultPlan()
    plan.enable_trace()
    plan.media.enable_counting()
    return plan


def fault_run(ssd, age, write_multi, cut_at):
    """Age, then multi-page writes with a power cut armed on the
    ``cut_at``-th post-program checkpoint from there."""
    age(ssd, 0.6, 0.2)
    ssd.faults.arm(PowerFailAfter("ftl.after_program", cut_at))
    rng = random.Random(cut_at)
    crashed = False
    for step in range(30):
        lpn = rng.randrange(ssd.logical_pages - 20)
        pages = [("f", step, index) for index in range(1 + step % 13)]
        try:
            write_multi(ssd, lpn, pages)
        except PowerFailure:
            crashed = True
            ssd.power_cycle()
    return crashed


@pytest.mark.parametrize("channels", (1, 4))
@pytest.mark.parametrize("cut_at", (7, 90))
def test_a_real_fault_plan_keeps_the_per_page_journal(channels, cut_at):
    ssd = make_ssd(channels, faults=traced_plan(), cache_pages=32)
    ref = make_ssd(channels, faults=traced_plan(), cache_pages=32)
    assert fault_run(ssd, Ssd.age, Ssd.write_multi, cut_at)
    assert fault_run(ref, reference_age, reference_write_multi, cut_at)
    assert "ftl.write.ack" in ssd.faults.trace
    assert ssd.faults.trace == ref.faults.trace
    assert ssd.faults.media.op_counts == ref.faults.media.op_counts
    assert [repr(op) for op in ssd.faults.unacked_ops()] == \
        [repr(op) for op in ref.faults.unacked_ops()]
    assert_same_state(ssd, ref)


#: The power checkpoints one ``ftl.write`` passes, in order.
WRITE_POINTS = ("ftl.before_program", "ftl.after_program", "ftl.write.ack")


def rounds_taken(ftl):
    """Count ``ftl._write_rounds`` calls in the returned list."""
    calls = []
    write_rounds = ftl._write_rounds

    def counted(*args):
        calls.append(args[-1])
        return write_rounds(*args)
    ftl._write_rounds = counted
    return calls


@pytest.mark.parametrize("make_plan", (traced_plan, FaultPlan),
                         ids=("traced", "bare"))
@pytest.mark.parametrize("channels", (1, 4))
def test_a_power_cut_at_every_page_of_a_run_matches_the_loop(channels,
                                                             make_plan):
    """A fuse at each write point, on each page of a run: the pages
    before it go as rotation rounds, the page at it fails where the loop
    fails, and the plan's hits, trace, media counts and journal, the
    device and its recovery all match the loop — for a ``write_multi``
    (whose ``ftl.write`` scopes nest in the command's) and for a bare
    ``ftl.write_run`` (where each page journals its own operation)."""
    length = 3 * channels + 2
    placed = 0
    for nested in (True, False):
        for point in WRITE_POINTS:
            for nth in range(1, length + 1):
                ssd = make_ssd(channels, faults=make_plan(), block_count=32)
                ref = make_ssd(channels, faults=make_plan(), block_count=32)
                ssd.age(0.5, 0.0)
                reference_age(ref, 0.5, 0.0)
                per_page_loop(ref.ftl)
                rounds = rounds_taken(ssd.ftl)
                pages = [("cut", point, nth, index)
                         for index in range(length)]
                for device, write_multi in ((ssd, Ssd.write_multi),
                                            (ref, reference_write_multi)):
                    device.faults.arm(PowerFailAfter(point, nth))
                    with pytest.raises(PowerFailure):
                        if nested:
                            write_multi(device, 40, pages)
                        else:
                            device.ftl.write_run(40, pages)
                placed += sum(rounds)
                plans = ssd.faults, ref.faults
                assert plans[0].trace == plans[1].trace
                assert plans[0].media.op_counts == plans[1].media.op_counts
                assert [plans[0].hits(each) for each in WRITE_POINTS] == \
                    [plans[1].hits(each) for each in WRITE_POINTS]
                assert [repr(op) for op in plans[0].unacked_ops()] == \
                    [repr(op) for op in plans[1].unacked_ops()]
                assert_same_state(ssd, ref)
                for device in (ssd, ref):
                    device.power_cycle()
                assert_same_state(ssd, ref)
    assert placed, "no page of a cut run went as a round"


# --------------------------------------------------------- the call fence

#: Calls (builtins included) the fill phase of ``age(0.85, 0.0)`` may
#: cost per data block of the 4-channel device below (128 pages a block,
#: 196 data blocks, 18 659 pages filled).  Measured on CPython 3.11:
#: 14.14 per block (2 771 calls in all) with whole rotation rounds
#: placed a block at a time, each page that opens a block going through
#: ``write`` (13.36 when those pages skipped that hop); 763.3 per block
#: (149 610 calls, 8.02 per page) when the fill was one ``ftl.write`` per
#: page.  The budget is the first measurement + ~10 %; a return to
#: per-page work fails it by 50 x.
CALLS_PER_DATA_BLOCK_BUDGET = 14.7
DATA_BLOCKS = 196


def test_aging_fill_costs_calls_per_block_not_per_page():
    ssd = make_ssd(4, pages_per_block=128, block_count=DATA_BLOCKS + 4)
    profile = cProfile.Profile(builtins=True)
    profile.enable()
    try:
        ssd.age(0.85, 0.0)
    finally:
        profile.disable()
    calls = sum(entry.callcount for entry in profile.getstats())
    pages = int(ssd.logical_pages * 0.85)
    assert pages > 90 * DATA_BLOCKS
    assert calls <= CALLS_PER_DATA_BLOCK_BUDGET * DATA_BLOCKS, (
        f"{calls} calls to age {pages} pages on {DATA_BLOCKS} blocks")
    ssd.ftl.check_invariants()
