"""Deterministic cost gates for the passive hot paths.

Counts calls (Python and C, as ``perfbench``'s count pass does) with
telemetry off and no fault plan — the passive configuration every
benchmark runs.  Call counts repeat exactly for a given interpreter, so
a regression here is a diff, not a judgement call (ROADMAP item 1(b)),
and it shows in seconds instead of a ``perfbench`` run.

The device cell runs a few thousand seeded commands on a small GC-bound
device.  Three assertions: calls per command stay under a committed
budget; not one call lands in ``repro/obs`` (telemetry off must mean
*skipped*, not "sent to a null object"); and no ``property`` of the
fault plan, the clock or the trace rings is evaluated (those are plain
attributes, resolved once).  The same mix then prices each telemetry
tier: ``Telemetry(mode="off")`` costs exactly the passive count, and
``sampled`` / ``full`` stay within committed multiples of it (1.10 x and
1.55 x) and under absolute ceilings — the cost of looking as a count,
not a wall-clock reading.

The SHARE cell prices one remapped pair of a couch-style commit through
the host ioctl (a count per pair, and again nothing in ``repro/obs``).

The engine cell runs seeded LinkBench transactions on a small InnoDB
SHARE stack and holds the probe / miss / commit path to the same three
rules, plus: no fault checkpoint per transaction.

The couchstore cell prices one YCSB-F read-modify-write on a SHARE store
and holds the device to the command stream (and the clock) the same ops
produced before the engine's hot path was straightened.

The router cell prices one LinkBench operation issued as KV calls through
a replicated quorum-write cluster, with the same two extra rules: nothing
in ``repro/obs``, and every device sees the command stream (and the
clock) the same ops produced before the router's hot path was
straightened.  It also bounds ring lookups per op, so a get or delete of
a key no shard holds stays answered before routing.
"""

import cProfile
import os
import random

import repro
from repro.cluster.hashring import HashRing
from repro.flash.geometry import FlashGeometry
from repro.flash.timing import FAST_TIMING
from repro.ftl.config import FtlConfig
from repro.host import file as host_file
from repro.innodb import buffer_pool as innodb_buffer_pool
from repro.innodb import redo as innodb_redo
from repro.obs import Telemetry
from repro.sim import clock as sim_clock
from repro.sim import faults as sim_faults
from repro.sim.clock import SimClock
from repro.ssd import trace as ssd_trace
from repro.ssd.device import Ssd, SsdConfig

from conftest import small_linkbench_stack

#: Calls per command the mix below may cost.  Measured 29.27 on CPython
#: 3.11 (29.27 on 3.9, 28.77 on 3.12) once a GC victim's live pages
#: moved as copyback runs, one NAND run and one reverse-map run per
#: chunk of the open GC block instead of ~10 calls per page, and a wear
#: check with the erase-count spread below its threshold stopped
#: scanning the closed blocks (31.73 before); 31.73
#: when a synchronous command began completing in line, a passive
#: completion stopped carrying a ticket and ``_issue`` began reading a
#: one-entry ledger in place (35.61 before, when every command built a
#: ``CommandTicket``, took the ledger through ``take_work`` and waited
#: through a heap push and ``run_until``); 35.61
#: when a departing primary's replacement became the lowest extra
#: LPN and a shared page one dict of its extras (35.99 before, with a
#: reference set kept for a page's whole life beside a ``(ppn, lpn)``
#: table and spill buckets); 36.19 when committed (41.89 on the commit
#: before, when a read or write
#: asked the FTL's per-page helpers and the flat L2P map's ``len`` what
#: they already knew and a one-entry ledger went through
#: ``_price_media``; 42.06 when a SHARE batch
#: read the L2P split count before and after itself for a pushed counter;
#: 45.49 when SHARE and TRIM did
#: their bookkeeping pair by pair; 48.15 when the reverse map kept a
#: set and two dict entries per physical page; 55.09 when a completion
#: went through a per-device in-flight heap and a scheduled drain event
#: as well as the scheduler's heap; 98.7 before the FTL owned its block
#: state); the slack covers interpreter versions.
#: Raise it only with a reason in the commit message.
CALLS_PER_COMMAND_BUDGET = 30.7

#: Calls per command the same mix may cost with live telemetry (default
#: sink, no snapshots), as a ratio of the passive count and as an
#: absolute ceiling.  Measured on CPython 3.11 against 29.27 passive
#: once a sampled-out root cost two calls (``Tracer.sample_out`` and
#: ``Tracer.resume``, taken by the device's root sites before any span)
#: instead of three (``Tracer.span`` and its marker's ``__enter__`` /
#: ``__exit__``): sampled 31.47 (1.075 x), full 42.44 (1.450 x); the
#: cheaper GC alone would have made sampled 1.102 x, over its ratio
#: (3.9: 1.075 x / 1.450 x; 3.12: 1.077 x / 1.458 x against 28.77).
#: Against 31.73 passive
#: once ``Tracer.current`` became a plain attribute, a span's record was
#: built in ``Tracer.finish`` (no ``to_record`` / ``duration_us`` hop,
#: no ``list.pop``), the device wrote its command attributes straight
#: into the open span's dict and computed the queue wait inline (no
#: ``CommandTicket.wait_us`` property and ``max``): sampled 34.88
#: (1.099 x), full 44.90 (1.415 x) — 34.96 and 49.93 without those, the
#: cheaper passive path having raised both ratios.  Against 35.61 passive
#: once the map log's records-per-commit histogram followed the root
#: decision like the other per-command histograms: sampled 38.86
#: (1.091 x), full 54.89 (1.541 x) — 39.57 (1.100 x) and 55.27 against
#: 35.99 passive before, when that histogram recorded every commit of a
#: sampled-out command too.  When committed, against 36.19 passive:
#: sampled 39.77 (1.099 x; 3.2 of them in functions defined under
#: ``repro/obs``), full 55.47 (1.533 x; 12.4 under ``repro/obs``) — 45.62
#: and 63.43 against 41.89 passive on the commit before, when a
#: histogram sample asked ``len`` of its reservoir;
#: 51.84 and 67.62 before that, when a second
#: 1-in-N countdown gated the histograms beside the tracer's root
#: decision, a passive fault plan still opened its operation scope on
#: the traced path, and every completion called ``maybe_snapshot``;
#: 60.03 and 99.06 before that, when every counter and gauge was pushed
#: per command.  The absolute ceilings are the 34.88 / 44.90
#: measurements + ~5 % (47.9 / 66.6, the 45.62 / 63.43 measurements
#: + ~5 %, before).
#:
#: What ``sampled`` pays per command now: the root decision itself —
#: ``sample_out`` on every device root and ``resume`` after a
#: sampled-out one (~2 calls) — plus, for the 1-in-N
#: commands it keeps, the span, its attributes and its histogram
#: ``record`` calls.  Everything else tests ``Tracer.recording``, a plain
#: attribute, and the snapshot tick is a compare against a due time.
TIER_CALLS_PER_COMMAND_RATIO = {"sampled": 1.10, "full": 1.55}
TIER_CALLS_PER_COMMAND_CEILING = {"sampled": 36.6, "full": 47.2}

COMMANDS = 4000
SRC_ROOT = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep
OBS_ROOT = os.path.join(SRC_ROOT, "obs") + os.sep


def make_device(telemetry=None, channel_count=4, dram_cache_pages=64,
                queue_depth=4):
    geometry = FlashGeometry(page_size=4096, pages_per_block=32,
                             block_count=64, overprovision_ratio=0.125,
                             channel_count=channel_count)
    return Ssd(SimClock(), SsdConfig(
        geometry=geometry, timing=FAST_TIMING,
        ftl=FtlConfig(map_block_count=4, share_table_entries=32),
        dram_cache_pages=dram_cache_pages, queue_depth=queue_depth),
        telemetry=telemetry)


def plan_commands(ssd, rng, count):
    """``count`` seeded commands — 50 % read, 35 % write, 10 % share,
    5 % trim over 85 % of the logical space — drawn before the profiled
    region so the generator's own calls are not counted."""
    span = int(ssd.logical_pages * 0.85)
    return [(rng.random(), rng.randrange(span), rng.randrange(span))
            for __ in range(count)]


def run_commands(ssd, plan, live):
    for index, (roll, lpn, source) in enumerate(plan):
        if lpn not in live or 0.50 <= roll < 0.85:
            ssd.write(lpn, ("v", lpn, index))
            live.add(lpn)
        elif roll < 0.50:
            ssd.read(lpn)
        elif roll < 0.95:
            if source != lpn and source in live:
                ssd.share(lpn, source)
        else:
            ssd.trim(lpn)
            live.discard(lpn)


def profile_commands(telemetry=None):
    ssd = make_device(telemetry)
    rng = random.Random(15)
    live = set()
    # Fill, then reach GC steady state, before anything is counted.
    run_commands(ssd, plan_commands(ssd, rng, 3000), live)
    plan = plan_commands(ssd, rng, COMMANDS)
    before = ssd.stats.gc_events
    profile = cProfile.Profile(builtins=True)
    profile.enable()
    try:
        run_commands(ssd, plan, live)
    finally:
        profile.disable()
    assert ssd.stats.gc_events - before > COMMANDS // 200, "not GC-bound"
    ssd.ftl.check_invariants()
    return profile.getstats()


def property_getters(*modules):
    """Code objects of every ``property`` getter defined in ``modules``."""
    getters = {}
    for module in modules:
        for owner in vars(module).values():
            if isinstance(owner, type) and owner.__module__ == module.__name__:
                for name, attr in vars(owner).items():
                    if isinstance(attr, property) and attr.fget is not None:
                        getters[attr.fget.__code__] = \
                            f"{owner.__name__}.{name}"
    return getters


def calls_per_command(stats):
    """Everything but the driver loop itself (its few set calls ride
    along)."""
    return sum(entry.callcount for entry in stats
               if entry.code is not run_commands.__code__) / COMMANDS


def calls_into_obs(stats):
    return {f"{os.path.basename(entry.code.co_filename)}:"
            f"{entry.code.co_name}": entry.callcount
            for entry in stats
            if getattr(entry.code, "co_filename", "").startswith(OBS_ROOT)}


def test_passive_hot_path_stays_inside_its_call_budget():
    stats = profile_commands()
    per_command = calls_per_command(stats)
    assert per_command <= CALLS_PER_COMMAND_BUDGET, (
        f"{per_command:.1f} calls per command, budget "
        f"{CALLS_PER_COMMAND_BUDGET}")

    into_obs = calls_into_obs(stats)
    assert not into_obs, f"telemetry is off, yet repro/obs ran: {into_obs}"

    getters = property_getters(sim_faults, sim_clock, ssd_trace)
    hops = {getters[entry.code]: entry.callcount for entry in stats
            if entry.code in getters}
    assert not hops, f"property evaluated on the hot path: {hops}"


def test_each_telemetry_tier_costs_a_counted_number_of_calls():
    passive = calls_per_command(profile_commands())

    # "off" is the passive path, not a path that talks to null objects.
    stats = profile_commands(Telemetry(mode="off"))
    assert calls_per_command(stats) == passive
    into_obs = calls_into_obs(stats)
    assert not into_obs, f'mode="off", yet repro/obs ran: {into_obs}'

    for mode, ceiling in TIER_CALLS_PER_COMMAND_CEILING.items():
        stats = profile_commands(Telemetry(mode=mode))
        per_command = calls_per_command(stats)
        assert calls_into_obs(stats), f"{mode} telemetry recorded nothing"
        ratio = TIER_CALLS_PER_COMMAND_RATIO[mode]
        assert passive < per_command <= min(ceiling, ratio * passive), (
            f"{mode}: {per_command:.2f} calls per command "
            f"({per_command / passive:.3f} x passive {passive:.2f}), "
            f"ceiling {ceiling} or {ratio} x passive")


# ------------------------------------------------ synchronous device cell

#: Calls per host read and per host write on the device shape three of
#: perfbench's workloads run: no DRAM cache, queue depth 1 (submit and
#: wait), the same small GC-bound array on one channel.  Measured on
#: CPython 3.11: 16.00 per read, 34.66 per write once the command
#: completed in line (``EventScheduler.submit_and_wait``) without a
#: ticket and its one-entry ledger was read in place; 20.00 and 38.65
#: on the commit before, which built a ``CommandTicket``, called
#: ``take_work`` and waited through a heap push and ``run_until``.
#: 20.00 per read, 38.65 per write when first committed (38.60
#: once a shared page's extras became one dict); 27.00
#: and 48.72 on the commit before, which consulted the disabled cache,
#: called the FTL's range, sequence, ledger and GC-trigger helpers per
#: page and priced the host's own ledger entry through ``_price_media``.
#: The budgets are the measured values + ~5 %.  Raise them only with a
#: reason in the commit message.
CALLS_PER_SYNC_READ_BUDGET = 16.8
CALLS_PER_SYNC_WRITE_BUDGET = 36.4

#: Where the clock stood after the profiled reads and writes on that
#: commit before: the same commands, priced and placed the same way.
SYNC_CLOCK_AFTER_US = 158295

SYNC_COMMANDS = 4000


def issue_reads(ssd, lpns):
    for lpn in lpns:
        ssd.read(lpn)


def issue_writes(ssd, lpns):
    for index, lpn in enumerate(lpns):
        ssd.write(lpn, ("w", lpn, index))


def profile_sync_device():
    """(read stats, write stats, clock) of ``SYNC_COMMANDS`` profiled
    reads of live pages, then as many profiled overwrites, on a filled,
    GC-bound cache-off queue-depth-1 device."""
    ssd = make_device(channel_count=1, dram_cache_pages=0, queue_depth=1)
    rng = random.Random(29)
    live = set()
    run_commands(ssd, plan_commands(ssd, rng, 3000), live)
    mapped = sorted(live)
    span = int(ssd.logical_pages * 0.85)
    reads = [rng.choice(mapped) for __ in range(SYNC_COMMANDS)]
    writes = [rng.randrange(span) for __ in range(SYNC_COMMANDS)]
    profiles = []
    gc_before = ssd.stats.gc_events
    for issue, lpns in ((issue_reads, reads), (issue_writes, writes)):
        profile = cProfile.Profile(builtins=True)
        profile.enable()
        try:
            issue(ssd, lpns)
        finally:
            profile.disable()
        profiles.append(profile.getstats())
    assert ssd.stats.gc_events - gc_before > SYNC_COMMANDS // 200, \
        "not GC-bound"
    ssd.ftl.check_invariants()
    return profiles[0], profiles[1], ssd.clock.now_us


def calls_per_issued(stats, issue):
    return sum(entry.callcount for entry in stats
               if entry.code is not issue.__code__) / SYNC_COMMANDS


def test_cache_off_sync_device_read_and_write_budgets():
    reads, writes, clock_us = profile_sync_device()
    per_read = calls_per_issued(reads, issue_reads)
    per_write = calls_per_issued(writes, issue_writes)
    assert per_read <= CALLS_PER_SYNC_READ_BUDGET, (
        f"{per_read:.2f} calls per read, budget "
        f"{CALLS_PER_SYNC_READ_BUDGET}")
    assert per_write <= CALLS_PER_SYNC_WRITE_BUDGET, (
        f"{per_write:.2f} calls per write, budget "
        f"{CALLS_PER_SYNC_WRITE_BUDGET}")
    for stats in (reads, writes):
        into_obs = calls_into_obs(stats)
        assert not into_obs, f"telemetry is off, yet repro/obs ran: {into_obs}"
    assert clock_us == SYNC_CLOCK_AFTER_US


# ------------------------------------------------------------- SHARE cell

#: Calls per remapped pair of a 32-pair ``share_file_ranges`` commit —
#: ``ShareGuard`` -> share ioctl -> ``Ssd.share_batch`` -> FTL -> map log,
#: everything the command costs, builtins included.  Measured 6.05 on
#: CPython 3.11 when committed (8.34 on the commit before, when the
#: reverse map kept a set per shared page, a ``(ppn, lpn)``-keyed table
#: and spill buckets; 8.41 when the cell was added; 9.44 when the ioctl
#: took two ``block_lpns`` slices per one-block range; 36.81 when every
#: pair was validated, numbered, wrapped and checksummed on its own); the
#: ceiling is the measured value + 5 %.
CALLS_PER_SHARE_PAIR_CEILING = 6.35

SHARE_COMMITS = 60
SHARE_PAIRS = 32


def profile_share_commits():
    """Stats of ``SHARE_COMMITS`` couch-style commits on one small file:
    each appends ``SHARE_PAIRS`` new document versions (not profiled),
    then remaps the documents' home blocks onto them in one
    ``share_file_ranges`` call (profiled).  The share table is far
    smaller than the live set, so most pairs spill, and after the first
    round every destination leaves a page it shared — the steady state of
    ``ycsb-f-share``."""
    from repro.host.filesystem import HostFs
    from repro.host.resilience import ShareGuard
    geometry = FlashGeometry(page_size=4096, pages_per_block=64,
                             block_count=96, overprovision_ratio=0.125)
    ssd = Ssd(SimClock(), SsdConfig(
        geometry=geometry, timing=FAST_TIMING,
        ftl=FtlConfig(map_block_count=8, share_table_entries=32)))
    guard = ShareGuard(ssd)
    file = HostFs(ssd).create("docs")
    homes = 4 * SHARE_PAIRS
    for block in range(homes):
        file.append_block(("doc", block, 0))
    rng = random.Random(22)
    profile = cProfile.Profile(builtins=True)
    for version in range(1, SHARE_COMMITS + 1):
        docs = rng.sample(range(homes), SHARE_PAIRS)
        ranges = [(doc, file.append_block(("doc", doc, version)), 1)
                  for doc in docs]
        profile.enable()
        try:
            commands = guard.share_file_ranges(file, file, ranges)
        finally:
            profile.disable()
        assert commands == 1
        if file.block_count > homes + 8 * SHARE_PAIRS:
            file.truncate_blocks(homes)     # drop the stale staged copies
    assert ssd.ftl.stats.share_log_spills > SHARE_COMMITS * SHARE_PAIRS // 2
    ssd.ftl.check_invariants()
    return profile.getstats()


def test_share_path_costs_a_mapping_update_per_pair():
    stats = profile_share_commits()
    per_pair = (sum(entry.callcount for entry in stats)
                / (SHARE_COMMITS * SHARE_PAIRS))
    assert per_pair <= CALLS_PER_SHARE_PAIR_CEILING, (
        f"{per_pair:.2f} calls per remapped pair, ceiling "
        f"{CALLS_PER_SHARE_PAIR_CEILING}")
    into_obs = calls_into_obs(stats)
    assert not into_obs, f"telemetry is off, yet repro/obs ran: {into_obs}"


# ------------------------------------------------------------ engine cell

#: Calls per LinkBench transaction booked to ``repro/innodb``,
#: ``repro/host`` and ``repro/workloads`` (their own functions plus the
#: builtins those call).  Measured 34.2 on CPython 3.11 when
#: committed; the same run cost 64.2 on the commit before the engine
#: hot path was flattened.  Raise it only with a reason in the commit
#: message.
CALLS_PER_TRANSACTION_BUDGET = 37.0

TRANSACTIONS = 3000
ENGINE_LAYERS = tuple(os.path.join(SRC_ROOT, package) + os.sep
                      for package in ("innodb", "host", "workloads"))

#: Where the probe / miss / commit path lives.  The flush pipeline
#: (``_flush_batch`` -> doublewrite -> share ioctl -> fs journal) runs
#: once per 64-page batch, not per transaction, and still opens spans on
#: the off tracer and calls ``NO_FAULTS.checkpoint`` (its counters are
#: plain fields now); these must not.
TRANSACTION_PATH = ("btree.py", "buffer_pool.py", "engine.py", "redo.py",
                    "file.py", "linkbench.py")


def profile_linkbench():
    """(stats, engine counter deltas) of ``TRANSACTIONS`` profiled
    transactions from 16 clients, after load and a warm-up, on a stack
    whose pool holds about a fifth of the database."""
    stack, driver = small_linkbench_stack(seed=15)
    driver.load()
    driver.run(1000, concurrency=16)
    engine = stack.engine
    before = (engine.pool.misses, engine.flush_batches)
    profile = cProfile.Profile(builtins=True)
    profile.enable()
    try:
        driver.run(TRANSACTIONS, concurrency=16)
    finally:
        profile.disable()
    return profile.getstats(), (engine.pool.misses - before[0],
                                engine.flush_batches - before[1])


def defined_under(code, roots):
    return getattr(code, "co_filename", "").startswith(roots)


def booked_calls(stats, roots):
    """Calls of the functions defined under ``roots`` plus the builtins
    those call."""
    return sum(entry.callcount + sum(sub.callcount
                                     for sub in entry.calls or ()
                                     if isinstance(sub.code, str))
               for entry in stats if defined_under(entry.code, roots))


def short_name(code):
    return f"{os.path.basename(code.co_filename)}:{code.co_name}"


def test_engine_hot_path_stays_inside_its_call_budget():
    stats, (misses, batches) = profile_linkbench()
    assert misses > TRANSACTIONS // 4 and batches > 10, "pool not churning"

    per_transaction = booked_calls(stats, ENGINE_LAYERS) / TRANSACTIONS
    assert per_transaction <= CALLS_PER_TRANSACTION_BUDGET, (
        f"{per_transaction:.1f} engine-side calls per transaction, budget "
        f"{CALLS_PER_TRANSACTION_BUDGET}")

    faults_file = sim_faults.__file__
    unwanted = {}
    for entry in stats:
        if (not defined_under(entry.code, ENGINE_LAYERS)
                or os.path.basename(entry.code.co_filename)
                not in TRANSACTION_PATH
                or entry.code.co_name == "_flush_batch"):
            continue
        for sub in entry.calls or ():
            code = sub.code
            if defined_under(code, OBS_ROOT) or (
                    defined_under(code, faults_file)
                    and code.co_name == "checkpoint"):
                unwanted[f"{short_name(entry.code)} -> {short_name(code)}"] \
                    = sub.callcount
    assert not unwanted, (
        f"telemetry is off and no fault plan is armed, yet: {unwanted}")

    getters = property_getters(innodb_buffer_pool, innodb_redo, host_file)
    hops = {getters[entry.code]: entry.callcount for entry in stats
            if entry.code in getters}
    assert not hops, f"property evaluated on the hot path: {hops}"


# ------------------------------------------------------- couchstore cell

#: Calls per YCSB-F op (a read-modify-write, commits every 16) booked to
#: ``repro/couchstore``, ``repro/host`` and ``workloads/ycsb.py`` (their
#: own functions plus the builtins those call).  Measured 15.83 on
#: CPython 3.11 when committed; the same run cost 37.61 on the commit
#: before, which descended the unchanged tree twice per op, eleven calls
#: a descent, and read a document through four helper hops.  Raise it
#: only with a reason in the commit message.
CALLS_PER_YCSB_F_OP_BUDGET = 17.0

YCSB_OPS = 2000
COUCH_LAYERS = (os.path.join(SRC_ROOT, "couchstore") + os.sep,
                os.path.join(SRC_ROOT, "host") + os.sep,
                os.path.join(SRC_ROOT, "workloads", "ycsb.py"))

#: What the device saw during the same ``YCSB_OPS`` ops on that commit
#: before, and where its clock stood after them.  The engine may ask
#: itself fewer questions; it may not ask the device different ones.
YCSB_DEVICE_STREAM = {"host_read_pages": 2000, "host_write_pages": 2016,
                      "share_commands": 125, "share_pairs": 1753,
                      "flush_commands": 133, "trim_commands": 0}
YCSB_CLOCK_AFTER_US = 7501266


def profile_ycsb_f():
    """(stats, device counter deltas, clock) of ``YCSB_OPS`` profiled
    workload-F ops at batch 16 on a loaded, warmed SHARE store whose tree
    is three levels deep, like ``ycsb-f-share``'s."""
    from repro.bench.harness import build_couch_stack
    from repro.couchstore.engine import CommitMode
    from repro.workloads.ycsb import YcsbConfig, YcsbDriver, YcsbWorkload
    stack = build_couch_stack(CommitMode.SHARE, 2000, 4000)
    driver = YcsbDriver(stack.store, stack.clock,
                        YcsbConfig(record_count=2000, seed=24))
    driver.load()
    driver.run(YcsbWorkload.F, 500, 16)
    assert stack.store.tree.depth() == 3
    device = stack.ssd.stats
    before = {name: getattr(device, name) for name in YCSB_DEVICE_STREAM}
    profile = cProfile.Profile(builtins=True)
    profile.enable()
    try:
        driver.run(YcsbWorkload.F, YCSB_OPS, 16)
    finally:
        profile.disable()
    stack.ssd.ftl.check_invariants()
    return (profile.getstats(),
            {name: getattr(device, name) - before[name] for name in before},
            stack.clock.now_us)


def test_couch_read_modify_write_stays_inside_its_call_budget():
    stats, stream, clock_us = profile_ycsb_f()
    per_op = booked_calls(stats, COUCH_LAYERS) / YCSB_OPS
    assert per_op <= CALLS_PER_YCSB_F_OP_BUDGET, (
        f"{per_op:.2f} engine-side calls per read-modify-write, budget "
        f"{CALLS_PER_YCSB_F_OP_BUDGET}")
    assert stream == YCSB_DEVICE_STREAM
    assert clock_us == YCSB_CLOCK_AFTER_US


# ----------------------------------------------------------- router cell

#: Calls per operation of the KV LinkBench mix booked to ``repro/cluster``
#: (its own functions plus the builtins those call), on 3 shards of a
#: primary and two replicas with ``write_quorum=2``.  Measured 31.25 on
#: CPython 3.11 once the shard ops stopped wrapping each device call in
#: a session-binding closure and a lambda (the clock holds the issuer);
#: 34.00 once a get or delete of a key no live group holds was
#: answered before routing (no ring lookup, no ``_shard_op``, no
#: ``ShardGroup`` call; on ``cluster-quorum`` 2.2 of 2.9 gets per op);
#: 48.94 before, with the ring resuming FNV-1a from cached prefix states
#: (the region's 214 misses fold a prefix: 0.21 calls/op), 48.72 when
#: each lookup folded the whole ``repr``; the same run cost 76.99 on the
#: commit before, which hashed a key through four helper calls, routed
#: every shard op through a fresh lambda and an ``_ensure_primary`` call,
#: sorted the replicas for each quorum sync and read the log tip through
#: a property.  Raise it only with a reason in the commit message.
CALLS_PER_KV_OP_BUDGET = 35.7

#: ``HashRing.lookup`` calls per operation of the same mix: only a key
#: some group holds (or a put / share target) is placed.  Measured 1.06
#: (3 170 lookups in 3 000 ops); 3.36 when every get and delete was
#: routed, misses included.
LOOKUPS_PER_KV_OP_BUDGET = 1.15

KV_OPS = 3000
CLUSTER_LAYER = os.path.join(SRC_ROOT, "cluster") + os.sep

#: What each device saw during the same ``KV_OPS`` ops on that commit
#: before — (host read pages, host write pages, trim commands, share
#: commands) — and where the clock stood after them.
KV_DEVICE_STREAM = {
    "s0p": (1, 320, 1, 1), "s0r0": (301, 320, 1, 1),
    "s0r1": (240, 320, 1, 1),
    "s1p": (11, 430, 14, 11), "s1r0": (437, 430, 14, 11),
    "s1r1": (322, 430, 14, 11),
    "s2p": (7, 431, 6, 7), "s2r0": (357, 431, 6, 7),
    "s2r1": (273, 431, 6, 7)}
KV_CLOCK_AFTER_US = 5072580


def device_stream(ssd):
    stats = ssd.stats
    return (stats.host_read_pages, stats.host_write_pages,
            stats.trim_commands, stats.share_commands)


def profile_cluster_linkbench():
    """(stats, device stream deltas, clock, the ring's prefix-state
    cache info before and after) of ``KV_OPS`` profiled operations from
    4 clients on a loaded, warmed quorum cluster."""
    from repro.bench.harness import build_cluster_stack
    from repro.workloads.linkbench import (ClusterLinkBenchDriver,
                                           LinkBenchConfig)
    stack = build_cluster_stack(shards=3, replicas=2, write_quorum=2,
                                keys_estimate=3000, queue_depth=4,
                                channel_count=2)
    router = stack.router
    driver = ClusterLinkBenchDriver(router, stack.clock, LinkBenchConfig(
        node_count=400, links_per_node=2, seed=26))
    driver.load()
    driver.run(500, concurrency=4)
    devices = router.devices
    before = {ssd.name: device_stream(ssd) for ssd in devices}
    cache_before = router.ring._prefix_state.cache_info()
    profile = cProfile.Profile(builtins=True)
    profile.enable()
    try:
        driver.run(KV_OPS, concurrency=4)
    finally:
        profile.disable()
    assert router.stats.cross_shard_copies and all(
        group.quorum_syncs for group in router.pairs.values())
    return (profile.getstats(),
            {ssd.name: tuple(now - then for now, then in zip(
                device_stream(ssd), before[ssd.name])) for ssd in devices},
            stack.clock.now_us, cache_before,
            router.ring._prefix_state.cache_info())


def test_routed_kv_op_stays_inside_its_call_budget():
    stats, stream, clock_us, cache_before, cache_after = \
        profile_cluster_linkbench()
    per_op = booked_calls(stats, CLUSTER_LAYER) / KV_OPS
    assert per_op <= CALLS_PER_KV_OP_BUDGET, (
        f"{per_op:.2f} cluster-side calls per KV op, budget "
        f"{CALLS_PER_KV_OP_BUDGET}")
    into_obs = calls_into_obs(stats)
    assert not into_obs, f"telemetry is off, yet repro/obs ran: {into_obs}"
    lookups = sum(entry.callcount for entry in stats
                  if entry.code is HashRing.lookup.__code__) / KV_OPS
    assert lookups <= LOOKUPS_PER_KV_OP_BUDGET, (
        f"{lookups:.2f} ring lookups per KV op, budget "
        f"{LOOKUPS_PER_KV_OP_BUDGET}: misses are being routed again")
    assert stream == KV_DEVICE_STREAM
    assert clock_us == KV_CLOCK_AFTER_US
    # The ring folds only a key's last element: the rest of its repr is
    # a cached FNV state, so nearly every lookup must hit, in bounds.
    hits = cache_after.hits - cache_before.hits
    misses = cache_after.misses - cache_before.misses
    assert hits / (hits + misses) >= 0.9, (hits, misses)
    assert cache_after.currsize <= cache_after.maxsize
