"""The six sweep families, each one row of the sweep engine.

A row says what a site *is* for that family and nothing about how a
sweep runs (:mod:`repro.crashcheck.sweep` owns that; the column-by-column
table is in ``docs/crash-consistency.md``):

* ``power`` — *when* the device dies: a power cut at every firing of
  every fault checkpoint the workload reaches.
* ``media`` — *how the chips fail*: a transient read error, a program
  failure, an erase failure or a sticky dead page at every chip
  operation, plus sampled power-cut + read-fault pairs.
* ``command`` — *how the host→device boundary fails*: a timeout, a busy
  burst or a sticky SHARE outage at every SHARE command, plus an outage
  paired with a power cut at the checkpoints of the degraded run.  It
  proves the resilience layer (:mod:`repro.host.resilience`) actually
  carries the engines through, so it needs harnesses with ``guards()``.
* ``cluster-kill`` / ``cluster-media`` — one shard's primary killed, or
  its NAND stormed, after every acknowledged cluster write.
* ``cluster-chaos`` — seeded randomized schedules of all of the above
  under multi-client traffic and a live ring resize.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.crashcheck.cluster import (ClusterChaosHarness, ClusterHarness,
                                      media_cluster_harness)
from repro.crashcheck.sweep import (Family, Site, SiteResult, SweepReport,
                                    counted_run, numbered, sample_evenly)
from repro.crashcheck.workloads import WORKLOADS
from repro.sim.faults import (CommandTimeout, DeviceBusy, EraseFault,
                              ProgramFault, ReadFault, ShardKill,
                              ShardMediaStorm, ShareOutage)


def _columns(*keys: str):
    """Summary columns that are plain sums of one extras key each."""
    return tuple((key, lambda result, key=key: result.extras[key])
                 for key in keys)


# -------------------------------------------------------------------- power

MODE_POWER_CUT = "power-cut"

#: How much of the recovery checkpoint trace a site's record keeps.
RECOVERY_TRACE_KEPT = 24


def _power_sites(factory, modes) -> Tuple[List[Site], Dict]:
    trace = counted_run(factory).trace
    sites = [Site("power", MODE_POWER_CUT, power_point=point, power_nth=nth)
             for point, nth in numbered(trace)]
    return sites, {"distinct_points": len(set(trace))}


POWER = Family(
    name="power",
    modes=(MODE_POWER_CUT,),
    harnesses=WORKLOADS,
    enumerate=_power_sites,
    evidence=lambda harness, fault, recovery_trace: {
        "recovery_trace": recovery_trace[:RECOVERY_TRACE_KEPT],
        "recovery_trace_len": len(recovery_trace)},
)


# -------------------------------------------------------------------- media

#: A transient :class:`ReadFault` (one failed attempt, then clears) at
#: every read.  Firmware read-retry must heal it: the run completes.
MODE_READ_RETRY = "read-retry"
#: A one-shot :class:`ProgramFault` at every program.  The FTL must
#: re-program to a fresh page and retire the block; acked writes survive.
MODE_PROGRAM_FAIL = "program-fail"
#: A sticky :class:`EraseFault` at every erase.  GC must retire the block
#: instead of retrying forever.
MODE_ERASE_FAIL = "erase-fail"
#: A sticky dead-page :class:`ReadFault` at every read, *kept armed
#: through recovery*.  The run may abort typed; afterwards every acked
#: LPN must read its exact value or a typed error — never silently wrong
#: data.  Only for harnesses whose oracle tolerates typed read errors
#: (``check_degraded()``); the engine harnesses assume readable media.
MODE_UNCORRECTABLE = "uncorrectable"
#: A transient read fault paired with a power cut at a sampled
#: checkpoint: the degraded-and-then-dying case.
MODE_POWER_READ = "power+read"

#: How many power cuts the combined mode samples (evenly over the
#: enumerated checkpoints, each paired with a distinct read).
POWER_READ_SAMPLES = 24

#: Co-prime stride spreading the paired read-fault targets across the
#: read-operation space deterministically.
_READ_STRIDE = 37

_MEDIA_OP = {MODE_READ_RETRY: "read", MODE_PROGRAM_FAIL: "program",
             MODE_ERASE_FAIL: "erase", MODE_UNCORRECTABLE: "read"}


def _media_sites(factory, modes) -> Tuple[List[Site], Dict]:
    plan = counted_run(factory)
    op_counts = dict(plan.media.op_counts)
    sites: List[Site] = []
    for mode in modes:
        if mode == MODE_POWER_READ:
            reads = op_counts["read"]
            cuts = (sample_evenly(list(numbered(plan.trace)),
                                  POWER_READ_SAMPLES) if reads else [])
            sites += [Site("media", mode, index * _READ_STRIDE % reads + 1,
                           "read", None, point, nth)
                      for index, (point, nth) in enumerate(cuts)]
        else:
            op = _MEDIA_OP[mode]
            sites += [Site("media", mode, nth, op)
                      for nth in range(1, op_counts[op] + 1)]
    return sites, {"op_counts": op_counts}


def _media_fault(site: Site):
    if site.op == "program":
        return ProgramFault(nth=site.nth)
    if site.op == "erase":
        return EraseFault(nth=site.nth)
    if site.mode == MODE_UNCORRECTABLE:
        return ReadFault(nth=site.nth)   # sticky dead page
    return ReadFault(nth=site.nth, retries_to_clear=1)


MEDIA = Family(
    name="media",
    modes=(MODE_READ_RETRY, MODE_PROGRAM_FAIL, MODE_ERASE_FAIL,
           MODE_UNCORRECTABLE, MODE_POWER_READ),
    harnesses=WORKLOADS,
    enumerate=_media_sites,
    domain="media",
    fault=_media_fault,
    needs={MODE_UNCORRECTABLE: "check_degraded"},
    stays_armed=frozenset({MODE_UNCORRECTABLE}),
    # Only a transient read fault has to be invisible.  A device that
    # retired a block with no spare left may end the run with a typed
    # error (e.g. OutOfSpaceError): recorded, and the recovery-side
    # invariants still run against the persisted media.
    may_abort=frozenset({MODE_PROGRAM_FAIL, MODE_ERASE_FAIL,
                         MODE_UNCORRECTABLE, MODE_POWER_READ}),
)


# ------------------------------------------------------------------ command

#: A one-shot :class:`CommandTimeout` at every SHARE command, alternating
#: submission-rejected with the ambiguous applied-but-completion-lost
#: shape.  Retry must heal it: zero loss, and the guards report retries.
MODE_SHARE_TIMEOUT = "share-timeout"
#: A :class:`DeviceBusy` burst (two rejections, then clears) at every
#: SHARE command.  Backoff-and-retry must ride it out.
MODE_SHARE_BUSY = "share-busy"
#: A sticky :class:`ShareOutage` from every SHARE command onward,
#: alternating unsupported/hung.  Retrying never helps: the workload must
#: complete through the classic two-phase fallback, and the guards must
#: report fallbacks.
MODE_SHARE_OUTAGE = "share-outage"
#: A sticky outage from the *first* SHARE command plus a power cut at a
#: checkpoint of the resulting degraded run — every occurrence of a
#: fallback-boundary checkpoint, then an even stride over the rest.  This
#: is ``no_lost_fallback``: dying inside (or around) a fallback must lose
#: nothing acknowledged.
MODE_CHAOS_POWER = "chaos+power"

#: How many power cuts ``chaos+power`` explores beyond the
#: always-included fallback-boundary occurrences.
CHAOS_POWER_SAMPLES = 24

#: Busy rejections injected per ``share-busy`` site (must stay under the
#: default retry budget so the run can complete).
BUSY_REJECTIONS = 2

#: (flavor at odd nth, flavor at even nth): alternating so half the sites
#: exercise each timeout phase / outage error kind.
_FLAVORS = {MODE_SHARE_TIMEOUT: ("submit", "complete"),
            MODE_SHARE_BUSY: (None, None),
            MODE_SHARE_OUTAGE: ("unsupported", "timeout")}


def _command_sites(factory, modes) -> Tuple[List[Site], Dict]:
    shares = counted_run(factory).commands.op_counts["share"]
    sites: List[Site] = []
    for mode in modes:
        if mode == MODE_CHAOS_POWER:
            # The checkpoints of the *degraded* run: the outage starts at
            # the first SHARE so every fallback is on the table.
            degraded = counted_run(factory, ShareOutage(1, "unsupported"))
            boundary, rest = [], []
            for cut in numbered(degraded.trace):
                (boundary if "fallback" in cut[0] else rest).append(cut)
            sites += [Site("command", mode, 1, "share", "unsupported",
                           point, nth)
                      for point, nth in
                      boundary + sample_evenly(rest, CHAOS_POWER_SAMPLES)]
        else:
            sites += [Site("command", mode, nth, "share",
                           _FLAVORS[mode][1 - nth % 2])
                      for nth in range(1, shares + 1)]
    return sites, {"share_commands": shares}


def _command_fault(site: Site):
    if site.mode == MODE_SHARE_TIMEOUT:
        return CommandTimeout("share", nth=site.nth,
                              after_apply=site.flavor == "complete")
    if site.mode == MODE_SHARE_BUSY:
        return DeviceBusy("share", nth=site.nth,
                          clears_after=BUSY_REJECTIONS)
    return ShareOutage(nth=site.nth, error=site.flavor)


def _guard_evidence(harness, fault, recovery_trace) -> Dict:
    guards = harness.guards()
    return {"retries": sum(guard.stats.retries for guard in guards),
            "fallbacks": sum(guard.stats.fallbacks for guard in guards)}


def _command_verdict(result: SiteResult, harness) -> List[str]:
    site = result.site
    violations = list(result.violations)
    if site.power_point is not None and "fallback" in site.power_point:
        # Dying at the fallback boundary must lose nothing acknowledged.
        violations = [f"no_lost_fallback: {violation}"
                      for violation in violations]
    if not result.fired:
        return violations
    if (site.mode in (MODE_SHARE_TIMEOUT, MODE_SHARE_BUSY)
            and not result.extras["retries"]):
        violations.append(
            f"{site.mode}: fault fired but no guard reported a retry — "
            f"the transient was not healed by the retry path")
    if site.mode == MODE_SHARE_OUTAGE and not result.extras["fallbacks"]:
        violations.append(
            f"{site.mode}: sticky outage fired but no guard reported a "
            f"fallback — who served the workload?")
    return violations


_COMMAND_MODES = (MODE_SHARE_TIMEOUT, MODE_SHARE_BUSY, MODE_SHARE_OUTAGE,
                  MODE_CHAOS_POWER)

COMMAND = Family(
    name="command",
    modes=_COMMAND_MODES,
    harnesses=WORKLOADS,
    enumerate=_command_sites,
    domain="commands",
    fault=_command_fault,
    needs=dict.fromkeys(_COMMAND_MODES, "guards"),
    # Command faults never reach the media: only the paired power cut may
    # end the run early.
    may_abort=frozenset({MODE_CHAOS_POWER}),
    evidence=_guard_evidence,
    verdict=_command_verdict,
    columns=_columns("retries", "fallbacks"),
)


# ------------------------------------------------------- cluster-kill/-media

MODE_KILL = "kill"
MODE_STORM = "storm"


def _ack_sites(family: str, mode: str):
    def sites(factory, modes) -> Tuple[List[Site], Dict]:
        acked = counted_run(factory).cluster.op_counts["ack"]
        return ([Site(family, mode, nth, "ack")
                 for nth in range(1, acked + 1)], {"acked_writes": acked})
    return sites


def _kill_evidence(harness, fault, recovery_trace) -> Dict:
    stats = harness.router.stats
    return {"victim": fault.victim, "failovers": stats.failovers,
            "replayed": stats.replayed_records,
            "repl_applied": stats.repl_applied}


def _kill_verdict(result: SiteResult, harness) -> List[str]:
    violations = list(result.violations)
    if result.fired and not result.extras["failovers"]:
        violations.append(
            f"cluster: shard kill fired (victim "
            f"{result.extras['victim']!r}) but no promotion was recorded")
    return violations


CLUSTER_KILL = Family(
    name="cluster-kill",
    modes=(MODE_KILL,),
    harnesses={ClusterHarness.name: ClusterHarness},
    enumerate=_ack_sites("cluster-kill", MODE_KILL),
    domain="cluster",
    fault=lambda site: ShardKill(nth=site.nth),
    evidence=_kill_evidence,
    verdict=_kill_verdict,
    columns=_columns("failovers", "replayed"),
)


def _storm_evidence(harness, fault, recovery_trace) -> Dict:
    stats = harness.router.stats
    return {"victim": fault.victim, "media_trips": stats.media_trips,
            "proactive_promotions": stats.proactive_promotions,
            "failovers": stats.failovers}


def _storm_verdict(result: SiteResult, harness) -> List[str]:
    violations = list(result.violations)
    if result.fired and harness.router.stats.media_storms == 0:
        violations.append(
            "cluster-media: storm fired but the router never injected it")
    return violations


def _storm_sweep_rule(report: SweepReport) -> List[str]:
    # Storms late in the run may not accumulate enough health score to
    # trip before the run ends, so the bar is the sweep, not every site.
    if not report.results or any(res.extras["proactive_promotions"]
                                 for res in report.results):
        return []
    return ["cluster-media: no storm tripped a proactive promotion — the "
            "health monitor never noticed the media degrading"]


CLUSTER_MEDIA = Family(
    name="cluster-media",
    modes=(MODE_STORM,),
    harnesses={"cluster-media": media_cluster_harness},
    enumerate=_ack_sites("cluster-media", MODE_STORM),
    domain="cluster",
    fault=lambda site: ShardMediaStorm(nth=site.nth),
    evidence=_storm_evidence,
    verdict=_storm_verdict,
    columns=_columns("media_trips", "proactive_promotions", "failovers"),
    sweep_rule=_storm_sweep_rule,
)


# ------------------------------------------------------------ cluster-chaos

MODE_SCHEDULE = "schedule"

#: Seeds a sweep runs when the caller names none.
DEFAULT_SEEDS = 3


def seed_sites(count: int) -> List[Site]:
    """The cluster-chaos sites for seeds ``1..count``."""
    return [Site("cluster-chaos", MODE_SCHEDULE, seed=seed)
            for seed in range(1, count + 1)]


def _chaos_evidence(harness, fault, recovery_trace) -> Dict:
    stats = harness.router.stats
    return {"steps": harness.steps, "acked_writes": stats.acked_writes,
            "kills": harness.kills, "storms": harness.storms,
            "busy_faults": harness.busy_faults,
            "failovers": stats.failovers,
            "proactive_promotions": stats.proactive_promotions,
            "media_trips": stats.media_trips,
            "migrated_keys": stats.migrated_keys,
            "replica_reads": stats.replica_reads,
            "repl_applied": stats.repl_applied,
            "snapshot_catchups": harness.router.snapshot_catchups,
            "ryw_checks": harness.ryw_checks,
            "mid_rebalance_kill": harness.mid_rebalance_kill}


CLUSTER_CHAOS = Family(
    name="cluster-chaos",
    modes=(MODE_SCHEDULE,),
    harnesses={ClusterChaosHarness.name: ClusterChaosHarness},
    enumerate=lambda factory, modes: (seed_sites(DEFAULT_SEEDS), {}),
    build=lambda factory, faults, site: factory(site.seed),
    evidence=_chaos_evidence,
    # read_your_writes (inline) and replica_convergence (at quiescence)
    # are collected by the harness while the schedule is live.
    verdict=lambda result, harness: (harness.violations
                                     + list(result.violations)),
    columns=_columns(
        "acked_writes", "kills", "storms", "busy_faults", "failovers",
        "proactive_promotions", "migrated_keys", "ryw_checks",
        "repl_applied", "snapshot_catchups")
    + (("mid_rebalance_kills",
        lambda result: int(result.extras["mid_rebalance_kill"])),),
    seeded=True,
)


#: Every family by its ``--family`` name, in documentation order.
FAMILIES: Dict[str, Family] = {
    family.name: family
    for family in (POWER, MEDIA, COMMAND, CLUSTER_KILL, CLUSTER_MEDIA,
                   CLUSTER_CHAOS)
}
