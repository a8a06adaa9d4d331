"""The sweep engine: enumerate → cap → inject → recover → check → emit.

Every fault sweep in this package is the same deterministic two-phase
algorithm; a :class:`Family` row (see :mod:`repro.crashcheck.families`)
says only what differs.

1. **Enumeration** — ``family.enumerate`` builds the harness on a fresh
   plan, turns on tracing and operation counting, runs the workload once
   with nothing armed (:func:`counted_run`) and turns what the run
   reached into :class:`Site` rows: the nth firing of a checkpoint, the
   nth chip operation, the nth SHARE command, the nth acked write, or a
   schedule seed.
2. **Injection** — :func:`run_site`, once per site: a *fresh* harness on
   a fresh plan, the site's fault armed after setup (so ``nth`` counts
   exactly what the enumeration run counted), run until the workload
   ends, power fails or the device fails typed; then everything not meant
   to survive is disarmed, the harness recovers from its persisted media,
   and the verdict is assembled from the media invariants on every
   recovered device (:func:`~repro.crashcheck.invariants.check_media`),
   the harness's own engine contract, and the family's extra rules.

:func:`sweep` strings the two together, caps the site list with the one
sampler (:func:`sample_sites`) and emits one JSONL record per site plus
one summary record to any telemetry sink.

Determinism of the harness is what makes a sweep exhaustive rather than
probabilistic: the enumeration run and every injection run must reach
the same operations in the same order up to the injected fault.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (Callable, Dict, FrozenSet, Iterator, List, NamedTuple,
                    Optional, Sequence, Tuple)

from repro.crashcheck.invariants import check_media
from repro.errors import DeviceError, PowerFailure
from repro.ftl.mapping import resolve_l2p_strategy
from repro.sim.faults import FaultPlan, PowerFailAfter


class Site(NamedTuple):
    """One injection site of any family.

    ``nth`` is the 1-based count, from arming, of the operation kind
    ``op`` the mode targets (``read`` / ``program`` / ``erase`` chip
    operations, ``share`` commands, cluster ``ack`` boundaries).
    ``power_point`` / ``power_nth`` name the power-cut fuse armed at this
    site: the whole site for the power family, the paired cut for
    ``power+read`` and ``chaos+power``.  A seeded site carries ``seed``
    instead — the schedule is the injection.
    """

    family: str
    mode: str
    nth: int = 0
    op: Optional[str] = None
    flavor: Optional[str] = None      # timeout phase / outage error kind
    power_point: Optional[str] = None
    power_nth: int = 0
    seed: Optional[int] = None

    @property
    def stratum(self) -> "Site":
        """The site with its occurrence counters dropped: what kind of
        place this is, as opposed to which visit to it."""
        return self._replace(nth=0, power_nth=0, seed=None)

    def __str__(self) -> str:
        if self.seed is not None:
            return f"{self.mode} seed {self.seed}"
        parts = [self.mode]
        if self.op is not None:
            parts.append(f"{self.op}#{self.nth}")
        if self.flavor is not None:
            parts.append(f"({self.flavor})")
        if self.power_point is not None:
            parts.append(f"@ {self.power_point}#{self.power_nth}")
        return " ".join(parts)


class SiteResult(NamedTuple):
    """Verdict for one injected site."""

    site: Site
    fired: bool                   # did the armed fault actually trigger?
    crashed: bool                 # run() ended in a PowerFailure
    aborted: Optional[str]        # typed DeviceError class that ended run()
    violations: Tuple[str, ...]
    extras: Dict[str, object]     # the family's evidence (JSON-ready)

    @property
    def ok(self) -> bool:
        return not self.violations

    def as_record(self, workload: str) -> Dict:
        """The JSONL report row: site fields, verdict, family extras."""
        record = {"type": "crashcheck", "workload": workload}
        record.update(self.site._asdict())
        record.update(fired=self.fired, crashed=self.crashed,
                      aborted=self.aborted, ok=self.ok,
                      violations=list(self.violations))
        record.update(self.extras)
        return record


@dataclass(frozen=True)
class Family:
    """What one sweep family adds to the shared loop.

    * ``modes`` — every mode, in the order a full sweep runs them.
    * ``harnesses`` — name → factory of the harnesses the family can
      sweep; the first is the CLI default.
    * ``enumerate(factory, modes)`` — one counted fault-free run turned
      into ``(sites, counts)``; ``counts`` (JSON-ready) goes into the
      summary record.
    * ``domain`` / ``fault(site)`` — the :class:`FaultPlan` fault set the
      family arms (``media`` / ``commands`` / ``cluster``) and the fault
      a site arms there.  The power fuse a site names is armed by the
      engine itself, for every family.
    * ``needs`` — mode → harness method that mode reads; a harness
      without it cannot run the mode (checked on the harness class when
      a sweep resolves its modes, and on the built harness at each
      site).
    * ``stays_armed`` — modes whose fault survives into recovery; the
      harness is then judged by ``check_degraded()`` instead of
      ``check_engine()``.
    * ``may_abort`` — modes where a typed :class:`DeviceError` ending the
      run is recorded, not condemned ("fail typed, lose nothing
      acknowledged"); anywhere else an abort is a violation.
    * ``build(factory, faults, site)`` — harness construction (a seeded
      family builds from the seed, not the plan).
    * ``evidence(harness, fault, recovery_trace)`` — the extras dict,
      read after recovery and the engine check.
    * ``verdict(result, harness)`` — the final engine-level violations,
      given a result whose ``violations`` are the harness's own: relabel
      them, add the family's rules.
    * ``columns`` — ``(label, extractor)`` pairs summed over the results
      into the summary record and the CLI's summary line.
    * ``sweep_rule(report)`` — violations of the sweep as a whole.
    * ``seeded`` — sites are seeds chosen by the caller, not enumerated.
    """

    name: str
    modes: Tuple[str, ...]
    harnesses: Dict[str, Callable]
    enumerate: Callable[[Callable, Tuple[str, ...]],
                        Tuple[List[Site], Dict[str, object]]]
    domain: Optional[str] = None
    fault: Callable[[Site], object] = lambda site: None
    needs: Dict[str, str] = field(default_factory=dict)
    stays_armed: FrozenSet[str] = frozenset()
    may_abort: FrozenSet[str] = frozenset()
    build: Callable = lambda factory, faults, site: factory(faults)
    evidence: Callable = lambda harness, fault, recovery_trace: {}
    verdict: Callable[[SiteResult, object], List[str]] = (
        lambda result, harness: list(result.violations))
    columns: Tuple[Tuple[str, Callable[[SiteResult], int]], ...] = ()
    sweep_rule: Callable[["SweepReport"], List[str]] = lambda report: []
    seeded: bool = False

    def runs(self, mode: str, harness) -> bool:
        """Does ``harness`` (a harness, or the class that builds it) have
        what ``mode`` reads?"""
        attr = self.needs.get(mode)
        return attr is None or hasattr(harness, attr)

    def applies(self, factory) -> bool:
        """Can this family sweep harnesses built by ``factory`` at all?"""
        return any(self.runs(mode, factory) for mode in self.modes)

    def resolve_modes(self, factory, requested: Optional[Sequence[str]]
                      = None) -> Tuple[str, ...]:
        """The modes a sweep of ``factory`` runs: every applicable mode,
        or ``requested`` checked against the family and the harness.
        Raises :class:`ValueError` naming what does not fit."""
        if requested is None:
            requested = [mode for mode in self.modes
                         if self.runs(mode, factory)]
            if not requested:
                raise ValueError(
                    f"family {self.name!r} does not apply to this harness: "
                    f"its modes need "
                    f"{', '.join(sorted(set(self.needs.values())))}()")
        for mode in requested:
            if mode not in self.modes:
                raise ValueError(
                    f"unknown {self.name} mode {mode!r} "
                    f"(choose from {', '.join(self.modes)})")
            if not self.runs(mode, factory):
                raise ValueError(
                    f"{self.name} mode {mode!r} needs a harness with "
                    f"{self.needs[mode]}()")
        return tuple(requested)


class SweepReport(NamedTuple):
    """Aggregate of one sweep."""

    family: Family
    workload: str
    l2p: str                          # resolved forward-map strategy
    modes: Tuple[str, ...]
    counts: Dict[str, object]
    sites: Tuple[Site, ...]           # everything enumerated (or given)
    results: Tuple[SiteResult, ...]   # what the cap let through

    @property
    def failures(self) -> List[SiteResult]:
        return [res for res in self.results if not res.ok]

    @property
    def sweep_violations(self) -> List[str]:
        return self.family.sweep_rule(self)

    @property
    def ok(self) -> bool:
        return not self.failures and not self.sweep_violations

    def summary(self) -> Dict:
        results = self.results
        sweep_violations = self.sweep_violations
        record = {"type": "crashcheck-summary", "family": self.family.name,
                  "workload": self.workload, "l2p": self.l2p,
                  "modes": list(self.modes)}
        record.update(self.counts)
        record.update(
            sites=len(self.sites),
            strata=len({site.stratum for site in self.sites}),
            explored=len(results),
            strata_explored=len({res.site.stratum for res in results}),
            fired=sum(1 for res in results if res.fired),
            crashed=sum(1 for res in results if res.crashed),
            aborted=sum(1 for res in results if res.aborted))
        for label, extract in self.family.columns:
            record[label] = sum(extract(res) for res in results)
        record.update(
            violations=(sum(len(res.violations) for res in results)
                        + len(sweep_violations)),
            sweep_violations=sweep_violations,
            ok=self.ok)
        return record


# ------------------------------------------------------------------ capping


def sample_evenly(items: Sequence, limit: int) -> List:
    """At most ``limit`` items, spread evenly across ``items``.

    A naive ``items[::len(items) // limit][:limit]`` degenerates to head
    truncation whenever ``limit <= len(items) < 2 * limit`` (integer
    stride 1), silently dropping the tail — and with it whole sweep
    modes.  Index selection ``i * n // limit`` keeps the spread exact
    for any ratio.
    """
    total = len(items)
    if limit <= 0:
        return []
    if total <= limit:
        return list(items)
    return [items[i * total // limit] for i in range(limit)]


def sample_sites(sites: Sequence[Site], limit: int) -> List[Site]:
    """The capping rule of every family: at most ``limit`` sites, in
    enumeration order, every stratum first.

    An even stride alone aliases with the workload's period and can skip
    a rarely-fired point at any cap (a once-only compaction checkpoint
    is one site in a thousand).  So when the budget allows, each
    :attr:`Site.stratum` is given its middle occurrence, and the rest of
    the budget is spread evenly over the remaining sites.  With fewer
    slots than strata the spread is plainly even.  ``limit <= 0`` → no
    sites; ``len(sites) <= limit`` → all of them.
    """
    total = len(sites)
    if limit <= 0:
        return []
    if total <= limit:
        return list(sites)
    members: Dict[Site, List[int]] = {}
    for index, site in enumerate(sites):
        members.setdefault(site.stratum, []).append(index)
    if limit < len(members):
        return sample_evenly(sites, limit)
    chosen = {indices[len(indices) // 2] for indices in members.values()}
    rest = [index for index in range(total) if index not in chosen]
    chosen.update(sample_evenly(rest, limit - len(chosen)))
    return [sites[index] for index in sorted(chosen)]


# -------------------------------------------------------------- enumeration


def counted_run(factory: Callable[[FaultPlan], object],
                armed=None) -> FaultPlan:
    """Phase 1: one traced, counted run of a fresh harness with no site
    armed, returning its plan — ``trace`` holds every checkpoint reached
    and the three fault sets' counters every chip operation, command and
    cluster ack, all from the end of setup (where injection arms too).
    ``armed`` is a command fault to run *under* (the degraded run whose
    checkpoints ``chaos+power`` cuts at)."""
    faults = FaultPlan()
    harness = factory(faults)
    if armed is not None:
        faults.commands.arm(armed)
    faults.enable_trace()
    faults.media.enable_counting()
    faults.commands.enable_counting()
    faults.cluster.enable_counting()
    harness.run()
    return faults


def numbered(trace: Sequence[str]) -> Iterator[Tuple[str, int]]:
    """``(point, nth)`` for a checkpoint trace: the running 1-based count
    of each named point, which is what ``PowerFailAfter`` takes."""
    counts: Dict[str, int] = {}
    for point in trace:
        counts[point] = counts.get(point, 0) + 1
        yield point, counts[point]


# ---------------------------------------------------------------- injection


def run_site(family: Family, factory: Callable, site: Site) -> SiteResult:
    """Phase 2 for one site: inject, recover, verify."""
    faults = FaultPlan()
    harness = family.build(factory, faults, site)
    if not family.runs(site.mode, harness):
        raise TypeError(
            f"harness {type(harness).__name__} exposes no "
            f"{family.needs[site.mode]}(); {family.name} mode "
            f"{site.mode!r} has nothing to verify there")
    fault = family.fault(site)
    fault_set = getattr(faults, family.domain) if family.domain else None
    if fault is not None:
        fault_set.arm(fault)
    if site.power_point is not None:
        faults.arm(PowerFailAfter(site.power_point, site.power_nth))
    crashed = False
    aborted: Optional[str] = None
    try:
        harness.run()
    except PowerFailure:
        crashed = True
    except DeviceError as exc:
        aborted = type(exc).__name__
    if fault is None:
        fired = crashed
    else:
        # Transient and one-shot faults remove themselves when they
        # trigger, so an emptied fault set also means the fault fired.
        fired = bool(fault_set.fired_faults()) or not fault_set.armed()
    degraded = site.mode in family.stays_armed
    faults.disarm()        # power fuses never fire during recovery
    if fault is not None and not degraded:
        fault_set.disarm()   # ... and recovery sees a healthy device
    faults.enable_trace()  # record the recovery path
    devices = harness.recover()
    recovery_trace = faults.trace
    violations: List[str] = []
    for device in devices:
        violations += check_media(device.name, device.ssd, device.max_refs)
    engine = (harness.check_degraded() if degraded
              else harness.check_engine())
    result = SiteResult(site, fired, crashed, aborted, tuple(engine),
                        family.evidence(harness, fault, recovery_trace))
    violations += family.verdict(result, harness)
    if aborted is not None and site.mode not in family.may_abort:
        violations.append(
            f"{site.mode}: run aborted with {aborted} — nothing armed at "
            f"this site may surface as a device error; it must be "
            f"absorbed (retried, healed or served by a fallback)")
    return result._replace(violations=tuple(violations))


def sweep(family: Family, factory: Callable, workload: str,
          modes: Optional[Sequence[str]] = None,
          sites: Optional[Sequence[Site]] = None,
          cap: Optional[int] = None, sink=None) -> SweepReport:
    """The full sweep: enumerate (unless ``sites`` is given), cap, inject
    each site.

    ``cap`` bounds the run for CI with :func:`sample_sites`.  ``sink`` is
    any telemetry sink (``emit(dict)``): each site's record is emitted as
    it completes, then one summary record.
    """
    modes = family.resolve_modes(factory, modes)
    counts: Dict[str, object] = {}
    if sites is None:
        sites, counts = family.enumerate(factory, modes)
    explored = sites if cap is None else sample_sites(sites, cap)
    results: List[SiteResult] = []
    for site in explored:
        result = run_site(family, factory, site)
        results.append(result)
        if sink is not None:
            sink.emit(result.as_record(workload))
    report = SweepReport(family, workload, resolve_l2p_strategy(), modes,
                         counts, tuple(sites), tuple(results))
    if sink is not None:
        sink.emit(report.summary())
    return report
