"""Unit tests for the sweep engine itself.

The exhaustive sweeps live in ``test_property_crashcheck.py`` and CI, the
parity golden in ``test_sweep_parity.py``; this file checks the machinery
every family shares — deterministic enumeration, the capping rule,
per-site verdicts, the one report/record schema, and the CLI entry
point — mostly on the power family, the one with no extras.
"""

import functools
import os

import pytest

from conftest import check_capped_sweep, check_cli_sweep
from repro.crashcheck import (FAMILIES, POWER, Site, SiteResult, SweepReport,
                              run_site, sample_evenly, sample_sites, sweep)
from repro.crashcheck.sweep import counted_run
from repro.crashcheck.workloads import WORKLOADS
from repro.errors import PowerFailure
from repro.ftl.mapping import STRATEGY_NAMES
from repro.ftl.pagemap import PageMappingFtl
from repro.sim.faults import NO_FAULTS, FaultPlan, PowerFailAfter
from repro.tools.crashexplore import main as crashexplore_main

_CACHE = {}


def power_sites(workload):
    """Enumerate once per test session (the run is deterministic)."""
    if workload not in _CACHE:
        _CACHE[workload] = POWER.enumerate(WORKLOADS[workload],
                                           POWER.modes)[0]
    return _CACHE[workload]


def test_enumeration_is_deterministic():
    factory = WORKLOADS["ftl-basic"]
    first, counts = POWER.enumerate(factory, POWER.modes)
    second, __ = POWER.enumerate(factory, POWER.modes)
    assert first == second
    assert len(first) > 50
    assert counts["distinct_points"] == len({s.power_point for s in first})


def test_enumeration_counts_per_point():
    seen = {}
    for site in power_sites("ftl-basic"):
        seen[site.power_point] = seen.get(site.power_point, 0) + 1
        # power_nth is the running 1-based count of that point.
        assert site.power_nth == seen[site.power_point]
        assert (site.family, site.mode) == ("power", "power-cut")


def test_explore_occurrence_verdict_shape():
    site = power_sites("ftl-basic")[0]
    result = run_site(POWER, WORKLOADS["ftl-basic"], site)
    assert isinstance(result, SiteResult)
    assert result.site == site
    assert result.fired and result.crashed
    assert result.aborted is None
    assert result.ok
    assert result.violations == ()
    assert result.extras["recovery_trace_len"] >= \
        len(result.extras["recovery_trace"])
    assert str(site) == f"power-cut @ {site.power_point}#1"


def test_ftl_basic_holds_an_interrupted_atomic_write_to_the_group_rule():
    faults = FaultPlan()
    harness = WORKLOADS["ftl-basic"](faults)
    faults.arm(PowerFailAfter("ftl.awrite_program", 2))
    with pytest.raises(PowerFailure):
        harness.run()
    harness.recover()
    assert len(harness.inflight) == 3
    assert harness.check_engine() == []          # all three read old
    # Tear the batch by hand: one page new, two old.  Each LPN alone is
    # still "old or new"; only the group rule can object.
    lpn, value = sorted(harness.inflight.items())[0]
    harness.ssd.ftl.write(lpn, value)
    assert any("torn" in violation for violation in harness.check_engine())


def test_explore_emits_jsonl_records():
    report, rows, summary = check_capped_sweep("power", "ftl-basic", 5)
    assert isinstance(report, SweepReport)
    assert all(row["crashed"] and isinstance(row["power_nth"], int)
               for row in rows)
    assert summary["distinct_points"] == summary["strata"] == 15
    # Fewer slots than strata: the spread is plainly even.
    assert summary["strata_explored"] <= 5


# --------------------------------------------------------------- the sampler


def test_sample_evenly_keeps_the_tail_when_barely_over_budget():
    # limit <= total < 2 * limit: an integer stride of 1 would take the
    # head and silently drop the tail (and with it whole sweep modes).
    items = list(range(10))
    picked = sample_evenly(items, 7)
    assert len(picked) == 7
    assert picked == sorted(set(picked))
    assert picked[0] == 0 and picked[-1] >= 8
    assert sample_evenly(items, 0) == []
    assert sample_evenly(items, -3) == []
    assert sample_evenly(items, 10) == items
    assert sample_evenly(items, 99) == items


def _toy_sites():
    # A periodic workload (a, b, a, b, ...) with two once-only points: an
    # even stride of period 2 sees only "a" and neither rare point.
    points = ["a", "b"] * 20
    points[7] = "rare1"
    points[30] = "rare2"
    counts = {}
    sites = []
    for point in points:
        counts[point] = counts.get(point, 0) + 1
        sites.append(Site("power", "power-cut", power_point=point,
                          power_nth=counts[point]))
    return sites


def test_sample_sites_edges_order_and_determinism():
    sites = _toy_sites()
    assert sample_sites(sites, 0) == []
    assert sample_sites(sites, -1) == []
    assert sample_sites(sites, len(sites)) == sites
    assert sample_sites(sites, 10_000) == sites
    picked = sample_sites(sites, 10)
    assert picked == sample_sites(sites, 10)
    assert len(picked) == len(set(picked)) == 10
    # Enumeration order is preserved.
    assert [sites.index(site) for site in picked] == \
        sorted(sites.index(site) for site in picked)
    # limit <= total < 2 * limit keeps the tail.
    assert sites.index(sample_sites(sites, 30)[-1]) >= 37


def test_sample_sites_gives_every_stratum_a_site_first():
    sites = _toy_sites()
    strata = {site.stratum for site in sites}
    assert len(strata) == 4
    assert {s.power_point for s in sample_evenly(sites, 10)} == {"a"}
    for limit in range(4, len(sites)):
        picked = sample_sites(sites, limit)
        assert len(picked) == limit
        assert {site.stratum for site in picked} == strata
    # Fewer slots than strata: no stratum can be promised, spread evenly.
    assert sample_sites(sites, 3) == sample_evenly(sites, 3)


def test_stratum_drops_only_the_occurrence_counters():
    site = Site("media", "power+read", 38, "read", None, "ftl.write.ack", 7)
    assert site.stratum == Site("media", "power+read", 0, "read", None,
                                "ftl.write.ack", 0)
    assert Site("cluster-chaos", "schedule", seed=9).stratum == \
        Site("cluster-chaos", "schedule")


@pytest.mark.parametrize("workload, cap, points", [
    ("linkbench-small", 150, 29),   # head truncation reached 20
    ("ftl-queued", 150, 10),
    ("ftl-basic", 60, 15),          # head truncation reached 6
])
def test_ci_power_caps_reach_every_fault_point(workload, cap, points):
    sites = power_sites(workload)
    picked = sample_sites(sites, cap)
    assert len(picked) == cap
    reached = {site.power_point for site in picked}
    assert reached == {site.power_point for site in sites}
    assert len(reached) == points
    if workload == "linkbench-small":
        # SHARE compaction (paper 4.3) is seven once-only checkpoints.
        assert sum(p.startswith("couch.compact_") for p in reached) == 7
    if workload == "ftl-basic":
        # ... and 4.2.2's commit point is the map-log program.
        assert {"ftl.share.ack", "device.share.ack", "maplog.before_commit",
                "maplog.after_commit"} <= reached


#: ``PageMappingFtl._write_rounds`` calls in one fault-free run of each
#: harness whose engine issues multi-page writes.
ROUNDS_PER_RUN = {"linkbench-small": 17, "sqlite-share": 9,
                  "datajournal-share": 12}


@pytest.mark.parametrize("workload", sorted(ROUNDS_PER_RUN))
def test_the_counted_run_places_the_rounds_a_passive_run_places(
        workload, monkeypatch):
    """The sweeps cut the code the benchmarks run: the counted run (a
    real plan that traces and counts) takes the same rotation rounds as
    the harness under ``NO_FAULTS``, so its sites lie inside them."""
    rounds = []
    write_rounds = PageMappingFtl._write_rounds

    def counted(self, lpn, pages, start, count):
        rounds.append((lpn, count))
        return write_rounds(self, lpn, pages, start, count)
    monkeypatch.setattr(PageMappingFtl, "_write_rounds", counted)
    WORKLOADS[workload](NO_FAULTS).run()
    passive = rounds[:]
    del rounds[:]
    counted_run(WORKLOADS[workload])
    assert len(passive) == ROUNDS_PER_RUN[workload]
    assert rounds == passive


# ------------------------------------------------------------------ reports

_EXTRAS = {
    "power": {"recovery_trace": ["ftl.recover"], "recovery_trace_len": 1},
    "media": {},
    "command": {"retries": 2, "fallbacks": 1},
    "cluster-kill": {"victim": "shard0", "failovers": 1, "replayed": 3,
                     "repl_applied": 9},
    "cluster-media": {"victim": "shard0", "media_trips": 1,
                      "proactive_promotions": 1, "failovers": 1},
    "cluster-chaos": {"steps": 10, "acked_writes": 5, "kills": 1,
                      "storms": 1, "busy_faults": 1, "failovers": 1,
                      "proactive_promotions": 0, "media_trips": 0,
                      "migrated_keys": 4, "replica_reads": 2,
                      "repl_applied": 6, "snapshot_catchups": 1,
                      "ryw_checks": 3, "mid_rebalance_kill": True},
}


@pytest.mark.parametrize("family_name", list(FAMILIES))
def test_report_failures_and_summary_shape(family_name):
    family = FAMILIES[family_name]
    extras = _EXTRAS[family_name]
    mode = family.modes[0]
    good = SiteResult(Site(family_name, mode, 1, "x"), True, False, None,
                      (), extras)
    bad = SiteResult(Site(family_name, mode, 2, "x"), True, True,
                     "OutOfSpaceError", ("lost data", "and more"), extras)
    report = SweepReport(family, "w", "flat", family.modes, {"counted": 7},
                         (good.site, bad.site, bad.site._replace(nth=3)),
                         (good, bad))
    assert not report.ok
    assert report.failures == [bad]
    summary = report.summary()
    assert summary["type"] == "crashcheck-summary"
    assert (summary["family"], summary["workload"]) == (family_name, "w")
    assert summary["counted"] == 7
    assert (summary["sites"], summary["explored"]) == (3, 2)
    assert (summary["strata"], summary["strata_explored"]) == (1, 1)
    assert (summary["fired"], summary["crashed"], summary["aborted"]) \
        == (2, 1, 1)
    assert summary["violations"] == 2
    assert summary["ok"] is False
    assert [label for label, __ in family.columns] == \
        [key for key in summary if key in dict(family.columns)]
    for label, extract in family.columns:
        assert summary[label] == 2 * extract(good)
    record = bad.as_record("w")
    assert record["type"] == "crashcheck"
    assert record["nth"] == 2 and record["ok"] is False
    assert record["violations"] == ["lost data", "and more"]
    assert {key: record[key] for key in extras} == extras


# ---------------------------------------------------------------------- CLI


def test_cli_list(capsys):
    assert crashexplore_main(["--list"]) == 0
    listing = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in listing] == list(FAMILIES)
    # A family lists only the harnesses it applies to.
    command = next(line for line in listing if line.startswith("command"))
    assert "sqlite-share" in command and "ftl-basic" not in command


def test_cli_smoke(tmp_path, capsys):
    records = check_cli_sweep(["--workload", "ftl-basic",
                               "--max-points", "8"], tmp_path)
    assert len(records) == 9
    assert records[-1]["family"] == "power"
    captured = capsys.readouterr()
    assert "767 sites in 15 strata" in captured.out
    assert "budget cap" in captured.out
    assert "all invariants held" in captured.out


@pytest.mark.parametrize("family_name", list(FAMILIES))
def test_cli_defaults_to_the_family_first_workload(family_name, tmp_path):
    records = check_cli_sweep(["--family", family_name, "--max-points", "1"],
                              tmp_path)
    assert len(records) == 2
    assert records[-1]["workload"] == next(iter(
        FAMILIES[family_name].harnesses))


def test_every_harness_builds_on_the_backing_it_is_given():
    # The backing is one argument, so the harness x backing grid is a
    # plain loop in one process: every device a harness builds, through
    # its family's own ``build``, recovers on exactly that backing.
    cells = {}
    for family in FAMILIES.values():
        for name, factory in family.harnesses.items():
            cells.setdefault(name, (family, factory))
    assert len(cells) == len(WORKLOADS) + 3
    for name, (family, factory) in sorted(cells.items()):
        site = Site(family.name, family.modes[0], seed=1)
        for l2p in STRATEGY_NAMES:
            harness = family.build(functools.partial(factory, l2p=l2p),
                                   FaultPlan(), site)
            states = harness.recover()
            assert states, name
            assert {state.ssd.ftl.fwd.name for state in states} == {l2p}, \
                (name, l2p)
    report = sweep(POWER, WORKLOADS["ftl-basic"], "ftl-basic", cap=2,
                   l2p="delta")
    assert report.ok, report.failures
    assert report.l2p == report.summary()["l2p"] == "delta"


def test_cli_l2p_is_reported_and_does_not_leak(tmp_path, monkeypatch):
    # The backing is the --l2p argument and nothing else: a REPRO_L2P
    # left in the caller's shell neither changes a run nor is touched.
    monkeypatch.setenv("REPRO_L2P", "delta")
    records = check_cli_sweep(["--workload", "ftl-basic",
                               "--max-points", "3"], tmp_path)
    assert records[-1]["l2p"] == "flat"
    records = check_cli_sweep(["--workload", "ftl-basic", "--l2p",
                               "delta", "--max-points", "3"], tmp_path)
    assert records[-1]["l2p"] == "delta"
    assert os.environ["REPRO_L2P"] == "delta"


#: Every (family, workload) pair ``crashexplore --list`` prints.
LISTED = [(family.name, workload) for family in FAMILIES.values()
          for workload, factory in family.harnesses.items()
          if family.applies(factory)]


def test_listed_pairs_are_what_the_cli_lists(capsys):
    assert crashexplore_main(["--list"]) == 0
    listing = capsys.readouterr().out.splitlines()
    assert [(line.split(":")[0], workload) for line in listing
            for workload in line.split("workloads ")[1].split(";")[0]
            .split(", ")] == LISTED


@pytest.mark.parametrize("l2p", STRATEGY_NAMES)
@pytest.mark.parametrize("family_name, workload", LISTED)
def test_every_listed_sweep_holds_at_three_sites(family_name, workload, l2p,
                                                 tmp_path):
    # The smoke of the whole grid: every harness runs, is cut, recovers
    # and passes its checks on both backings (couch-small,
    # datajournal-share and postgres-small run in no other test).
    records = check_cli_sweep(["--family", family_name, "--workload",
                               workload, "--l2p", l2p, "--max-points", "3"],
                              tmp_path)
    assert 1 <= len(records) - 1 <= 3
    assert (records[-1]["workload"], records[-1]["l2p"]) == (workload, l2p)


@pytest.mark.parametrize("argv", [
    ["--family", "cluster-kill", "--workload", "ftl-basic"],
    ["--family", "power", "--workload", "cluster-small"],
    ["--family", "power", "--seeds", "2"],
    ["--family", "cluster-chaos", "--seeds", "0"],
    ["--family", "power", "--modes", "kill"],
    ["--max-points", "0"],
    ["--max-points", "-3"],
])
def test_cli_usage_errors_exit_2(argv, tmp_path, capsys):
    out = tmp_path / "never.jsonl"
    assert crashexplore_main([*argv, "--out", str(out)]) == 2
    assert "[crashexplore]" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag", [
    "--media-faults", "--chaos", "--cluster", "--cluster-media",
    "--cluster-chaos", "--media-modes=x", "--chaos-modes=x"])
def test_cli_removed_flags_are_gone(flag):
    # No alias survives: argparse rejects the old spellings (exit 2).
    # (--cluster* must not even match as a prefix of another option.)
    with pytest.raises(SystemExit) as exc:
        crashexplore_main([flag])
    assert exc.value.code == 2
