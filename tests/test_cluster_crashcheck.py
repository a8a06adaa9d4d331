"""Tests for the three cluster families: enumeration counts real ack
boundaries, a capped kill sweep fires a failover at every explored
boundary with zero ``no_lost_acked_write`` violations, and the harness's
oracle actually catches a lost write when one is manufactured.  Plus the
media-storm sweep (NAND faults instead of kills at ack boundaries,
proactive promotions expected across the sweep), the seeded chaos
scheduler (randomized kills + storms + busy faults + a mid-rebalance
kill, three invariants checked), and the CLI entry points for both."""

from conftest import check_capped_sweep, check_cli_sweep, pair_for
from repro.crashcheck import (CLUSTER_CHAOS, CLUSTER_KILL, CLUSTER_MEDIA,
                              ClusterChaosHarness, ClusterHarness, Site,
                              SiteResult, SweepReport, run_site, seed_sites)
from repro.crashcheck.invariants import replica_convergence
from repro.sim.faults import FaultPlan

SWEEP_POINTS = 8
CHAOS_TEST_STEPS = 80


class ShortChaosHarness(ClusterChaosHarness):
    """A third of the real schedule, so each seed stays quick."""
    steps = CHAOS_TEST_STEPS


def run_chaos_seed(seed):
    """One short schedule through the engine."""
    return run_site(CLUSTER_CHAOS, ShortChaosHarness, seed_sites(seed)[-1])


def test_enumeration_counts_acked_writes():
    sites, counts = CLUSTER_KILL.enumerate(ClusterHarness, CLUSTER_KILL.modes)
    assert counts["acked_writes"] > 50    # the 150-step mix is write-heavy
    assert [site.nth for site in sites] == \
        list(range(1, counts["acked_writes"] + 1))
    # Deterministic workload: a second enumeration agrees.
    assert CLUSTER_KILL.enumerate(ClusterHarness, CLUSTER_KILL.modes) \
        == (sites, counts)


def test_capped_sweep_is_clean():
    report, rows, summary = check_capped_sweep("cluster-kill",
                                               "cluster-small", SWEEP_POINTS)
    assert all(result.fired for result in report.results)
    assert all(result.extras["failovers"] >= 1 for result in report.results)
    assert all(row["victim"] is not None for row in rows)
    assert summary["acked_writes"] == len(report.sites)
    assert summary["failovers"] >= SWEEP_POINTS


def test_single_occurrence_detail():
    result = run_site(CLUSTER_KILL, ClusterHarness,
                      Site("cluster-kill", "kill", 5, "ack"))
    assert result.fired
    assert result.extras["victim"] is not None
    assert result.ok, result.violations
    record = result.as_record("cluster-small")
    assert record["type"] == "crashcheck"
    assert record["family"] == "cluster-kill"
    assert record["nth"] == 5
    assert record["ok"] is True


def test_a_kill_that_promotes_nobody_is_a_violation():
    class NoFailover(ClusterHarness):
        """The kill fires on the plan but the router never hears of it."""

        def __init__(self, faults):
            super().__init__(FaultPlan())
            self.swept = faults

        def run(self):
            super().run()
            self.swept.cluster.on_ack("shard0")

    result = run_site(CLUSTER_KILL, NoFailover,
                      Site("cluster-kill", "kill", 1, "ack"))
    assert result.fired and result.extras["failovers"] == 0
    assert any("no promotion was recorded" in v for v in result.violations)


def test_oracle_catches_a_lost_write():
    """Sanity-check the checker itself: silently dropping an acked key
    from the tier must surface as a no_lost_acked_write violation."""
    harness = ClusterHarness(FaultPlan())
    harness.run()
    key = next(k for k, v in harness.durable.items() if v is not None)
    pair = pair_for(harness.router, key)
    del pair.directory[key]    # the tier "forgets" an acked write
    harness.recover()
    violations = harness.check_engine()
    assert any("no_lost_acked_write" in v and repr(key) in v
               for v in violations)


# ------------------------------------------------------- media sweep


def test_media_sweep_trips_proactive_promotions():
    report, rows, summary = check_capped_sweep("cluster-media",
                                               "cluster-media", 6)
    assert all(result.fired for result in report.results)
    # The whole point of the dimension: storms promote *proactively*,
    # without a single kill, at least somewhere in the sweep.
    assert summary["proactive_promotions"] >= 1
    assert summary["sweep_violations"] == []
    # ... and a sweep where none did fails as a whole, site by site clean.
    quiet = [SiteResult(res.site, True, False, None, (),
                        dict(res.extras, proactive_promotions=0))
             for res in report.results]
    silent = SweepReport(CLUSTER_MEDIA, "cluster-media", "flat",
                         report.modes, {}, report.sites, tuple(quiet))
    assert silent.failures == []
    assert not silent.ok
    assert "proactive promotion" in silent.summary()["sweep_violations"][0]
    assert silent.summary()["violations"] == 1


# ------------------------------------------------------ chaos scheduler


def test_chaos_seed_is_clean_and_deterministic():
    first = run_chaos_seed(1)
    assert first.violations == (), first.violations
    assert first.extras["acked_writes"] > 0
    assert first.extras["ryw_checks"] > 0
    second = run_chaos_seed(1)
    # Same seed, same universe: every counter agrees.
    assert second == first


def test_chaos_seeds_differ():
    a = run_chaos_seed(1)
    b = run_chaos_seed(2)
    assert a.violations == b.violations == ()
    counters = ("kills", "storms", "busy_faults", "acked_writes")
    assert [a.extras[key] for key in counters] \
        != [b.extras[key] for key in counters]


def test_chaos_record_shape():
    result = run_chaos_seed(3)
    record = result.as_record("cluster-chaos")
    assert record["type"] == "crashcheck"
    assert record["family"] == "cluster-chaos"
    assert record["seed"] == 3
    assert record["steps"] == CHAOS_TEST_STEPS
    assert record["ok"] is True


def test_chaos_reports_a_diverged_replica():
    """The convergence check itself: a replica whose copy differs from
    the primary's must be named once the schedule quiesces."""
    harness = ShortChaosHarness(1)
    harness.run()
    assert harness.violations == []
    group = next(g for g in harness.router.pairs.values()
                 if g.directory and g.live_replicas())
    key, lpn = sorted(group.directory.items(), key=repr)[0]
    group.live_replicas()[0].ssd.write(lpn, "diverged")
    violations = replica_convergence(harness.router)
    assert any("replica_convergence" in v and repr(key) in v
               for v in violations)


# ----------------------------------------------------------------- CLI


def test_cli_cluster_media_smoke(tmp_path, capsys):
    records = check_cli_sweep(["--family", "cluster-media",
                               "--max-points", "6", "--quiet"], tmp_path)
    assert "proactive promotions" in capsys.readouterr().out
    assert records[-1]["proactive_promotions"] >= 1


def test_cli_cluster_chaos_smoke(tmp_path):
    records = check_cli_sweep(["--family", "cluster-chaos", "--seeds", "1",
                               "--quiet"], tmp_path)
    summary = records[-1]
    assert summary["sites"] == summary["explored"] == 1
    assert records[0]["seed"] == 1
    assert summary["violations"] == 0


def test_cli_rejects_combined_cluster_dimensions(tmp_path):
    # One family per run, and each cluster family sweeps only its own
    # harness: asking one for another's is a usage error.
    from repro.tools.crashexplore import main as crashexplore_main
    rc = crashexplore_main(["--family", "cluster-media",
                            "--workload", "cluster-chaos",
                            "--out", str(tmp_path / "x.jsonl")])
    assert rc == 2
