"""Satellite property test: the power family over the mixed workload.

``linkbench-small`` runs InnoDB (SHARE flush mode) and a couchstore on
SHARE-capable devices sized so tight that garbage collection runs *during*
the workload — the paper's hard case, where SHAREd pages, GC copybacks
and power failures interleave.  The sweep must find zero invariant
violations at every reachable fault point.

The full exhaustive sweep runs in CI via ``repro.tools.crashexplore``;
here a deterministic stratified slice plus hypothesis-sampled sites keep
the tier-1 suite fast while still crossing every point family.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.crashcheck import POWER, run_site
from repro.crashcheck.workloads import WORKLOADS
from repro.sim.faults import FaultPlan

FACTORY = WORKLOADS["linkbench-small"]

_CACHE = {}


def occurrences():
    """Enumerate once per test session (the run is deterministic)."""
    if "occ" not in _CACHE:
        _CACHE["occ"] = POWER.enumerate(FACTORY, POWER.modes)[0]
    return _CACHE["occ"]


def test_enumeration_reaches_all_layers():
    occ = occurrences()
    assert len(occ) >= 100, f"only {len(occ)} fault-point occurrences"
    points = {o.power_point for o in occ}
    # Couchstore commit AND compaction fault points must be reachable.
    assert "couch.commit_begin" in points
    assert "couch.before_header" in points
    assert "couch.compact_switch" in points
    assert "couch.compact_share" in points
    # InnoDB transaction and device-level points too.
    assert "innodb.txn_durable" in points
    assert any(p.startswith("ftl.") for p in points)
    assert any(p.startswith("maplog.") for p in points)


def test_gc_fires_during_the_workload():
    # The data device is provisioned so small that the mixed workload
    # forces garbage collection while SHAREd pages are live.
    faults = FaultPlan()
    harness = FACTORY(faults)
    harness.run()
    assert harness.data_ssd.ftl.stats.gc_events > 0


def test_stratified_sweep_zero_violations():
    occ = occurrences()
    # Every 23rd site, plus the last one: ~50 injections crossing every
    # phase of the run (txns, commits, compaction, checkpoints).
    sample = list(occ[::23]) + [occ[-1]]
    for site in sample:
        result = run_site(POWER, FACTORY, site)
        assert result.crashed, f"armed fault at {site} never fired"
        assert result.ok, (
            f"invariant violations at {site}: {result.violations}")


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_random_sites_hold_invariants(data):
    occ = occurrences()
    index = data.draw(st.integers(0, len(occ) - 1), label="occurrence index")
    result = run_site(POWER, FACTORY, occ[index])
    assert result.crashed
    assert result.ok, (
        f"invariant violations at {result.site}: {result.violations}")
