"""Unit tests for the command (host-boundary fault) family.

The exhaustive sweeps run in CI via ``repro.tools.crashexplore --family
command``; this file checks what the row adds — deterministic
SHARE-command counting, per-injection verdicts with guard-stats evidence,
the fallback-boundary power pairing, and which harnesses the family
applies to.
"""

import pytest

from conftest import check_capped_sweep, check_cli_sweep
from repro.crashcheck import COMMAND, Site, run_site
from repro.crashcheck.families import (MODE_CHAOS_POWER, MODE_SHARE_BUSY,
                                       MODE_SHARE_OUTAGE, MODE_SHARE_TIMEOUT)
from repro.crashcheck.workloads import WORKLOADS
from repro.tools.crashexplore import main as crashexplore_main

FACTORY = WORKLOADS["sqlite-share"]

_CACHE = {}


def enumerated(*modes):
    if modes not in _CACHE:
        _CACHE[modes] = COMMAND.enumerate(FACTORY, modes)
    return _CACHE[modes]


def share_count():
    return enumerated(MODE_SHARE_BUSY)[1]["share_commands"]


def site(mode, nth, flavor=None):
    return Site("command", mode, nth, "share", flavor)


def test_share_enumeration_is_deterministic_and_nonzero():
    count = share_count()
    assert count == COMMAND.enumerate(FACTORY, ())[1]["share_commands"]
    assert count > 0


def test_occurrence_list_covers_every_share_command():
    count = share_count()
    sites, __ = enumerated(MODE_SHARE_TIMEOUT, MODE_SHARE_BUSY,
                           MODE_SHARE_OUTAGE)
    per_mode = {}
    for occ in sites:
        per_mode.setdefault(occ.mode, []).append(occ)
    for mode in (MODE_SHARE_TIMEOUT, MODE_SHARE_BUSY, MODE_SHARE_OUTAGE):
        assert [o.nth for o in per_mode[mode]] == \
            list(range(1, count + 1))
    # Both timeout phases and both outage flavours are exercised, each
    # its own stratum for the cap.
    assert {o.flavor for o in per_mode[MODE_SHARE_TIMEOUT]} == \
        {"submit", "complete"}
    assert {o.flavor for o in per_mode[MODE_SHARE_OUTAGE]} == \
        {"unsupported", "timeout"}
    assert len({o.stratum for o in sites}) == 5


def test_chaos_power_pairs_include_every_fallback_boundary():
    sites, __ = enumerated(MODE_CHAOS_POWER)
    assert sites == COMMAND.enumerate(FACTORY, (MODE_CHAOS_POWER,))[0]
    assert sites, "the degraded run must reach checkpoints"
    boundary = [occ for occ in sites if "fallback" in occ.power_point]
    assert boundary, ("a sticky outage must drive the workload through "
                      "fallback checkpoints")
    for occ in sites:
        assert occ.power_point is not None
        assert occ.power_nth >= 1


def test_timeout_injection_healed_by_retry():
    result = run_site(COMMAND, FACTORY, site(MODE_SHARE_TIMEOUT, 1, "submit"))
    assert result.fired
    assert not result.crashed
    assert result.aborted is None
    assert result.extras["retries"] > 0
    assert result.ok, result.violations


def test_applied_but_lost_timeout_is_safe_to_retry():
    result = run_site(COMMAND, FACTORY,
                      site(MODE_SHARE_TIMEOUT, 2, "complete"))
    assert result.fired
    assert result.extras["retries"] > 0
    assert result.ok, result.violations


def test_busy_burst_healed_by_backoff():
    result = run_site(COMMAND, FACTORY, site(MODE_SHARE_BUSY, 1))
    assert result.fired
    assert result.extras["retries"] > 0
    assert result.ok, result.violations


def test_outage_served_by_fallback():
    result = run_site(COMMAND, FACTORY,
                      site(MODE_SHARE_OUTAGE, 1, "unsupported"))
    assert result.fired
    assert result.extras["fallbacks"] > 0
    assert result.ok, result.violations


def test_chaos_power_at_fallback_boundary():
    boundary = next(occ for occ in enumerated(MODE_CHAOS_POWER)[0]
                    if "fallback" in occ.power_point)
    result = run_site(COMMAND, FACTORY, boundary)
    assert result.crashed
    assert result.ok, result.violations


def test_fired_faults_need_guard_evidence():
    class Unguarded(FACTORY):
        """Same engine, but its guards report nothing happened."""

        def guards(self):
            return []

    healed = run_site(COMMAND, Unguarded, site(MODE_SHARE_BUSY, 1))
    assert healed.fired
    assert any("no guard reported a retry" in v for v in healed.violations)
    served = run_site(COMMAND, Unguarded,
                      site(MODE_SHARE_OUTAGE, 1, "unsupported"))
    assert any("no guard reported a fallback" in v
               for v in served.violations)


def test_harness_without_guards_is_rejected():
    with pytest.raises(TypeError):
        run_site(COMMAND, WORKLOADS["ftl-basic"],
                 site(MODE_SHARE_OUTAGE, 1, "unsupported"))
    assert not COMMAND.applies(WORKLOADS["ftl-basic"])
    with pytest.raises(ValueError):
        COMMAND.resolve_modes(WORKLOADS["ftl-basic"])


def test_explore_chaos_caps_by_even_sampling():
    report, rows, summary = check_capped_sweep(
        "command", "sqlite-share", 4, modes=(MODE_SHARE_OUTAGE,))
    # The cap samples across the site space, not just its head.
    assert max(res.site.nth for res in report.results) > 4 \
        or share_count() <= 4
    assert {row["mode"] for row in rows} == {MODE_SHARE_OUTAGE}
    assert {row["flavor"] for row in rows} == {"unsupported", "timeout"}
    assert summary["share_commands"] == share_count()
    assert summary["fallbacks"] > 0


def test_cli_chaos_smoke(tmp_path, capsys):
    records = check_cli_sweep(
        ["--workload", "sqlite-share", "--family", "command",
         "--modes", "share-outage", "--max-points", "3"], tmp_path)
    assert len(records) == 4
    assert records[-1]["fallbacks"] > 0
    captured = capsys.readouterr()
    assert '"share_commands": 8' in captured.out
    assert "fallbacks" in captured.out
    assert "all invariants held" in captured.out


def test_cli_rejects_unknown_chaos_mode(tmp_path):
    code = crashexplore_main(
        ["--workload", "sqlite-share", "--family", "command",
         "--modes", "bogus", "--out", str(tmp_path / "r.jsonl")])
    assert code == 2


def test_cli_rejects_guardless_workload(tmp_path, capsys):
    code = crashexplore_main(
        ["--workload", "ftl-basic", "--family", "command",
         "--out", str(tmp_path / "r.jsonl")])
    assert code == 2
    assert "guards" in capsys.readouterr().err


def test_cli_rejects_combined_dimensions(tmp_path):
    # One --family per run: a second one replaces the first (argparse),
    # and a mode of another family is a usage error, not a second sweep.
    code = crashexplore_main(
        ["--workload", "sqlite-share", "--family", "command",
         "--modes", "share-outage,program-fail",
         "--out", str(tmp_path / "r.jsonl")])
    assert code == 2


def test_all_chaos_modes_constant_is_closed():
    assert set(COMMAND.modes) == {MODE_SHARE_TIMEOUT, MODE_SHARE_BUSY,
                                  MODE_SHARE_OUTAGE, MODE_CHAOS_POWER}
