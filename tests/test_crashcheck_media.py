"""Unit tests for the media family of the sweep engine.

The exhaustive sweeps run in CI via ``repro.tools.crashexplore --family
media``; this file checks what the row adds — deterministic operation
counting, one site per mode × operation, per-injection verdicts, the
harness-gated ``uncorrectable`` mode, the bad-block accounting invariant,
and the CLI's mode handling.
"""

import pytest

from conftest import check_capped_sweep, check_cli_sweep
from repro.crashcheck import MEDIA, Site, run_site
from repro.crashcheck.families import (MODE_ERASE_FAIL, MODE_POWER_READ,
                                       MODE_PROGRAM_FAIL, MODE_READ_RETRY,
                                       MODE_UNCORRECTABLE)
from repro.crashcheck.invariants import media_accounting
from repro.crashcheck.workloads import WORKLOADS
from repro.sim.faults import FaultPlan, ProgramFault
from repro.tools.crashexplore import main as crashexplore_main

FACTORY = WORKLOADS["ftl-basic"]

_CACHE = {}


def enumerated(*modes):
    if modes not in _CACHE:
        _CACHE[modes] = MEDIA.enumerate(FACTORY, modes)
    return _CACHE[modes]


def op_counts():
    return enumerated(MODE_READ_RETRY)[1]["op_counts"]


def test_op_enumeration_is_deterministic_and_covers_all_kinds():
    counts = op_counts()
    assert counts == MEDIA.enumerate(FACTORY, ())[1]["op_counts"]
    # The harness must expose every operation kind as sweep targets.
    assert counts["read"] > 0
    assert counts["program"] > 0
    assert counts["erase"] > 0


def test_occurrence_list_spans_modes_and_ops():
    counts = op_counts()
    sites, __ = enumerated(MODE_READ_RETRY, MODE_PROGRAM_FAIL,
                           MODE_ERASE_FAIL)
    per_mode = {}
    for site in sites:
        per_mode.setdefault(site.mode, []).append(site)
    assert len(per_mode[MODE_READ_RETRY]) == counts["read"]
    assert len(per_mode[MODE_PROGRAM_FAIL]) == counts["program"]
    assert len(per_mode[MODE_ERASE_FAIL]) == counts["erase"]
    assert {site.op for site in per_mode[MODE_PROGRAM_FAIL]} == {"program"}
    # nth runs 1..N per mode, in order.
    assert [s.nth for s in per_mode[MODE_ERASE_FAIL]] == \
        list(range(1, counts["erase"] + 1))


def test_power_read_pairs_are_deterministic_and_in_range():
    counts = op_counts()
    first, __ = MEDIA.enumerate(FACTORY, (MODE_POWER_READ,))
    second, __ = MEDIA.enumerate(FACTORY, (MODE_POWER_READ,))
    assert first == second
    assert first, "combined mode must produce injection pairs"
    for site in first:
        assert site.power_point is not None
        assert site.power_nth >= 1
        assert 1 <= site.nth <= counts["read"]


def test_read_retry_injection_verdict():
    result = run_site(MEDIA, FACTORY, Site("media", MODE_READ_RETRY, 1,
                                           "read"))
    assert result.fired
    assert not result.crashed
    assert result.aborted is None   # read-retry heals transient faults
    assert result.ok, result.violations


def test_program_fail_injection_verdict():
    result = run_site(MEDIA, FACTORY, Site("media", MODE_PROGRAM_FAIL, 1,
                                           "program"))
    assert result.fired
    assert result.ok, result.violations


def test_uncorrectable_injection_typed_or_correct():
    # The dead page stays dead through recovery, so the harness is judged
    # by check_degraded(): exact value or a typed error, never wrong data.
    result = run_site(MEDIA, FACTORY, Site("media", MODE_UNCORRECTABLE, 1,
                                           "read"))
    assert result.fired
    assert result.ok, result.violations
    # A harness without that contract cannot run the mode at all ...
    with pytest.raises(TypeError):
        run_site(MEDIA, WORKLOADS["couch-small"],
                 Site("media", MODE_UNCORRECTABLE, 1, "read"))
    # ... and a full sweep of it simply leaves the mode out.
    assert MODE_UNCORRECTABLE in MEDIA.resolve_modes(FACTORY)
    assert MODE_UNCORRECTABLE not in \
        MEDIA.resolve_modes(WORKLOADS["couch-small"])


def test_a_typed_abort_is_a_violation_only_where_the_mode_forbids_it():
    class Aborting:
        """Ends run() with a typed device error whatever is armed."""

        def __init__(self, faults):
            self.inner = FACTORY(faults)

        def run(self):
            from repro.errors import OutOfSpaceError
            raise OutOfSpaceError("no spare left")

        def recover(self):
            return self.inner.recover()

        def check_engine(self):
            return []

    tolerated = run_site(MEDIA, Aborting, Site("media", MODE_PROGRAM_FAIL,
                                               1, "program"))
    assert tolerated.aborted == "OutOfSpaceError"
    assert tolerated.ok, tolerated.violations
    condemned = run_site(MEDIA, Aborting, Site("media", MODE_READ_RETRY, 1,
                                               "read"))
    assert condemned.aborted == "OutOfSpaceError"
    assert any("run aborted with OutOfSpaceError" in violation
               for violation in condemned.violations)


def test_explore_media_caps_by_even_sampling():
    report, rows, summary = check_capped_sweep(
        "media", "ftl-basic", 4, modes=(MODE_PROGRAM_FAIL,))
    # The cap samples across the site space, not just its head.
    assert max(res.site.nth for res in report.results) > 4
    assert {row["mode"] for row in rows} == {MODE_PROGRAM_FAIL}
    assert summary["op_counts"]["program"] == op_counts()["program"]


def test_media_accounting_flags_bad_bookkeeping():
    faults = FaultPlan()
    harness = FACTORY(faults)
    ssd = harness.ssd
    for lpn in range(8):
        ssd.write(lpn, ("v", lpn))
    # Fail the next data program so a block is retired.
    faults.media.arm(ProgramFault(nth=faults.media.op_counts["program"] + 1))
    ssd.write(4, "rewritten")
    ftl = ssd.ftl
    bad = sorted(ftl.grown_bad_blocks)
    assert bad, "the injected program failure must retire a block"
    assert media_accounting("ftl", ssd) == []
    # Tamper: resurrect the retired block into the free pool.
    ftl._blocks.release(bad[0])
    violations = media_accounting("ftl", ssd)
    assert any("free pool" in v for v in violations)


def test_cli_media_smoke(tmp_path, capsys):
    records = check_cli_sweep(
        ["--workload", "ftl-basic", "--family", "media",
         "--modes", "program-fail,erase-fail", "--max-points", "5"],
        tmp_path)
    assert len(records) == 6
    assert {r["mode"] for r in records[:-1]} == {MODE_PROGRAM_FAIL,
                                                 MODE_ERASE_FAIL}
    assert records[-1]["modes"] == [MODE_PROGRAM_FAIL, MODE_ERASE_FAIL]
    captured = capsys.readouterr()
    assert '"program": 247' in captured.out
    assert "all invariants held" in captured.out


def test_cli_rejects_unknown_mode(tmp_path):
    code = crashexplore_main(
        ["--workload", "ftl-basic", "--family", "media",
         "--modes", "bogus", "--out", str(tmp_path / "r.jsonl")])
    assert code == 2


def test_cli_uncorrectable_needs_ftl_basic(tmp_path, capsys):
    code = crashexplore_main(
        ["--workload", "couch-small", "--family", "media",
         "--modes", MODE_UNCORRECTABLE,
         "--out", str(tmp_path / "r.jsonl")])
    assert code == 2
    assert "check_degraded" in capsys.readouterr().err


def test_all_modes_constant_is_closed():
    assert set(MEDIA.modes) == {MODE_READ_RETRY, MODE_PROGRAM_FAIL,
                                MODE_ERASE_FAIL, MODE_UNCORRECTABLE,
                                MODE_POWER_READ}
