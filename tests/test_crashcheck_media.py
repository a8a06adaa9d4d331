"""Unit tests for the media-fault explorer machinery.

The exhaustive sweeps run in CI via ``repro.tools.crashexplore
--media-faults``; this file checks the mechanics — deterministic
operation counting, per-injection verdicts, budget-capped sampling, the
bad-block accounting invariant, and the CLI entry point.
"""

import json

import pytest

from repro.crashcheck.invariants import media_accounting
from repro.crashcheck.mediafaults import (
    ALL_MODES,
    MODE_ERASE_FAIL,
    MODE_POWER_READ,
    MODE_PROGRAM_FAIL,
    MODE_READ_RETRY,
    MODE_UNCORRECTABLE,
    MediaOccurrence,
    MediaReport,
    MediaResult,
    enumerate_media_occurrences,
    enumerate_media_ops,
    explore_media,
    explore_media_occurrence,
)
from repro.crashcheck.workloads import WORKLOADS
from repro.sim.faults import FaultPlan, ProgramFault
from repro.tools.crashexplore import main as crashexplore_main

FACTORY = WORKLOADS["ftl-basic"]

_CACHE = {}


def op_counts():
    if "ops" not in _CACHE:
        _CACHE["ops"] = enumerate_media_ops(FACTORY)
    return _CACHE["ops"]


class ListSink:
    def __init__(self):
        self.records = []

    def emit(self, record):
        self.records.append(dict(record))


def test_op_enumeration_is_deterministic_and_covers_all_kinds():
    counts = op_counts()
    assert counts == enumerate_media_ops(FACTORY)
    # The harness must expose every operation kind as sweep targets.
    assert counts["read"] > 0
    assert counts["program"] > 0
    assert counts["erase"] > 0


def test_occurrence_list_spans_modes_and_ops():
    counts = op_counts()
    occurrences = enumerate_media_occurrences(
        FACTORY, (MODE_READ_RETRY, MODE_PROGRAM_FAIL, MODE_ERASE_FAIL),
        op_counts=counts)
    per_mode = {}
    for occ in occurrences:
        per_mode.setdefault(occ.mode, []).append(occ)
    assert len(per_mode[MODE_READ_RETRY]) == counts["read"]
    assert len(per_mode[MODE_PROGRAM_FAIL]) == counts["program"]
    assert len(per_mode[MODE_ERASE_FAIL]) == counts["erase"]
    # nth runs 1..N per mode, in order.
    assert [o.nth for o in per_mode[MODE_ERASE_FAIL]] == \
        list(range(1, counts["erase"] + 1))


def test_power_read_pairs_are_deterministic_and_in_range():
    counts = op_counts()
    first = enumerate_media_occurrences(FACTORY, (MODE_POWER_READ,),
                                        op_counts=counts)
    second = enumerate_media_occurrences(FACTORY, (MODE_POWER_READ,),
                                         op_counts=counts)
    assert first == second
    assert first, "combined mode must produce injection pairs"
    for occ in first:
        assert occ.power_point is not None
        assert occ.power_nth >= 1
        assert 1 <= occ.nth <= counts["read"]


def test_read_retry_injection_verdict():
    result = explore_media_occurrence(
        FACTORY, MediaOccurrence(MODE_READ_RETRY, "read", 1))
    assert isinstance(result, MediaResult)
    assert result.fired
    assert not result.crashed
    assert result.aborted is None   # read-retry heals transient faults
    assert result.ok, result.violations


def test_program_fail_injection_verdict():
    result = explore_media_occurrence(
        FACTORY, MediaOccurrence(MODE_PROGRAM_FAIL, "program", 1))
    assert result.fired
    assert result.ok, result.violations


def test_uncorrectable_injection_typed_or_correct():
    result = explore_media_occurrence(
        FACTORY, MediaOccurrence(MODE_UNCORRECTABLE, "read", 1))
    assert result.fired
    assert result.ok, result.violations


def test_explore_media_caps_by_even_sampling():
    sink = ListSink()
    report = explore_media(FACTORY, "ftl-basic",
                           modes=(MODE_PROGRAM_FAIL,),
                           max_points=4, sink=sink)
    assert isinstance(report, MediaReport)
    assert len(report.results) == 4
    # The cap samples across the occurrence space, not just its head.
    assert max(res.nth for res in report.results) > 4
    assert report.ok
    site_records = [r for r in sink.records if r["type"] == "mediacheck"]
    assert len(site_records) == 4
    for record in site_records:
        assert record["workload"] == "ftl-basic"
        assert record["mode"] == MODE_PROGRAM_FAIL
        assert record["ok"] is True
        json.dumps(record)   # must be serialisable as-is
    summaries = [r for r in sink.records
                 if r["type"] == "mediacheck-summary"]
    assert len(summaries) == 1
    assert summaries[0]["explored"] == 4
    assert summaries[0]["ok"] is True
    assert summaries[0]["op_counts"]["program"] == op_counts()["program"]


def test_media_accounting_flags_bad_bookkeeping():
    faults = FaultPlan()
    harness = FACTORY(faults)
    ssd = harness.ssd
    for lpn in range(8):
        ssd.write(lpn, ("v", lpn))
    # Fail the next data program so a block is retired.
    faults.arm_media(ProgramFault(nth=faults.media.op_counts["program"] + 1))
    ssd.write(4, "rewritten")
    ftl = ssd.ftl
    bad = sorted(ftl.grown_bad_blocks)
    assert bad, "the injected program failure must retire a block"
    assert media_accounting("ftl", ssd) == []
    # Tamper: resurrect the retired block into the free pool.
    ftl._blocks.release(bad[0])
    violations = media_accounting("ftl", ssd)
    assert any("free pool" in v for v in violations)


def test_report_failures_and_summary_shape():
    good = MediaResult(MODE_READ_RETRY, "read", 1, None, 0,
                       True, False, None, ())
    bad = MediaResult(MODE_PROGRAM_FAIL, "program", 2, None, 0,
                      True, False, "OutOfSpaceError", ("lost data",))
    report = MediaReport("w", (MODE_READ_RETRY, MODE_PROGRAM_FAIL),
                         {"read": 1, "program": 2, "erase": 0},
                         (), (good, bad))
    assert not report.ok
    assert report.failures == [bad]
    summary = report.summary()
    assert summary["violations"] == 1
    assert summary["aborted"] == 1
    assert summary["ok"] is False


def test_cli_media_smoke(tmp_path, capsys):
    out = tmp_path / "report.jsonl"
    code = crashexplore_main(
        ["--workload", "ftl-basic", "--media-faults",
         "--media-modes", "program-fail,erase-fail",
         "--max-points", "5", "--out", str(out)])
    assert code == 0
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert sum(1 for r in records if r["type"] == "mediacheck") == 5
    assert records[-1]["type"] == "mediacheck-summary"
    assert records[-1]["ok"] is True
    captured = capsys.readouterr()
    assert "media injections" in captured.out
    assert "all invariants held" in captured.out


def test_cli_rejects_unknown_mode(tmp_path):
    code = crashexplore_main(
        ["--workload", "ftl-basic", "--media-faults",
         "--media-modes", "bogus", "--out", str(tmp_path / "r.jsonl")])
    assert code == 2


def test_cli_uncorrectable_needs_ftl_basic(tmp_path):
    code = crashexplore_main(
        ["--workload", "couch-small", "--media-faults",
         "--media-modes", MODE_UNCORRECTABLE,
         "--out", str(tmp_path / "r.jsonl")])
    assert code == 2


def test_all_modes_constant_is_closed():
    assert set(ALL_MODES) == {MODE_READ_RETRY, MODE_PROGRAM_FAIL,
                              MODE_ERASE_FAIL, MODE_UNCORRECTABLE,
                              MODE_POWER_READ}
