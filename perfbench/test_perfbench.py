"""Self-test of the benchmark harness (not part of the tier-1 suite).

    python -m pytest perfbench -q

Runs every workload at 1/50 of the benchmark's op counts: the harness's
own identities (call counts and self times sum to their totals), the
exactness of the virtual-clock metrics across processes, the verify
step's ability to fail, and the sensitivity of one workload's exact
metrics to a one-layer perturbation that must leave the others alone.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run as cli           # noqa: E402
import runner               # noqa: E402
from workloads import WORKLOADS, DeviceMixed    # noqa: E402

from repro.flash.nand import NandArray          # noqa: E402
from repro.innodb.buffer_pool import BufferPool  # noqa: E402

CONTRACT = cli.load_contract()
SECONDS = CONTRACT["run_seconds"] / 50
SEED = 3
NAMES = [entry["name"] for entry in CONTRACT["workloads"]]
LAYER_CALLS = [f"{layer}.calls_per_op" for layer in runner.layers.LAYERS]
LAYER_SELF = ([f"{layer}.self_us_per_op" for layer in runner.layers.LAYERS
               if layer != "obs"] + ["trace.self_us_per_op"])


def run_all(tmp_path, seed=SEED):
    """Every workload once in this process, traced: end-to-end and
    per-layer metrics from one run each."""
    return {name: runner.run_workload(
        name, seed, SECONDS, trace=True, setups=1,
        trace_path=str(tmp_path / f"trace-{name}.json")) for name in NAMES}


def exact(metrics: dict) -> dict:
    return {name: value for name, value in metrics.items()
            if cli.is_exact(name)}


@pytest.fixture(scope="module")
def baseline(tmp_path_factory):
    return run_all(tmp_path_factory.mktemp("baseline"))


def test_contract_names_the_workloads_the_harness_has():
    assert set(NAMES) == set(WORKLOADS)
    assert CONTRACT["paths"] == ["perfbench"]
    for section in ("end_to_end", "per_layer"):
        names = [entry["name"] for entry in CONTRACT[section]]
        assert len(names) == len(set(names))
        assert all(entry["unit"] for entry in CONTRACT[section])
    assert "setup_s" in [entry["name"] for entry in CONTRACT["end_to_end"]]


def test_every_declared_metric_is_reported(baseline):
    for name, result in baseline.items():
        assert result["correct"] and result["failed"] == 0, name
        for section in ("end_to_end", "per_layer"):
            declared = {entry["name"] for entry in CONTRACT[section]}
            assert set(result[section]) == declared, (name, section)
        for metric, value in result["end_to_end"].items():
            assert value > 0, (name, metric)


def test_layer_calls_sum_to_the_total(baseline):
    for name, result in baseline.items():
        layers_sum = sum(result["per_layer"][key] for key in LAYER_CALLS)
        total = result["end_to_end"]["py_calls_per_op"]
        assert layers_sum == pytest.approx(total, rel=1e-9), name


def test_layer_self_times_sum_to_the_span_pass_wall(baseline):
    for name, result in baseline.items():
        notes = result["notes"]
        per_op_us = notes["span_pass_wall_s"] * 1e6 / notes["pass_ops"]
        layers_sum = sum(result["per_layer"][key] for key in LAYER_SELF)
        assert layers_sum == pytest.approx(per_op_us, rel=0.02), name
        assert result["per_layer"]["trace.spans_per_op"] > 1


def test_bypass_layers_report_nothing(baseline):
    per_layer = {name: result["per_layer"]
                 for name, result in baseline.items()}
    assert per_layer["device-mixed"]["innodb.calls_per_op"] == 0
    assert per_layer["device-mixed"]["host.calls_per_op"] == 0
    assert per_layer["ycsb-f-share"]["innodb.calls_per_op"] == 0
    assert per_layer["ycsb-f-share"]["cluster.calls_per_op"] == 0
    assert per_layer["linkbench-share"]["couchstore.calls_per_op"] == 0
    assert per_layer["cluster-quorum"]["cluster.calls_per_op"] > 0
    assert per_layer["linkbench-share"]["innodb.calls_per_op"] > 0
    assert per_layer["ycsb-f-share"]["couchstore.calls_per_op"] > 0


def test_trace_file_is_a_chrome_trace(baseline):
    notes = baseline["device-mixed"]["notes"]
    with open(notes["trace_file"]) as handle:
        events = json.load(handle)["traceEvents"]
    assert len(events) == notes["trace_file_events"] > 0
    by_id = {event["args"]["id"]: event for event in events}
    for event in events:
        assert event["ph"] == "X" and event["dur"] >= 0
        parent = by_id.get(event["args"]["parent"])
        if parent is not None:      # children nest inside their parent
            assert parent["ts"] <= event["ts"]
            assert (event["ts"] + event["dur"]
                    <= parent["ts"] + parent["dur"] + 1e-6)
    assert {"workloads", "ssd", "ftl", "flash"} <= {e["cat"] for e in events}


def _cli(workload: str, seed: int) -> dict:
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"],
        stdout=subprocess.PIPE, text=True, timeout=170, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    units = {entry["name"]: entry["unit"]
             for entry in CONTRACT["end_to_end"]}
    assert {name: metric["unit"]
            for name, metric in result["metrics"].items()} == units
    return {name: metric["value"]
            for name, metric in result["metrics"].items()}


@pytest.mark.parametrize("workload", NAMES)
def test_exact_metrics_repeat_across_processes(workload, baseline):
    first = exact(_cli(workload, SEED))
    second = exact(_cli(workload, SEED))
    other_seed = exact(_cli(workload, SEED + 1))
    assert first == second
    assert first == exact(baseline[workload]["end_to_end"])
    assert first != other_seed


def test_corrupt_shadow_fails_verify():
    workload = DeviceMixed(SEED)
    workload.setup(0.05)
    workload.run(500)
    assert workload.verify() == []
    lpn = next(iter(workload.shadow))
    workload.shadow[lpn] = ("mixed", lpn, -1)
    assert workload.verify()


def test_compare_flags_regressions_and_exact_drift(tmp_path, baseline):
    def report(scale_rate=1.0, nudge_virtual=0.0):
        entry = {}
        for name, result in baseline.items():
            metrics = dict(result["end_to_end"])
            metrics["host_ops_per_s"] *= scale_rate
            metrics["virtual_mean_ms"] += nudge_virtual
            entry[name] = {"end_to_end": {
                key: {"value": value, "unit": ""}
                for key, value in metrics.items()}}
        return {"seed": SEED, "seconds": SECONDS, "workloads": entry}

    paths = {}
    for label, document in (("base", report()),
                            ("slower", report(scale_rate=0.5)),
                            ("drift", report(nudge_virtual=1e-9))):
        paths[label] = str(tmp_path / f"{label}.json")
        with open(paths[label], "w") as handle:
            json.dump(document, handle)
    assert cli.compare(paths["base"], paths["base"], CONTRACT) == 0
    assert cli.compare(paths["base"], paths["slower"], CONTRACT) == 1
    assert cli.compare(paths["base"], paths["drift"], CONTRACT) == 1


# ------------------------------------------------------------ sensitivity

def _noop():
    return None


def test_buffer_pool_perturbation_moves_only_linkbench(
        monkeypatch, tmp_path, baseline):
    original = BufferPool.fetch

    def fetch(self, page_id):
        _noop()
        _noop()
        _noop()
        return original(self, page_id)

    added_calls = 4     # three no-ops and the wrapper's own frame
    monkeypatch.setattr(BufferPool, "fetch", fetch)
    perturbed = run_all(tmp_path)
    for name in NAMES:
        before = baseline[name]["end_to_end"]
        after = perturbed[name]["end_to_end"]
        if name != "linkbench-share":
            assert exact(after) == exact(before), name
            continue
        fetches = perturbed[name]["per_layer"][
            "innodb.buffer_pool.fetches_per_op"]
        assert fetches > 0
        assert after["py_calls_per_op"] - before["py_calls_per_op"] == \
            pytest.approx(added_calls * fetches, rel=1e-9)
        virtual = [key for key in before if key.startswith(("virtual_",
                                                            "nand_"))]
        assert {key: after[key] for key in virtual} == \
            {key: before[key] for key in virtual}


def test_nand_program_perturbation_moves_device_mixed_most(
        monkeypatch, tmp_path, baseline):
    original = NandArray.program

    def program(self, ppn, data, spare=None):
        return original(self, ppn, data, spare)

    monkeypatch.setattr(NandArray, "program", program)
    perturbed = run_all(tmp_path)
    relative = {}
    for name in NAMES:
        before = baseline[name]["end_to_end"]
        after = perturbed[name]["end_to_end"]
        virtual = [key for key in before if key.startswith(("virtual_",
                                                            "nand_"))]
        assert {key: after[key] for key in virtual} == \
            {key: before[key] for key in virtual}, name
        added = after["py_calls_per_op"] - before["py_calls_per_op"]
        assert added > 0, name
        relative[name] = added / before["py_calls_per_op"]
    assert max(relative, key=relative.get) == "device-mixed"
