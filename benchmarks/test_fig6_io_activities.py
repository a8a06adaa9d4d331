"""Figure 6: I/O activities inside the SSD while running LinkBench.

Paper shape: SHARE reduces host page writes by ~45 % (the reduction is
bounded below 50 % by filesystem metadata traffic), GC events by ~55 %,
and copyback pages by ~75 %, across every buffer size.
"""

from pathlib import Path

from conftest import run_once

from repro.bench import experiments
from repro.bench.experiments import fig5b, fig6, linkbench_telemetry


def test_fig6_io_counters(benchmark, scale):
    base = run_once(benchmark, lambda: fig5b(scale))
    result = fig6(scale, fig5b_result=base)
    print()
    print(experiments.print_fig6(result))
    by_buffer = {}
    for row in result["rows"]:
        by_buffer.setdefault(row["paper_buffer_mib"], {})[row["mode"]] = row
    for buffer_mib, modes in by_buffer.items():
        dwb = modes["dwb_on"]
        share = modes["share"]
        write_ratio = share["host_write_pages"] / dwb["host_write_pages"]
        assert 0.45 < write_ratio < 0.60, (
            f"host writes should roughly halve at {buffer_mib} MiB "
            f"(got {write_ratio:.2f})")
        assert share["gc_events"] < dwb["gc_events"], (
            f"GC events should drop at {buffer_mib} MiB")
        assert share["copyback_pages"] < dwb["copyback_pages"] * 0.6, (
            f"copybacks should drop sharply at {buffer_mib} MiB")


def test_fig6_reduction_cascade(benchmark, scale):
    """The paper's observation chain: write reduction -> larger GC-event
    reduction -> even larger copyback reduction."""
    base = run_once(benchmark, lambda: fig5b(scale))
    cells = base["cells"]
    write_red = []
    gc_red = []
    cb_red = []
    for buffer_mib in experiments.PAPER_BUFFER_SWEEP_MIB:
        dwb = cells[(buffer_mib, "dwb_on")]
        share = cells[(buffer_mib, "share")]
        write_red.append(1 - share["host_write_pages"] / dwb["host_write_pages"])
        gc_red.append(1 - share["gc_events"] / max(1, dwb["gc_events"]))
        cb_red.append(1 - share["copyback_pages"]
                      / max(1, dwb["copyback_pages"]))
    mean = lambda xs: sum(xs) / len(xs)
    print(f"\nmean reductions: writes {mean(write_red):.0%}, "
          f"GC {mean(gc_red):.0%}, copybacks {mean(cb_red):.0%} "
          f"(paper: 45% / 55% / 75%)")
    assert mean(gc_red) > mean(write_red) * 0.9
    assert mean(cb_red) > mean(gc_red) * 0.9


def test_fig6_telemetry_artifact(benchmark, scale, tmp_path):
    """End-to-end telemetry: an instrumented LinkBench run writes a JSONL
    artifact under results/ from which the report CLI reproduces the
    Figure-6 activity breakdown with per-span GC attribution, and the
    Chrome-trace sample ``results/trace.json`` (committed at tiny scale)."""
    import json

    from repro.obs import read_jsonl, validate_chrome_trace
    from repro.tools import report

    results = Path(__file__).resolve().parent.parent / "results"
    out = results / "fig6_telemetry.jsonl"
    trace_out = results / "trace.json"
    cell = run_once(benchmark, lambda: linkbench_telemetry(
        scale, jsonl_path=str(out), trace_path=str(trace_out)))
    assert out.exists()

    # The timeline is schema-valid and has all three kinds of lane.
    trace = validate_chrome_trace(json.loads(trace_out.read_text()))
    lanes = {event.get("cat") for event in trace["traceEvents"]}
    assert {"span", "command", "channel"} <= lanes
    # Everything in it is on the virtual clock: a rerun reproduces the
    # file byte for byte.
    again = tmp_path / "trace.json"
    linkbench_telemetry(scale, jsonl_path=str(tmp_path / "again.jsonl"),
                        trace_path=str(again))
    assert again.read_bytes() == trace_out.read_bytes()

    records = read_jsonl(str(out))
    spans = [r for r in records if r.get("type") == "span"]
    snapshots = [r for r in records if r.get("type") == "metrics"]
    assert spans and snapshots

    # The final snapshot agrees with the cell's own device counters.
    metrics = report.last_metrics(records)
    assert metrics["device.data.host_write_pages"] == \
        cell["host_write_pages"]

    # Figure-6 breakdown renders with live host-write and GC bars.
    table = dict(report.activity_rows(metrics))
    assert table["host_write_pages"] > 0
    text = report.render(records)
    print()
    print(text)
    assert "I/O activities" in text
    assert "Latency distributions" in text

    # Every GC event attributes through the span tree to a host-level
    # root operation (nothing orphaned at ftl.gc itself).
    attribution = report.gc_attribution(records)
    if table["ftl.gc.events"]:   # summed over device.<name>.ftl.gc.events
        assert attribution
        assert "ftl.gc" not in attribution
        assert sum(attribution.values()) == table["ftl.gc.events"]
