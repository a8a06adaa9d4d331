"""One function per table/figure of the paper's evaluation (Section 5).

Each function runs the scaled experiment and returns a plain dict of the
numbers; ``print_*`` renders them in the paper's row/series format.  The
per-experiment index in DESIGN.md maps each function to the paper artifact
it regenerates; EXPERIMENTS.md records paper-vs-measured.

Run everything from the command line::

    python -m repro.bench.experiments            # QUICK scale
    python -m repro.bench.experiments --scale tiny
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.bench.harness import (
    SCALES,
    Scale,
    ScaleParams,
    buffer_pages_for,
    build_couch_stack,
    build_innodb_stack,
    build_postgres_stack,
)
from repro.bench.report import format_series, format_table
from repro.couchstore.compaction import compact
from repro.couchstore.engine import CommitMode
from repro.innodb.engine import FlushMode
from repro.workloads.linkbench import LinkBenchConfig, LinkBenchDriver
from repro.workloads.pgbench import PgBenchConfig, run_pgbench, setup_pgbench
from repro.workloads.ycsb import YcsbConfig, YcsbDriver, YcsbWorkload

MIB = 1024 * 1024

#: Buffer-pool sizes of Figure 5(b)/6 in the paper's MiB.
PAPER_BUFFER_SWEEP_MIB = (50, 75, 100, 125, 150)
PAPER_PAGE_SIZES = (4096, 8192, 16384)
PAPER_BATCH_SIZES = (1, 4, 16, 64, 256)


def _estimate_db_pages(nodes: int, leaf_capacity: int) -> int:
    """Analytic size of the loaded LinkBench database in pages: node,
    link (mean out-degree 5), and count trees.  Random-order inserts leave
    leaves roughly half full, hence the ~2.1 split-overhead factor
    (calibrated against measured post-load footprints)."""
    entries = nodes * (1 + 5 + 2)
    return max(256, int(entries / leaf_capacity * 2.1))


# --------------------------------------------------------------------------
# LinkBench cells (Figures 5, 6; Table 1)
# --------------------------------------------------------------------------

#: The paper ran 16 concurrent LinkBench client threads.
LINKBENCH_CLIENTS = 16

#: Bounds on the exported Chrome trace (a committable, loadable sample):
#: device ring entries kept, and finished spans taken from the run's tail.
TRACE_CAPACITY = 1024
TRACE_SPAN_LIMIT = 2048


def run_linkbench_cell(mode: FlushMode, page_size: int,
                       paper_buffer_mib: int, params: ScaleParams,
                       collect_latencies: bool = False,
                       telemetry=None,
                       force_fallback: bool = False,
                       queue_depth: int = 1,
                       channel_count: Optional[int] = None) -> Dict:
    """One (mode, page size, buffer size) cell of the MySQL experiments.

    With ``telemetry`` the whole stack is instrumented: spans and metric
    snapshots go to the telemetry's sink, warm-up is excluded via
    pause/resume, the measured run's per-operation latencies land in
    ``linkbench.op.<op>.latency_ms`` histograms, and the last
    ``TRACE_CAPACITY`` commands and channel-busy intervals of each device
    come back as ``cell["device_traces"]`` — the ``devices`` argument of
    :func:`repro.obs.chrome_trace`.

    ``force_fallback`` latches the SHARE circuit breaker open before the
    run, so every flush is served by the classic two-phase fallback —
    the degraded-mode cost the resilience benchmarks measure."""
    trace_capacity = TRACE_CAPACITY if telemetry is not None else 0
    leaf_capacity = max(8, 32 * (page_size // 4096))
    db_pages = _estimate_db_pages(params.linkbench_nodes, leaf_capacity)
    buffer_pages = buffer_pages_for(paper_buffer_mib, db_pages, page_size)
    stack = build_innodb_stack(mode, page_size, buffer_pages, db_pages,
                               telemetry=telemetry,
                               queue_depth=queue_depth,
                               channel_count=channel_count,
                               trace_capacity=trace_capacity,
                               interval_capacity=trace_capacity)
    if force_fallback:
        stack.engine.dwb.resilience.breaker.force_open()
    tel = stack.data_ssd.telemetry
    driver = LinkBenchDriver(
        stack.engine, stack.clock,
        LinkBenchConfig(node_count=params.linkbench_nodes))
    tel.pause()  # exclude load + warm-up from spans and snapshots
    driver.load()
    # Warm-up (the paper's 300 s pre-run), then measure from zero.
    driver.run(max(500, params.linkbench_transactions // 8))
    stack.data_ssd.reset_measurement()
    stack.log_ssd.reset_measurement()
    stack.clock.reset()
    tel.resume()
    tel.reset_measurement()
    result = driver.run(params.linkbench_transactions,
                        concurrency=LINKBENCH_CLIENTS)
    stats = stack.data_ssd.stats
    if telemetry is not None:
        if telemetry.enabled:
            for op in result.latencies.op_names():
                hist = telemetry.histogram(f"linkbench.op.{op}.latency_ms")
                for sample in result.latencies.histogram(op)._samples:
                    hist.record(sample)
        telemetry.snapshot(stack.clock.now_us)
    cell = {
        "mode": mode.value,
        "page_size": page_size,
        "paper_buffer_mib": paper_buffer_mib,
        "buffer_pages": buffer_pages,
        "throughput_tps": result.throughput_tps,
        "host_write_pages": stats.host_write_pages,
        "host_read_pages": stats.host_read_pages,
        "gc_events": stats.gc_events,
        "copyback_pages": stats.copyback_pages,
        "share_pairs": stats.share_pairs,
        "write_amplification": stats.write_amplification,
        "max_erase": stack.data_ssd.nand.max_erase_count,
        "resilience_fallbacks": stack.engine.dwb.resilience.stats.fallbacks,
        "queue_depth": queue_depth,
        "channel_count": stack.data_ssd.channels.channel_count,
        "data_queue_report": stack.data_ssd.queue_report(),
    }
    if collect_latencies:
        cell["latency_table"] = result.latencies.table()
    if telemetry is not None:
        cell["device_traces"] = [(ssd.name, ssd.trace, ssd.intervals)
                                 for ssd in (stack.data_ssd, stack.log_ssd)]
    return cell


def linkbench_telemetry(scale: Scale = Scale.QUICK,
                        jsonl_path: str = "results/linkbench_telemetry.jsonl",
                        trace_path: Optional[str] = None) -> Dict:
    """One fully instrumented LinkBench cell: runs (SHARE, 4 KiB, 50 MB)
    with a JSONL sink and returns the cell dict plus the artifact path.

    Render the artifact with ``python -m repro.tools.report <path>``.
    ``trace_path`` also exports the run's tail as a Chrome trace (host
    spans, device commands, channel lanes) — what produces the committed
    ``results/trace.json``.
    """
    import os

    from repro.obs import (JsonlSink, Telemetry, chrome_trace,
                           export_chrome_trace, read_jsonl)

    directory = os.path.dirname(jsonl_path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    telemetry = Telemetry(JsonlSink(jsonl_path),
                          snapshot_interval_us=1_000_000)
    try:
        cell = run_linkbench_cell(FlushMode.SHARE, 4096, 50, SCALES[scale],
                                  collect_latencies=True,
                                  telemetry=telemetry)
    finally:
        telemetry.close()
    cell["jsonl_path"] = jsonl_path
    devices = cell.pop("device_traces")
    if trace_path is not None:
        # Tail of the span stream only: spans close children-first, so a
        # suffix never contains a child whose parent record is missing.
        spans = [r for r in read_jsonl(jsonl_path) if r["type"] == "span"]
        export_chrome_trace(trace_path, chrome_trace(
            span_records=spans[-TRACE_SPAN_LIMIT:], devices=devices))
        cell["trace_path"] = trace_path
    return cell


#: The flush modes Figure 5 compares.
FIG5_MODES = (FlushMode.DWB_ON, FlushMode.SHARE)


def fig5a(scale: Scale = Scale.QUICK) -> Dict:
    """Figure 5(a): LinkBench throughput vs page size (50 MB buffer)."""
    params = SCALES[scale]
    cells = {}
    for page_size in PAPER_PAGE_SIZES:
        for mode in FIG5_MODES:
            cells[(page_size, mode.value)] = run_linkbench_cell(
                mode, page_size, 50, params)
    return {"experiment": "fig5a", "scale": scale.value, "cells": cells}


def fig5b(scale: Scale = Scale.QUICK) -> Dict:
    """Figure 5(b): LinkBench throughput vs buffer-pool size (4 KiB
    pages).  The same runs also provide Figure 6's I/O counters."""
    params = SCALES[scale]
    cells = {}
    for buffer_mib in PAPER_BUFFER_SWEEP_MIB:
        for mode in FIG5_MODES:
            cells[(buffer_mib, mode.value)] = run_linkbench_cell(
                mode, 4096, buffer_mib, params)
    return {"experiment": "fig5b", "scale": scale.value, "cells": cells}


def fig6(scale: Scale = Scale.QUICK,
         fig5b_result: Optional[Dict] = None) -> Dict:
    """Figure 6: host page writes (a), GC events (b), copyback pages (c),
    per buffer size.  Reuses Figure 5(b)'s runs when given."""
    base = fig5b_result or fig5b(scale)
    cells = base["cells"]
    out = {"experiment": "fig6", "scale": base["scale"], "rows": []}
    for (buffer_mib, mode) in sorted(cells):
        cell = cells[(buffer_mib, mode)]
        out["rows"].append({
            "paper_buffer_mib": buffer_mib,
            "mode": mode,
            "host_write_pages": cell["host_write_pages"],
            "gc_events": cell["gc_events"],
            "copyback_pages": cell["copyback_pages"],
        })
    return out


def table1(scale: Scale = Scale.QUICK) -> Dict:
    """Table 1: per-operation latency distribution, DWB-On vs SHARE
    (50 MB buffer, 4 KiB pages)."""
    params = SCALES[scale]
    cells = {}
    for mode in (FlushMode.DWB_ON, FlushMode.SHARE):
        cells[mode.value] = run_linkbench_cell(
            mode, 4096, 50, params, collect_latencies=True)
    return {"experiment": "table1", "scale": scale.value, "cells": cells}


# --------------------------------------------------------------------------
# YCSB cells (Figures 7, 8; Table 2)
# --------------------------------------------------------------------------

def _run_ycsb_sweep(workload: YcsbWorkload, scale: Scale) -> Dict:
    params = SCALES[scale]
    cells = {}
    for mode in (CommitMode.ORIGINAL, CommitMode.SHARE):
        stack = build_couch_stack(
            mode, params.ycsb_records,
            params.ycsb_operations * len(PAPER_BATCH_SIZES))
        tel = stack.ssd.telemetry
        driver = YcsbDriver(stack.store, stack.clock,
                            YcsbConfig(record_count=params.ycsb_records))
        tel.pause()  # the load phase is not part of any cell
        driver.load()
        tel.resume()
        for batch_size in PAPER_BATCH_SIZES:
            stack.ssd.reset_measurement()
            stack.clock.reset()
            tel.reset_measurement()
            result = driver.run(workload, params.ycsb_operations, batch_size)
            stats = stack.ssd.stats
            cells[(batch_size, mode.value)] = {
                "mode": mode.value,
                "batch_size": batch_size,
                "throughput_ops": result.throughput_ops,
                "written_bytes": stats.host_written_bytes,
                "written_mib": stats.host_written_bytes / MIB,
                "share_pairs": stats.share_pairs,
                "gc_events": stats.gc_events,
                "stale_ratio": stack.store.stale_ratio,
            }
    return {"experiment": f"ycsb-{workload.value}", "scale": scale.value,
            "cells": cells}


def fig7(scale: Scale = Scale.QUICK) -> Dict:
    """Figure 7: YCSB workload-F throughput (a) and written data (b) vs
    batch size, original vs SHARE Couchbase."""
    out = _run_ycsb_sweep(YcsbWorkload.F, scale)
    out["experiment"] = "fig7"
    return out


def fig8(scale: Scale = Scale.QUICK) -> Dict:
    """Figure 8: YCSB workload-A throughput vs batch size."""
    out = _run_ycsb_sweep(YcsbWorkload.A, scale)
    out["experiment"] = "fig8"
    return out


def table2(scale: Scale = Scale.QUICK) -> Dict:
    """Table 2: compaction elapsed time and written bytes, original vs
    SHARE.  Builds identical aged stores (every record updated once so
    roughly half the file is stale), then compacts."""
    params = SCALES[scale]
    rows = {}
    for mode in (CommitMode.ORIGINAL, CommitMode.SHARE):
        stack = build_couch_stack(mode, params.ycsb_records,
                                  params.ycsb_records * 2)
        driver = YcsbDriver(stack.store, stack.clock,
                            YcsbConfig(record_count=params.ycsb_records))
        driver.load()
        driver.run(YcsbWorkload.F, params.ycsb_records, batch_size=16)
        store = stack.store
        stack.ssd.reset_measurement()
        stack.clock.reset()
        new_store, result = compact(store, stack.clock)
        rows[mode.value] = {
            "mode": mode.value,
            "elapsed_seconds": result.elapsed_seconds,
            "written_bytes": result.written_bytes,
            "written_mib": result.written_mib,
            "read_mib": result.read_bytes / MIB,
            "docs_moved": result.docs_moved,
            "index_nodes_written": result.index_nodes_written,
            "share_commands": result.share_commands,
            "stale_ratio_before": None,
        }
    return {"experiment": "table2", "scale": scale.value, "rows": rows}


# --------------------------------------------------------------------------
# PostgreSQL full_page_writes (in-text experiment of Section 5.3.1)
# --------------------------------------------------------------------------

def pgbench_fpw(scale: Scale = Scale.QUICK) -> Dict:
    """In-text experiment: pgbench with full_page_writes on vs off."""
    params = SCALES[scale]
    rows = {}
    for fpw in (True, False):
        clock, data_ssd, wal_ssd, engine = build_postgres_stack(
            fpw, params.pgbench_scale)
        config = PgBenchConfig(scale=params.pgbench_scale)
        setup_pgbench(engine, config)
        clock.reset()
        result = run_pgbench(engine, clock, params.pgbench_transactions,
                             config)
        rows["on" if fpw else "off"] = {
            "full_page_writes": fpw,
            "throughput_tps": result.throughput_tps,
            "wal_bytes": result.wal_bytes,
            "wal_mib": result.wal_bytes / MIB,
            "wal_full_page_mib": result.wal_full_page_bytes / MIB,
            "wal_record_mib": result.wal_record_bytes / MIB,
        }
    return {"experiment": "pgbench_fpw", "scale": scale.value, "rows": rows}


# --------------------------------------------------------------------------
# Printing
# --------------------------------------------------------------------------

def print_fig5a(result: Dict) -> str:
    cells = result["cells"]
    page_sizes = sorted({key[0] for key in cells})
    modes = sorted({key[1] for key in cells})
    series = {mode: [cells[(p, mode)]["throughput_tps"]
                     for p in page_sizes] for mode in modes}
    return format_series("Figure 5(a): LinkBench throughput vs page size "
                         "(tx/s)", "page_size", page_sizes, series)


def print_fig5b(result: Dict) -> str:
    cells = result["cells"]
    buffers = sorted({key[0] for key in cells})
    modes = sorted({key[1] for key in cells})
    series = {mode: [cells[(b, mode)]["throughput_tps"]
                     for b in buffers] for mode in modes}
    return format_series("Figure 5(b): LinkBench throughput vs buffer size "
                         "(tx/s)", "buffer_MiB(paper)", buffers, series)


def print_fig6(result: Dict) -> str:
    rows = [[row["paper_buffer_mib"], row["mode"], row["host_write_pages"],
             row["gc_events"], row["copyback_pages"]]
            for row in result["rows"]]
    return format_table(
        ["buffer_MiB", "mode", "host_writes(a)", "gc_events(b)",
         "copybacks(c)"], rows,
        title="Figure 6: IO activities inside the SSD")


def print_table1(result: Dict) -> str:
    blocks = []
    for mode, cell in result["cells"].items():
        table = cell["latency_table"]
        rows = []
        for op in sorted(table):
            summary = table[op]
            rows.append([op, summary["mean"], summary["p25"], summary["p50"],
                         summary["p75"], summary["p99"], summary["max"]])
        blocks.append(format_table(
            ["op", "mean", "P25", "P50", "P75", "P99", "max"], rows,
            title=f"Table 1 ({mode}): LinkBench latency (ms)"))
    return "\n\n".join(blocks)


def print_fig7(result: Dict) -> str:
    cells = result["cells"]
    batches = sorted({key[0] for key in cells})
    modes = sorted({key[1] for key in cells})
    tput = {m: [cells[(b, m)]["throughput_ops"] for b in batches]
            for m in modes}
    written = {m: [cells[(b, m)]["written_mib"] for b in batches]
               for m in modes}
    return "\n\n".join([
        format_series("Figure 7(a): YCSB-F throughput (ops/s)",
                      "batch_size", batches, tput),
        format_series("Figure 7(b): YCSB-F written data (MiB)",
                      "batch_size", batches, written),
    ])


def print_fig8(result: Dict) -> str:
    cells = result["cells"]
    batches = sorted({key[0] for key in cells})
    modes = sorted({key[1] for key in cells})
    tput = {m: [cells[(b, m)]["throughput_ops"] for b in batches]
            for m in modes}
    return format_series("Figure 8: YCSB-A throughput (ops/s)",
                         "batch_size", batches, tput)


def print_table2(result: Dict) -> str:
    rows = [[mode, row["elapsed_seconds"], row["written_mib"],
             row["read_mib"], row["docs_moved"]]
            for mode, row in result["rows"].items()]
    return format_table(
        ["mode", "elapsed_s", "written_MiB", "read_MiB", "docs"], rows,
        title="Table 2: effect of SHARE on compaction")


def print_pgbench(result: Dict) -> str:
    rows = [[name, row["throughput_tps"], row["wal_mib"],
             row["wal_full_page_mib"], row["wal_record_mib"]]
            for name, row in result["rows"].items()]
    return format_table(
        ["full_page_writes", "tps", "WAL_MiB", "FPI_MiB", "records_MiB"],
        rows, title="pgbench: full_page_writes on vs off (in-text, 5.3.1)")


def run_all(scale: Scale = Scale.QUICK) -> str:
    """Regenerate every table and figure; returns the full text report."""
    sections: List[str] = []
    result_5a = fig5a(scale)
    sections.append(print_fig5a(result_5a))
    result_5b = fig5b(scale)
    sections.append(print_fig5b(result_5b))
    sections.append(print_fig6(fig6(scale, fig5b_result=result_5b)))
    sections.append(print_table1(table1(scale)))
    sections.append(print_fig7(fig7(scale)))
    sections.append(print_fig8(fig8(scale)))
    sections.append(print_table2(table2(scale)))
    sections.append(print_pgbench(pgbench_fpw(scale)))
    return "\n\n".join(sections)


def main(argv: Optional[List[str]] = None) -> int:
    import argparse
    parser = argparse.ArgumentParser(
        description="Regenerate the paper's tables and figures")
    parser.add_argument("--scale", choices=[s.value for s in Scale],
                        default=Scale.QUICK.value)
    parser.add_argument("--only", choices=[
        "fig5a", "fig5b", "fig6", "table1", "fig7", "fig8", "table2",
        "pgbench", "telemetry"], default=None)
    parser.add_argument(
        "--telemetry-out", default="results/linkbench_telemetry.jsonl",
        help="JSONL artifact path for --only telemetry")
    args = parser.parse_args(argv)
    scale = Scale(args.scale)
    if args.only == "telemetry":
        cell = linkbench_telemetry(scale, jsonl_path=args.telemetry_out)
        print(f"throughput_tps: {cell['throughput_tps']:.1f}")
        print(f"telemetry written to {cell['jsonl_path']}")
        print(f"render with: python -m repro.tools.report "
              f"{cell['jsonl_path']}")
        return 0
    if args.only is None:
        print(run_all(scale))
        return 0
    printers = {
        "fig5a": lambda: print_fig5a(fig5a(scale)),
        "fig5b": lambda: print_fig5b(fig5b(scale)),
        "fig6": lambda: print_fig6(fig6(scale)),
        "table1": lambda: print_table1(table1(scale)),
        "fig7": lambda: print_fig7(fig7(scale)),
        "fig8": lambda: print_fig8(fig8(scale)),
        "table2": lambda: print_table2(table2(scale)),
        "pgbench": lambda: print_pgbench(pgbench_fpw(scale)),
    }
    print(printers[args.only]())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
