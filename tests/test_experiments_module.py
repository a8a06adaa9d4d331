"""Smoke tests for the experiments module: printers render synthetic
results correctly, and the CLI end-to-end path works at TINY scale for
the cheapest experiment."""

import dataclasses

import pytest

from repro.bench import experiments
from repro.bench.harness import SCALES, Scale
from repro.innodb.engine import FlushMode


def synthetic_linkbench_cells(metric="throughput_tps"):
    cells = {}
    for x in (4096, 8192):
        for mode in ("dwb_on", "share"):
            cells[(x, mode)] = {
                "throughput_tps": 100.0 if mode == "dwb_on" else 200.0,
                "host_write_pages": 1000 if mode == "dwb_on" else 500,
                "gc_events": 10,
                "copyback_pages": 50,
            }
    return cells


def test_print_fig5a_renders():
    text = experiments.print_fig5a(
        {"cells": synthetic_linkbench_cells(), "scale": "tiny"})
    assert "Figure 5(a)" in text
    assert "dwb_on" in text and "share" in text
    assert "4096" in text


def test_print_fig6_renders():
    result = {"rows": [{"paper_buffer_mib": 50, "mode": "share",
                        "host_write_pages": 500, "gc_events": 5,
                        "copyback_pages": 10}]}
    text = experiments.print_fig6(result)
    assert "Figure 6" in text
    assert "500" in text


def test_print_table1_renders():
    summary = {"mean": 1.0, "p25": 0.5, "p50": 0.9, "p75": 1.2,
               "p99": 5.0, "max": 9.0}
    result = {"cells": {"share": {"latency_table": {"Get_Node": summary}}}}
    text = experiments.print_table1(result)
    assert "Get_Node" in text
    assert "P99" in text


def test_print_fig7_and_fig8_render():
    cells = {}
    for batch in (1, 4):
        for mode in ("original", "share"):
            cells[(batch, mode)] = {
                "throughput_ops": 10.0, "written_mib": 5.0}
    fig7_text = experiments.print_fig7({"cells": cells})
    assert "Figure 7(a)" in fig7_text and "Figure 7(b)" in fig7_text
    fig8_text = experiments.print_fig8({"cells": cells})
    assert "Figure 8" in fig8_text


def test_print_table2_renders():
    rows = {"original": {"elapsed_seconds": 10.0, "written_mib": 100.0,
                         "read_mib": 50.0, "docs_moved": 5},
            "share": {"elapsed_seconds": 2.0, "written_mib": 10.0,
                      "read_mib": 50.0, "docs_moved": 5}}
    text = experiments.print_table2({"rows": rows})
    assert "Table 2" in text


def test_print_pgbench_renders():
    rows = {"on": {"throughput_tps": 100.0, "wal_mib": 10.0,
                   "wal_full_page_mib": 8.0, "wal_record_mib": 2.0}}
    text = experiments.print_pgbench({"rows": rows})
    assert "full_page_writes" in text


def test_cli_single_experiment(capsys):
    assert experiments.main(["--scale", "tiny", "--only", "pgbench"]) == 0
    out = capsys.readouterr().out
    assert "pgbench" in out
    assert "tps" in out


def test_pgbench_experiment_shape():
    result = experiments.pgbench_fpw(Scale.TINY)
    on = result["rows"]["on"]
    off = result["rows"]["off"]
    assert off["throughput_tps"] > on["throughput_tps"]
    assert off["wal_full_page_mib"] == 0.0
    assert on["wal_bytes"] > off["wal_bytes"]


def test_buffer_translation_monotone():
    from repro.bench.harness import buffer_pages_for
    small = buffer_pages_for(50, 10_000, 4096)
    large = buffer_pages_for(150, 10_000, 4096)
    assert large > small


def test_db_pages_estimate_scales():
    assert (experiments._estimate_db_pages(20_000, 32)
            > experiments._estimate_db_pages(10_000, 32))
    assert (experiments._estimate_db_pages(10_000, 16)
            > experiments._estimate_db_pages(10_000, 64))


def test_share_beats_original_on_ycsb_f():
    """Ported from the deleted ``tests/test_sweeps.py::test_ycsb_sweep_rows``:
    on YCSB-F at batch size 1, SHARE commits out-run ORIGINAL, and only
    SHARE remaps pages."""
    cells = experiments.fig7(Scale.TINY)["cells"]
    share, original = cells[(1, "share")], cells[(1, "original")]
    assert share["throughput_ops"] > original["throughput_ops"]
    assert share["share_pairs"] > 0
    assert original["share_pairs"] == 0


def test_share_beats_dwb_on_on_linkbench():
    """Ported from the deleted
    ``tests/test_sweeps.py::test_linkbench_sweep_rows``: at the 50 MB
    paper buffer, SHARE writes fewer host pages than DWB-On and commits
    more transactions per second."""
    params = dataclasses.replace(SCALES[Scale.TINY], linkbench_nodes=1200,
                                 linkbench_transactions=800)
    dwb, share = (experiments.run_linkbench_cell(mode, 4096, 50, params)
                  for mode in (FlushMode.DWB_ON, FlushMode.SHARE))
    assert share["host_write_pages"] < dwb["host_write_pages"]
    assert share["throughput_tps"] > dwb["throughput_tps"]
