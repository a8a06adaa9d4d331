"""Tests for the report CLI (repro.tools.report): section rendering and
GC attribution from synthetic telemetry records, plus the end-to-end
JSONL path through main()."""

import json

import pytest

from repro.ssd.device import DEVICE_ROWS
from repro.tools.report import (
    ACTIVITIES,
    L2P_GAUGES,
    activity_rows,
    channel_occupancy,
    device_total,
    distributions,
    gc_attribution,
    last_metrics,
    main,
    render,
    span_totals,
)


def span(name, span_id, parent_id=None, duration_us=10, **attrs):
    return {"type": "span", "name": name, "span_id": span_id,
            "parent_id": parent_id,
            "trace_id": span_id if parent_id is None else 1,
            "start_us": 0, "end_us": duration_us,
            "duration_us": duration_us, "attrs": attrs}


def metrics_record(t_us, metrics):
    return {"type": "metrics", "t_us": t_us, "metrics": metrics}


SYNTHETIC = [
    span("innodb.flush_batch", 1, duration_us=100),
    span("host.pwrite", 2, parent_id=1, duration_us=80),
    span("device.write", 3, parent_id=2, duration_us=60),
    span("ftl.gc", 4, parent_id=3, duration_us=0, copyback_pages=12),
    span("device.write", 5, duration_us=40),
    span("ftl.gc", 6, parent_id=5, duration_us=0, copyback_pages=3),
    metrics_record(1_000, {"device.data.host_write_pages": 10}),
    metrics_record(2_000, {
        "device.data.host_write_pages": 500,
        "device.log.host_write_pages": 100,
        "device.data.host_read_pages": 50,
        "device.data.ftl.gc.events": 2,
        "device.data.ftl.gc.copyback_pages": 12,
        "device.log.ftl.gc.copyback_pages": 3,
        "couch.share_pairs": 7,     # not a device's: must not be summed
        "device.data.share_pairs": 4,
        "device.data.latency_us.write": {
            "count": 500, "total": 50_000.0, "mean": 100.0,
            "p25": 80.0, "p50": 95.0, "p75": 120.0, "p99": 400.0,
            "max": 900.0},
    }),
]


class TestSnapshotSelection:
    def test_last_metrics_wins(self):
        assert last_metrics(SYNTHETIC)["device.data.host_write_pages"] == 500

    def test_no_metrics_gives_empty(self):
        assert last_metrics([span("device.write", 1)]) == {}


class TestRowNames:
    """Every name the report looks up is one a device registers: a
    renamed collector row fails here, not as a silently missing row."""

    def test_activities_and_gauges_are_device_rows(self):
        registered = {name for name, __, __ in DEVICE_ROWS}
        assert set(ACTIVITIES) <= registered
        assert L2P_GAUGES and set(L2P_GAUGES) <= registered


class TestActivityBreakdown:
    def test_device_counters_summed_across_scopes(self):
        table = dict(activity_rows(last_metrics(SYNTHETIC)))
        assert table["host_write_pages"] == 600  # data 500 + log 100
        assert table["host_read_pages"] == 50
        assert table["ftl.gc.events"] == 2
        assert table["ftl.gc.copyback_pages"] == 15  # data 12 + log 3
        assert table["share_pairs"] == 4
        assert table["ftl.wear.level_moves"] == 0

    def test_device_total_is_none_when_no_device_reports(self):
        assert device_total(last_metrics(SYNTHETIC), "trim_pages") is None
        assert activity_rows({"couch.share_pairs": 7}) == []


class TestLatencyTable:
    def test_histograms_render_as_rows(self):
        rows = distributions(last_metrics(SYNTHETIC))
        assert rows == [["device.data.latency_us.write", 500, 100.0, 80.0,
                         95.0, 120.0, 400.0, 900.0]]
        assert "p99" in render(SYNTHETIC, "latency")

    def test_empty_snapshot(self):
        assert distributions({}) == []
        assert render([], "latency") == "no latency telemetry in artifact"

    def test_scalars_and_partial_dicts_skipped(self):
        assert distributions({"a.counter": 5,
                              "a.partial": {"count": 1, "p50": 2.0}}) == []


class TestSpanSummary:
    def test_counts_and_mean(self):
        rows = {row[0]: row[1:] for row in span_totals(SYNTHETIC)}
        assert rows["device.write"] == [2, 100.0, 50.0]
        assert rows["ftl.gc"] == [2, 0.0, 0.0]

    def test_no_spans(self):
        assert span_totals([metrics_record(0, {})]) == []
        assert "no spans telemetry" in render([metrics_record(0, {})],
                                              "spans")


class TestGcAttribution:
    def test_walks_to_root(self):
        counts = gc_attribution(SYNTHETIC)
        assert counts == {"innodb.flush_batch": 1, "device.write": 1}

    def test_orphan_parent_stops_gracefully(self):
        records = [span("ftl.gc", 9, parent_id=999)]
        assert gc_attribution(records) == {"ftl.gc": 1}

    def test_no_gc_spans(self):
        assert gc_attribution([span("device.write", 1)]) == {}


class TestRender:
    def test_all_sections_joined(self):
        text = render(SYNTHETIC)
        assert "I/O activities" in text
        assert "Latency distributions" in text
        assert "Spans by name" in text
        assert "GC attribution" in text

    @pytest.mark.parametrize("section,marker", [
        ("activities", "I/O activities"),
        ("latency", "Latency distributions"),
        ("spans", "Spans by name"),
        ("gc", "GC attribution"),
    ])
    def test_single_section(self, section, marker):
        text = render(SYNTHETIC, section)
        assert marker in text
        others = {"I/O activities", "Latency distributions",
                  "Spans by name", "GC attribution"} - {marker}
        for other in others:
            assert other not in text


class TestMain:
    def test_cli_end_to_end(self, tmp_path, capsys):
        path = tmp_path / "telemetry.jsonl"
        path.write_text(
            "".join(json.dumps(record) + "\n" for record in SYNTHETIC))
        assert main([str(path)]) == 0
        out = capsys.readouterr().out
        assert "GC attribution" in out
        assert "innodb.flush_batch" in out

    def test_cli_section_flag(self, tmp_path, capsys):
        path = tmp_path / "telemetry.jsonl"
        path.write_text(
            "".join(json.dumps(record) + "\n" for record in SYNTHETIC))
        assert main([str(path), "--section", "gc"]) == 0
        assert "Latency" not in capsys.readouterr().out


class TestQueueSection:
    METRICS = [metrics_record(1_000, {
        "device.data.queue.wait_us": {
            "count": 40, "total": 4000.0, "mean": 100.0,
            "p25": 10.0, "p50": 60.0, "p75": 150.0, "p99": 800.0,
            "max": 1200.0},
        "device.data.chan.0.busy_us": 5000,
        "device.data.chan.0.util": 0.71,
        "device.data.chan.1.busy_us": 4500,
        "device.data.chan.1.util": 0.64,
    })]

    def test_queue_section_renders_waits_and_channels(self):
        metrics = last_metrics(self.METRICS)
        assert distributions(metrics, "device.", ".queue.wait_us") == [
            ["data", 40, 100.0, 10.0, 60.0, 150.0, 800.0, 1200.0]]
        assert channel_occupancy(metrics) == [["data", 0, 5000, 0.71],
                                              ["data", 1, 4500, 0.64]]
        text = render(self.METRICS, "queue")
        assert "Queue wait" in text
        assert "Channel occupancy" in text

    def test_queue_section_in_full_render(self):
        text = render(self.METRICS, "queue")
        assert "Channel occupancy" in text
        assert "I/O activities" not in text

    def test_serial_artifact_explains_absence(self):
        records = [metrics_record(0, {"device.data.host_write_pages": 5})]
        assert render(records, "queue") == "no queue telemetry in artifact"


class TestClusterSection:
    """The committed cluster artifact stores its snapshots as
    ``cluster_telemetry`` records, not ``metrics`` ones."""

    RECORDS = [{"type": "cluster_telemetry", "metrics": {
        "cluster.latency_us.shard0": {
            "count": 10, "total": 1000.0, "mean": 100.0, "p25": 50.0,
            "p50": 90.0, "p75": 120.0, "p99": 300.0, "max": 310.0},
        "cluster.epoch.shard0": 2,
        "cluster.repl_lag.shard0": 3,
        "cluster.ops": 10,
        "cluster.shard_kills": 1,
        "cluster.failovers": 0,
        "cluster.replica_lag": {
            "count": 4, "total": 2.0, "mean": 0.5, "p25": 0.0, "p50": 0.0,
            "p75": 1.0, "p99": 1.0, "max": 1.0},
    }}]

    def test_cluster_telemetry_record_renders_its_tables(self):
        text = render(self.RECORDS, "cluster")
        assert "Cluster shards" in text
        assert "Cluster tier" in text
        assert "Cluster distributions" in text
        lines = text.splitlines()
        shard = next(line for line in lines if line.startswith("shard0"))
        assert shard.split()[-2:] == ["2", "3"]  # epoch, repl_lag
        assert any(line.split() == ["shard_kills", "1"] for line in lines)
        assert not any(line.lstrip().startswith("failovers ")
                       for line in lines)  # zero: no row
        assert any(line.startswith("replica_lag ") for line in lines)
        assert "latency_us" not in text  # shard rows stay in their table


class TestMappingSection:
    def test_gauges_and_lab_records(self):
        records = [metrics_record(0, {"device.data.ftl.l2p.runs": 2,
                                      "device.log.ftl.l2p.runs": 1}),
                   {"type": "mapping_lab", "workload": "seq",
                    "strategy": "flat", "footprint_bytes": 100,
                    "fragments": 1, "remap_splits": 0,
                    "splits_per_pair": 0.0, "waf": 1.0,
                    "wall_kops_per_s": 40.0}]
        text = render(records, "mapping")
        lines = text.splitlines()
        assert any(line.split() == ["ftl.l2p.runs", "3"] for line in lines)
        assert "ftl.l2p.footprint_bytes" not in text  # absent: no row
        assert any(line.split()[:3] == ["seq", "flat", "100"]
                   for line in lines)
