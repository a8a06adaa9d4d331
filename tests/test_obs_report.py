"""Tests for the report CLI (repro.tools.report): section rendering and
GC attribution from synthetic telemetry records, plus the end-to-end
JSONL path through main()."""

import json

import pytest

from repro.tools.report import (
    activity_breakdown,
    gc_attribution,
    last_metrics,
    latency_table,
    main,
    render,
    span_summary,
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


class TestActivityBreakdown:
    def test_device_counters_summed_across_scopes(self):
        labels, values = activity_breakdown(last_metrics(SYNTHETIC))
        table = dict(zip(labels, values))
        assert table["host writes (pages)"] == 600  # data 500 + log 100
        assert table["host reads (pages)"] == 50
        assert table["GC events"] == 2
        assert table["GC copybacks (pages)"] == 15  # data 12 + log 3
        assert table["share pairs"] == 4
        assert table["wear-level moves"] == 0


class TestLatencyTable:
    def test_histograms_render_as_rows(self):
        text = latency_table(last_metrics(SYNTHETIC))
        assert "device.data.latency_us.write" in text
        assert "P99" in text

    def test_empty_snapshot(self):
        assert "no latency histograms" in latency_table({})

    def test_scalars_and_partial_dicts_skipped(self):
        text = latency_table({"a.counter": 5,
                              "a.partial": {"count": 1, "p50": 2.0}})
        assert "no latency histograms" in text


class TestSpanSummary:
    def test_counts_and_mean(self):
        text = span_summary(SYNTHETIC)
        assert "device.write" in text
        assert "ftl.gc" in text

    def test_no_spans(self):
        assert "no spans" in span_summary([metrics_record(0, {})])


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
        from repro.tools.report import queue_summary, render_queueing
        metrics = last_metrics(self.METRICS)
        wait_rows, channel_rows = queue_summary(metrics)
        assert wait_rows == [["data", 40, 100.0, 60.0, 150.0, 800.0,
                              1200.0]]
        assert channel_rows == [["data", 0, 5000, 0.71],
                                ["data", 1, 4500, 0.64]]
        text = render_queueing(metrics)
        assert "Queue wait" in text
        assert "Channel occupancy" in text

    def test_queue_section_in_full_render(self):
        text = render(self.METRICS, "queue")
        assert "Channel occupancy" in text
        assert "I/O activities" not in text

    def test_serial_artifact_explains_absence(self):
        from repro.tools.report import render_queueing
        assert "no queueing telemetry" in render_queueing(
            {"device.data.host_write_pages": 5})
