"""Spans read the same "now" as the device commands they enclose.

A 16-client LinkBench cell issues every measured command on a client's
session cursor.  The tracer stamps spans on the stack's current issuer
(``clock.issuer``), so a span that encloses a device command lasts at
least that command's service time, every span names its client, and
one client's spans at one depth follow each other — the Chrome trace's
lanes (one per client and depth) hold no overlapping events.
"""

import pytest

from repro.bench.experiments import LINKBENCH_CLIENTS, run_linkbench_cell
from repro.bench.harness import ScaleParams
from repro.innodb.engine import FlushMode
from repro.obs import MemorySink, Telemetry, chrome_trace, \
    validate_chrome_trace
from repro.tools.report import span_totals

#: A LinkBench cell small enough for tier 1 (its warm-up is untraced).
CELL = ScaleParams(linkbench_nodes=1_000, linkbench_transactions=600,
                   ycsb_records=0, ycsb_operations=0, pgbench_scale=1,
                   pgbench_transactions=0)


@pytest.fixture(scope="module")
def spans():
    sink = MemorySink()
    telemetry = Telemetry(sink=sink, mode="full")
    run_linkbench_cell(FlushMode.SHARE, 4096, 50, CELL, telemetry=telemetry)
    telemetry.close()
    return [record for record in sink.records if record["type"] == "span"]


def test_every_span_names_the_client_it_ran_for(spans):
    assert {span["client"] for span in spans} \
        == set(range(LINKBENCH_CLIENTS))


def test_a_span_enclosing_a_command_lasts_its_service_time(spans):
    by_id = {span["span_id"]: span for span in spans}
    commands = [span for span in spans if "service_us" in span["attrs"]]
    assert commands and all(span["name"].startswith("device.")
                            for span in commands)
    assert any(span["attrs"]["service_us"] > 0 for span in commands)
    for command in commands:
        service_us = command["attrs"]["service_us"]
        span = command
        while span is not None:
            assert span["duration_us"] >= service_us, (span, command)
            assert span["start_us"] <= command["start_us"]
            assert span["end_us"] >= command["end_us"]
            span = by_id.get(span["parent_id"])


def test_device_spans_add_up_in_the_spans_report(spans):
    totals = {name: total_us for name, __, total_us, ___
              in span_totals(spans)}
    device = [name for name in totals if name.startswith("device.")]
    assert device and all(totals[name] > 0 for name in device)


def test_each_client_and_depth_is_one_lane_without_overlap(spans):
    trace = validate_chrome_trace(chrome_trace(span_records=spans))
    lanes = {event["args"]["name"] for event in trace["traceEvents"]
             if event["ph"] == "M" and event["name"] == "thread_name"}
    assert {f"client {client} depth 0"
            for client in range(LINKBENCH_CLIENTS)} <= lanes
