"""Shared fixtures: small, fast device stacks for unit tests."""

import json

import pytest

from repro.flash.geometry import FlashGeometry
from repro.flash.timing import FAST_TIMING
from repro.ftl.config import FtlConfig
from repro.sim.clock import SimClock
from repro.ssd.device import Ssd, SsdConfig


def small_ssd_config(page_size=4096, share_entries=250, trace=0):
    return SsdConfig(
        geometry=FlashGeometry.small(page_size=page_size),
        timing=FAST_TIMING,
        ftl=FtlConfig(map_block_count=4, share_table_entries=share_entries),
        trace_capacity=trace,
    )


def pair_for(router, key):
    """The shard group ``router`` places ``key`` on."""
    return router.pairs[router.ring.lookup(key)]


def drop_clean_frames(pool):
    """Drop every clean frame of a buffer pool, so the next reads of
    those pages go to the device."""
    for page_id in [page_id for page_id, frame in pool._frames.items()
                    if not frame.dirty]:
        del pool._frames[page_id]


def sampled_telemetry(every, *args, **kwargs):
    """A ``mode="sampled"`` Telemetry that traces 1 root in ``every``
    (the stack's own rate is the constant ``SAMPLE_EVERY``)."""
    from repro.obs import Telemetry
    telemetry = Telemetry(*args, mode="sampled", **kwargs)
    telemetry.sample_every = telemetry.tracer.sample_every = every
    return telemetry


def small_linkbench_stack(seed, db_pages_estimate=320, telemetry=None):
    """(stack, unloaded driver): a 600-node LinkBench graph on an InnoDB
    SHARE stack (queue depth 4, 2 channels) whose 64-page pool holds
    about a fifth of the database, so it misses, evicts and flushes.
    A smaller ``db_pages_estimate`` shrinks the data device until GC
    runs."""
    from repro.bench.harness import build_innodb_stack
    from repro.innodb.engine import FlushMode
    from repro.workloads.linkbench import LinkBenchConfig, LinkBenchDriver
    stack = build_innodb_stack(FlushMode.SHARE, 4096, buffer_pool_pages=64,
                               db_pages_estimate=db_pages_estimate,
                               queue_depth=4, channel_count=2,
                               telemetry=telemetry)
    driver = LinkBenchDriver(stack.engine, stack.clock,
                             LinkBenchConfig(node_count=600, seed=seed))
    return stack, driver


def check_capped_sweep(family_name, workload, cap, modes=None):
    """Run one capped sweep of any family into a memory sink, assert the
    one record schema every family shares, and return ``(report, site
    records, summary record)`` for the caller's family-specific checks."""
    from repro.crashcheck import FAMILIES, Site, sweep
    from repro.obs.sinks import MemorySink
    family = FAMILIES[family_name]
    sink = MemorySink()
    report = sweep(family, family.harnesses[workload], workload,
                   modes=modes, cap=cap, sink=sink)
    assert report.ok, (report.failures, report.sweep_violations)
    assert len(report.results) == min(cap, len(report.sites))
    *rows, summary = sink.records
    assert len(rows) == len(report.results)
    for row, result in zip(rows, report.results):
        assert row["type"] == "crashcheck"
        assert row["family"] == family_name
        assert row["workload"] == workload
        assert {*Site._fields, "fired", "crashed", "aborted", "ok",
                "violations", *result.extras} <= set(row)
        assert row["ok"] is True
        assert row["violations"] == []
        json.dumps(row)   # must be serialisable as-is
    assert summary["type"] == "crashcheck-summary"
    assert summary["family"] == family_name
    assert summary["workload"] == workload
    assert summary["l2p"] == "flat"
    assert summary["modes"] == list(report.modes)
    assert summary["sites"] == len(report.sites)
    assert summary["explored"] == len(rows)
    assert summary["violations"] == 0
    assert summary["ok"] is True
    assert {label for label, __ in family.columns} <= set(summary)
    json.dumps(summary)
    return report, rows, summary


def check_cli_sweep(argv, tmp_path):
    """Drive ``crashexplore`` in-process, expect exit 0, and return the
    JSONL report's records (the last one is the summary)."""
    from repro.tools.crashexplore import main
    out = tmp_path / "report.jsonl"
    assert main([*argv, "--out", str(out)]) == 0
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert {record["type"] for record in records[:-1]} <= {"crashcheck"}
    assert records[-1]["type"] == "crashcheck-summary"
    assert records[-1]["ok"] is True
    return records


@pytest.fixture
def clock():
    return SimClock()


@pytest.fixture
def ssd(clock):
    """A small SHARE-capable SSD on fast timing."""
    return Ssd(clock, small_ssd_config())
