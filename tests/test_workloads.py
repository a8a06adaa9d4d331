"""Tests for the workload drivers: determinism, mix, latency recording."""

import pytest

from repro.bench.harness import SCALES, Scale, build_couch_stack, build_innodb_stack
from repro.couchstore.engine import CommitMode
from repro.innodb.engine import FlushMode
from repro.workloads.linkbench import (
    DEFAULT_MIX,
    READ_OPS,
    WRITE_OPS,
    LinkBenchConfig,
    LinkBenchDriver,
)
from repro.workloads.pgbench import PgBenchConfig, run_pgbench, setup_pgbench
from repro.workloads.ycsb import YcsbConfig, YcsbDriver, YcsbWorkload


def small_linkbench(mode=FlushMode.SHARE, nodes=800, seed=42):
    stack = build_innodb_stack(mode, 4096, buffer_pool_pages=64,
                               db_pages_estimate=500)
    driver = LinkBenchDriver(stack.engine, stack.clock,
                             LinkBenchConfig(node_count=nodes, seed=seed))
    driver.load()
    return stack, driver


class TestLinkBench:
    def test_mix_covers_the_papers_ops(self):
        names = {name for name, __ in DEFAULT_MIX}
        assert names == READ_OPS | WRITE_OPS
        assert len(names) == 10

    def test_weights_sum_to_about_100(self):
        assert sum(w for __, w in DEFAULT_MIX) == pytest.approx(100.5)

    def test_run_records_latency_per_op(self):
        __, driver = small_linkbench()
        result = driver.run(800)
        assert result.transactions == 800
        assert result.throughput_tps > 0
        table = result.latencies.table()
        assert "Get_Link_List" in table
        for summary in table.values():
            assert summary["mean"] >= 0

    def test_op_counts_match_transactions(self):
        __, driver = small_linkbench()
        result = driver.run(500)
        assert sum(result.op_counts.values()) == 500

    def test_deterministic_given_seed(self):
        __, driver_a = small_linkbench(seed=7)
        __, driver_b = small_linkbench(seed=7)
        result_a = driver_a.run(300)
        result_b = driver_b.run(300)
        assert result_a.op_counts == result_b.op_counts
        assert result_a.elapsed_seconds == result_b.elapsed_seconds

    def test_graph_is_consistent_after_run(self):
        stack, driver = small_linkbench()
        driver.run(1000)
        engine = stack.engine
        # Every count row is non-negative and every link key well-formed.
        with engine.transaction() as txn:
            for key, value in engine.table("count").items():
                assert value >= 0
            for key, __ in engine.table("link").items():
                assert len(key) == 3

    def test_add_node_extends_id_space(self):
        __, driver = small_linkbench()
        before = driver._next_node_id
        driver.run(1000)
        assert driver._next_node_id > before


class TestYcsb:
    def make(self, mode=CommitMode.SHARE, records=500):
        stack = build_couch_stack(mode, records, 2000)
        driver = YcsbDriver(stack.store, stack.clock,
                            YcsbConfig(record_count=records))
        driver.load()
        return stack, driver

    def test_load_inserts_every_record(self):
        stack, __ = self.make()
        assert stack.store.doc_count == 500

    def test_workload_f_is_all_rmw(self):
        __, driver = self.make()
        result = driver.run(YcsbWorkload.F, 400, batch_size=8)
        assert result.reads == 400
        assert result.writes == 400
        assert result.operations == 400

    def test_workload_a_is_half_reads(self):
        __, driver = self.make()
        result = driver.run(YcsbWorkload.A, 1000, batch_size=8)
        assert result.reads + result.writes == 1000
        assert 350 < result.reads < 650

    def test_batch_size_controls_commits(self):
        __, driver = self.make()
        commits_before = driver.store.stats.commits
        driver.run(YcsbWorkload.F, 128, batch_size=16)
        commits = driver.store.stats.commits - commits_before
        assert commits == 8

    def test_bad_batch_size(self):
        __, driver = self.make()
        with pytest.raises(ValueError):
            driver.run(YcsbWorkload.F, 10, batch_size=0)

    def test_zipfian_skew_hits_hot_keys(self):
        __, driver = self.make()
        draws = [driver._chooser.next() for __ in range(4000)]
        from collections import Counter
        hottest = Counter(draws).most_common(1)[0][1]
        assert hottest > 4000 * 0.02

    def test_latency_histogram_populated(self):
        __, driver = self.make()
        result = driver.run(YcsbWorkload.F, 100, batch_size=4)
        assert result.latency_ms.count == 100

    def test_timeline_recording(self):
        __, driver = self.make()
        result = driver.run(YcsbWorkload.F, 50, batch_size=4,
                            record_timeline=True)
        assert len(result.completion_times_us) == 50
        assert result.completion_times_us == sorted(
            result.completion_times_us)
        windows = result.windowed_throughput(window_seconds=0.05)
        assert sum(w * 0.05 for w in windows) == pytest.approx(50, abs=1)

    def test_windowed_throughput_needs_timeline(self):
        __, driver = self.make()
        result = driver.run(YcsbWorkload.F, 10, batch_size=4)
        with pytest.raises(ValueError):
            result.windowed_throughput(1.0)

    def test_auto_compact_replaces_store(self):
        stack, driver = None, None
        from repro.bench.harness import build_couch_stack
        from repro.couchstore.engine import CommitMode, CouchConfig
        stack = build_couch_stack(
            CommitMode.SHARE, 300, 6000,
            config=CouchConfig(compaction_stale_ratio=0.4))
        driver = YcsbDriver(stack.store, stack.clock,
                            YcsbConfig(record_count=300))
        driver.load()
        result = driver.run(YcsbWorkload.F, 2000, batch_size=8,
                            auto_compact=True)
        assert result.compactions, "compaction should have triggered"
        # The driver's store was swapped for the compacted one and the
        # data survived every swap.
        assert driver.store.stats.compactions >= 1
        for key in range(0, 300, 37):
            assert driver.store.get(key) is not None


class TestPgBench:
    def test_runs_and_reports(self):
        from repro.bench.harness import build_postgres_stack
        clock, __, __, engine = build_postgres_stack(True, scale=1)
        config = PgBenchConfig(scale=1)
        setup_pgbench(engine, config)
        clock.reset()
        result = run_pgbench(engine, clock, 200, config)
        assert result.transactions == 200
        assert result.throughput_tps > 0
        assert result.wal_bytes > 0
        assert result.full_page_writes

    def test_scale_sizes(self):
        config = PgBenchConfig(scale=3)
        assert config.accounts == 30_000
        assert config.tellers == 30
        assert config.branches == 3


class TestScales:
    def test_all_scales_defined(self):
        for scale in Scale:
            params = SCALES[scale]
            assert params.linkbench_nodes > 0
            assert params.ycsb_records > 0


class TestConcurrentClients:
    """Closed-loop clients through the real device queue."""

    def test_linkbench_concurrency_matches_serial_throughput_at_qd1(self):
        # At the default device configuration (QD1, one channel, a
        # shared queue) N clients serialise exactly like one: same
        # makespan, same throughput — only recorded latencies grow by
        # the queueing wait.
        def run(concurrency, seed=7):
            stack = build_innodb_stack(FlushMode.SHARE, 4096, 64, 2000)
            driver = LinkBenchDriver(
                stack.engine, stack.clock,
                LinkBenchConfig(node_count=300, seed=seed))
            driver.load()
            return driver.run(400, concurrency=concurrency)

        serial = run(1)
        queued = run(8)
        assert queued.elapsed_seconds == serial.elapsed_seconds
        assert queued.throughput_tps == serial.throughput_tps
        mean_serial = sum(
            s["mean"] for s in serial.latencies.table().values())
        mean_queued = sum(
            s["mean"] for s in queued.latencies.table().values())
        assert mean_queued > mean_serial

    def test_linkbench_deep_queue_multi_channel_shrinks_makespan(self):
        def run(queue_depth, channel_count):
            stack = build_innodb_stack(FlushMode.SHARE, 4096, 64, 2000,
                                       queue_depth=queue_depth,
                                       channel_count=channel_count)
            driver = LinkBenchDriver(
                stack.engine, stack.clock,
                LinkBenchConfig(node_count=300))
            driver.load()
            return driver.run(400, concurrency=8)

        assert (run(8, 4).elapsed_seconds
                < run(1, 1).elapsed_seconds)

    def test_ycsb_concurrency_runs_and_preserves_counts(self):
        stack = build_couch_stack(CommitMode.SHARE, 400, 2000,
                                  queue_depth=8, channel_count=2)
        driver = YcsbDriver(stack.store, stack.clock,
                            YcsbConfig(record_count=400))
        driver.load()
        result = driver.run(YcsbWorkload.A, 600, batch_size=8,
                            concurrency=8)
        assert result.reads + result.writes == 600
        assert result.operations == 600
        assert result.elapsed_seconds > 0
        assert stack.ssd.poll(stack.clock.now_us) == 0   # all drained

    def test_ycsb_serial_path_unchanged_by_concurrency_param(self):
        def run(**kwargs):
            stack = build_couch_stack(CommitMode.SHARE, 300, 1500)
            driver = YcsbDriver(stack.store, stack.clock,
                                YcsbConfig(record_count=300))
            driver.load()
            return driver.run(YcsbWorkload.F, 300, batch_size=8, **kwargs)

        assert (run().elapsed_seconds
                == run(concurrency=1).elapsed_seconds)
