"""Integration tests for the InnoDB engine: the three flush modes and
their write-count signatures (the mechanism behind Figures 5 and 6)."""

import pytest

from repro.errors import EngineError
from repro.flash.geometry import FlashGeometry
from repro.flash.timing import FAST_TIMING
from repro.ftl.config import FtlConfig
from repro.innodb.engine import FlushMode, InnoDBConfig, InnoDBEngine
from repro.sim.clock import SimClock
from repro.ssd.device import Ssd, SsdConfig

from conftest import drop_clean_frames


def make_engine(mode, buffer_pages=64, flush_batch=16, clock=None):
    clock = clock or SimClock()
    geo = FlashGeometry(page_size=4096, pages_per_block=64, block_count=256,
                        overprovision_ratio=0.1)
    data = Ssd(clock, SsdConfig(geometry=geo, timing=FAST_TIMING,
                                ftl=FtlConfig()))
    log = Ssd(clock, SsdConfig(geometry=FlashGeometry.small(),
                               timing=FAST_TIMING, share_enabled=False))
    engine = InnoDBEngine(mode, data, log, InnoDBConfig(
        buffer_pool_pages=buffer_pages, flush_batch_pages=flush_batch))
    return clock, data, log, engine


def churn(engine, ops=3000, keys=600):
    engine.create_table("t")
    for i in range(ops):
        with engine.transaction() as txn:
            txn.put("t", i % keys, ("row", i))


class TestBasics:
    def test_create_and_query_table(self):
        __, __, __, engine = make_engine(FlushMode.DWB_OFF)
        engine.create_table("t")
        with engine.transaction() as txn:
            txn.put("t", 1, "one")
            assert txn.get("t", 1) == "one"
        with engine.transaction() as txn:
            assert txn.get("t", 1) == "one"

    def test_duplicate_table_rejected(self):
        __, __, __, engine = make_engine(FlushMode.DWB_OFF)
        engine.create_table("t")
        with pytest.raises(EngineError):
            engine.create_table("t")

    def test_unknown_table_rejected(self):
        __, __, __, engine = make_engine(FlushMode.DWB_OFF)
        with pytest.raises(EngineError):
            with engine.transaction() as txn:
                txn.get("missing", 1)

    def test_nested_transaction_rejected(self):
        __, __, __, engine = make_engine(FlushMode.DWB_OFF)
        engine.create_table("t")
        with pytest.raises(EngineError):
            with engine.transaction():
                with engine.transaction():
                    pass

    def test_transaction_abort_releases_guard(self):
        __, __, __, engine = make_engine(FlushMode.DWB_OFF)
        engine.create_table("t")
        with pytest.raises(RuntimeError):
            with engine.transaction():
                raise RuntimeError("boom")
        with engine.transaction() as txn:  # must not raise 'nested'
            txn.put("t", 1, "ok")

    def test_abort_rolls_back_puts_and_deletes(self):
        __, __, __, engine = make_engine(FlushMode.DWB_OFF)
        engine.create_table("t")
        with engine.transaction() as txn:
            txn.put("t", 1, "keep-1")
            txn.put("t", 2, "keep-2")
        with pytest.raises(RuntimeError):
            with engine.transaction() as txn:
                txn.put("t", 1, "doomed")       # overwrite
                txn.delete("t", 2)               # delete
                txn.put("t", 3, "phantom")       # insert
                raise RuntimeError("abort")
        with engine.transaction() as txn:
            assert txn.get("t", 1) == "keep-1"
            assert txn.get("t", 2) == "keep-2"
            assert txn.get("t", 3) is None

    def test_abort_discards_uncommitted_redo(self):
        __, __, __, engine = make_engine(FlushMode.DWB_OFF)
        engine.create_table("t")
        with pytest.raises(RuntimeError):
            with engine.transaction() as txn:
                txn.put("t", 1, "doomed")
                raise RuntimeError("abort")
        with engine.transaction() as txn:
            txn.put("t", 2, "committed")
        records = [r for __, r in engine.redo.replay_records()]
        assert ("put", "t", 1, "doomed") not in records
        assert ("put", "t", 2, "committed") in records

    def test_abort_does_not_disturb_earlier_ops_in_other_tables(self):
        __, __, __, engine = make_engine(FlushMode.SHARE)
        engine.create_table("a")
        engine.create_table("b")
        with engine.transaction() as txn:
            txn.put("a", 1, "x")
        with pytest.raises(ValueError):
            with engine.transaction() as txn:
                txn.put("b", 1, "y")
                raise ValueError("abort")
        with engine.transaction() as txn:
            assert txn.get("a", 1) == "x"
            assert txn.get("b", 1) is None

    def test_range_through_transaction(self):
        __, __, __, engine = make_engine(FlushMode.DWB_OFF)
        engine.create_table("t")
        with engine.transaction() as txn:
            for key in range(10):
                txn.put("t", key, key)
        with engine.transaction() as txn:
            assert txn.range("t", 3, 6) == [(3, 3), (4, 4), (5, 5), (6, 6)]

    def test_delete(self):
        __, __, __, engine = make_engine(FlushMode.DWB_OFF)
        engine.create_table("t")
        with engine.transaction() as txn:
            txn.put("t", 1, "x")
            assert txn.delete("t", 1)
            assert not txn.delete("t", 1)


class TestFlushModes:
    def test_dwb_on_doubles_data_writes(self):
        results = {}
        for mode in (FlushMode.DWB_ON, FlushMode.DWB_OFF):
            __, data, __, engine = make_engine(mode)
            churn(engine)
            results[mode] = data.stats.host_write_pages
        # Doublewrite writes every flushed page twice; the remaining
        # traffic (journal metadata) is shared.
        assert results[FlushMode.DWB_ON] > results[FlushMode.DWB_OFF] * 1.8

    def test_share_writes_match_dwb_off(self):
        results = {}
        for mode in (FlushMode.SHARE, FlushMode.DWB_OFF):
            __, data, __, engine = make_engine(mode)
            churn(engine)
            results[mode] = data.stats.host_write_pages
        assert results[FlushMode.SHARE] == pytest.approx(
            results[FlushMode.DWB_OFF], rel=0.05)

    def test_share_mode_issues_share_commands(self):
        __, data, __, engine = make_engine(FlushMode.SHARE)
        churn(engine)
        assert data.stats.share_pairs > 0
        assert engine.flush_batches > 0

    def test_non_share_modes_issue_no_shares(self):
        for mode in (FlushMode.DWB_ON, FlushMode.DWB_OFF):
            __, data, __, engine = make_engine(mode)
            churn(engine)
            assert data.stats.share_pairs == 0

    def test_share_content_correct_after_flush(self):
        __, data, __, engine = make_engine(FlushMode.SHARE)
        churn(engine, ops=2000, keys=400)
        drop_clean_frames(engine.pool)
        with engine.transaction() as txn:
            for key in range(0, 400, 37):
                row = txn.get("t", key)
                assert row is not None
                assert row[0] == "row"

    def test_log_device_used_by_all_modes(self):
        for mode in FlushMode:
            __, __, log, engine = make_engine(mode)
            churn(engine, ops=200)
            assert log.stats.host_write_pages > 0


class TestCheckpoint:
    def test_checkpoint_flushes_everything(self):
        __, data, __, engine = make_engine(FlushMode.SHARE)
        churn(engine, ops=500)
        engine.checkpoint()
        assert engine.pool.dirty_count == 0


class TestConfig:
    def test_flush_batch_bounded_by_dwb(self):
        with pytest.raises(ValueError):
            InnoDBConfig(flush_batch_pages=256, dwb_pages=128)

    def test_dirty_threshold_validated(self):
        with pytest.raises(ValueError):
            InnoDBConfig(dirty_flush_threshold=0.0)
