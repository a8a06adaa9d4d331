"""Tests for the PostgreSQL engine and its full_page_writes behaviour."""

import pytest

from repro.errors import EngineError
from repro.postgres.engine import PostgresConfig, PostgresEngine
from repro.postgres.wal import RECORD_BYTES, Wal
from repro.sim.clock import SimClock
from repro.ssd.device import Ssd

from conftest import small_ssd_config


def read_row(engine, table, row_id):
    return engine._load_page(engine._page_of(table, row_id)).get(row_id)


def make_engine(clock, fpw=True, checkpoint_every=100):
    data = Ssd(clock, small_ssd_config())
    wal = Ssd(clock, small_ssd_config())
    engine = PostgresEngine(data, wal, PostgresConfig(
        full_page_writes=fpw,
        checkpoint_interval_commits=checkpoint_every))
    return data, wal, engine


class TestWal:
    def test_records_accumulate(self, clock):
        device = Ssd(clock, small_ssd_config())
        wal = Wal(device)
        for i in range(5):
            wal.log_record(("r", i))
        assert wal.stats.records == 5
        assert wal.stats.record_bytes == 5 * RECORD_BYTES

    def test_commit_writes_pages(self, clock):
        device = Ssd(clock, small_ssd_config())
        wal = Wal(device)
        for i in range(50):
            wal.log_record(("r", i))
        wal.commit()
        assert wal.stats.wal_pages_written >= 2  # 6400 bytes / 4096

    def test_small_commits_rewrite_partial_page(self, clock):
        device = Ssd(clock, small_ssd_config())
        wal = Wal(device)
        pages = 0
        for i in range(5):
            wal.log_record(("r", i))
            wal.commit()
        # Every tiny commit costs one page write (the partial rewrite).
        assert wal.stats.wal_pages_written == 5

    def test_full_page_image_counts_whole_page(self, clock):
        device = Ssd(clock, small_ssd_config())
        wal = Wal(device, data_page_bytes=4096)
        wal.log_full_page_image(3, "before")
        wal.commit()
        assert wal.stats.full_page_bytes == 4096
        assert wal.stats.total_bytes == 4096


class TestEngine:
    def test_create_and_update(self, clock):
        __, __, engine = make_engine(clock)
        engine.create_table("t", rows=100)
        engine.update_row("t", 5, "v1")
        assert read_row(engine, "t", 5) == "v1"
        engine.commit()
        assert read_row(engine, "t", 5) == "v1"

    def test_duplicate_table_rejected(self, clock):
        __, __, engine = make_engine(clock)
        engine.create_table("t", rows=10)
        with pytest.raises(EngineError):
            engine.create_table("t", rows=10)

    def test_row_bounds_checked(self, clock):
        __, __, engine = make_engine(clock)
        engine.create_table("t", rows=10)
        with pytest.raises(EngineError):
            engine.update_row("t", 1000, "x")
        with pytest.raises(EngineError):
            engine.update_row("missing", 0, "x")

    def test_checkpoint_flushes_dirty_pages(self, clock):
        data, __, engine = make_engine(clock)
        engine.create_table("t", rows=100)
        writes_before = data.stats.host_write_pages
        engine.update_row("t", 1, "x")
        engine.checkpoint()
        assert data.stats.host_write_pages > writes_before
        assert not engine._dirty

    def test_checkpoint_interval(self, clock):
        __, __, engine = make_engine(clock, checkpoint_every=10)
        engine.create_table("t", rows=100)
        for i in range(25):
            engine.update_row("t", i % 100, i)
            engine.commit()
        assert engine.checkpoints == 2


class TestFullPageWrites:
    def test_first_touch_logs_image_when_on(self, clock):
        __, __, engine = make_engine(clock, fpw=True)
        engine.create_table("t", rows=100)
        engine.update_row("t", 1, "a")
        engine.update_row("t", 2, "b")  # same page: no second image
        assert engine.wal_stats.full_page_images == 1
        engine.update_row("t", 50, "c")  # different page
        assert engine.wal_stats.full_page_images == 2

    def test_images_reset_at_checkpoint(self, clock):
        __, __, engine = make_engine(clock, fpw=True)
        engine.create_table("t", rows=100)
        engine.update_row("t", 1, "a")
        engine.checkpoint()
        engine.update_row("t", 1, "b")
        assert engine.wal_stats.full_page_images == 2

    def test_off_logs_no_images(self, clock):
        __, __, engine = make_engine(clock, fpw=False)
        engine.create_table("t", rows=100)
        for i in range(50):
            engine.update_row("t", i, i)
            engine.commit()
        assert engine.wal_stats.full_page_images == 0
        assert engine.wal_stats.records == 50

    def test_off_writes_much_less_wal(self, clock):
        """The paper's in-text observation: WAL shrinks by roughly the
        volume of the page images."""
        from repro.sim.clock import SimClock
        volumes = {}
        for fpw in (True, False):
            local = SimClock()
            __, __, engine = make_engine(local, fpw=fpw,
                                         checkpoint_every=1000)
            engine.create_table("t", rows=3200)
            for i in range(400):
                engine.update_row("t", (i * 37) % 3200, i)
                engine.commit()
            volumes[fpw] = engine.wal_stats.total_bytes
        assert volumes[True] > volumes[False] * 3

    def test_off_is_faster(self, clock):
        from repro.sim.clock import SimClock
        times = {}
        for fpw in (True, False):
            local = SimClock()
            __, __, engine = make_engine(local, fpw=fpw,
                                         checkpoint_every=1000)
            engine.create_table("t", rows=3200)
            local.reset()
            for i in range(400):
                engine.update_row("t", (i * 37) % 3200, i)
                engine.commit()
            times[fpw] = local.now_seconds
        assert times[False] < times[True]
