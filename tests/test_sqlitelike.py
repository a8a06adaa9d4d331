"""Tests for the SQLite-like engine: three journal modes, write-cost
signatures, and the crash matrix per mode."""

import pytest

from repro.errors import EngineError, PowerFailure
from repro.host.filesystem import FsConfig, HostFs
from repro.sim.clock import SimClock
from repro.sim.faults import FaultPlan, PowerFailAfter
from repro.sqlitelike import JournalMode, SqliteLikeDb
from repro.sqlitelike import pager as pager_module
from repro.sqlitelike.pager import Pager
from repro.ssd.device import Ssd

from conftest import small_ssd_config

PAGES = 1200


def make_db(mode, faults=None, clock=None):
    clock = clock or SimClock()
    faults = faults or FaultPlan()
    ssd = Ssd(clock, small_ssd_config(), faults=faults)
    fs = HostFs(ssd, FsConfig(journal_blocks=8))
    db = SqliteLikeDb(fs, "/app.db", mode, page_count=PAGES, faults=faults)
    return ssd, fs, faults, db


class TestPagerBasics:
    def test_read_unwritten_is_none(self):
        __, __, __, db = make_db(JournalMode.SHARE)
        assert db.pager.read_page(500) is None

    def test_page_bounds(self):
        __, __, __, db = make_db(JournalMode.SHARE)
        with pytest.raises(EngineError):
            db.pager.read_page(PAGES)

    def test_write_outside_txn_rejected(self):
        __, __, __, db = make_db(JournalMode.SHARE)
        with pytest.raises(EngineError):
            db.pager.write_page(5, "x")

    def test_double_begin_rejected(self):
        __, __, __, db = make_db(JournalMode.SHARE)
        db.pager.begin()
        with pytest.raises(EngineError):
            db.pager.begin()

    def test_empty_commit_ok(self):
        __, __, __, db = make_db(JournalMode.ROLLBACK)
        db.pager.begin()
        db.pager.commit()

    def test_bad_config(self):
        clock = SimClock()
        ssd = Ssd(clock, small_ssd_config())
        fs = HostFs(ssd, FsConfig(journal_blocks=8))
        with pytest.raises(ValueError):
            Pager(fs, "/x", JournalMode.SHARE, page_count=0)


class TestBasicOperations:
    @pytest.mark.parametrize("mode", list(JournalMode))
    def test_put_get(self, mode):
        __, __, __, db = make_db(mode)
        db.put(1, "one")
        assert db.get(1) == "one"
        assert db.get(2) is None

    @pytest.mark.parametrize("mode", list(JournalMode))
    def test_overwrite_and_delete(self, mode):
        __, __, __, db = make_db(mode)
        db.put(1, "v1")
        db.put(1, "v2")
        assert db.get(1) == "v2"
        assert db.delete(1)
        assert db.get(1) is None

    @pytest.mark.parametrize("mode", list(JournalMode))
    def test_multi_key_transaction(self, mode):
        __, __, __, db = make_db(mode)
        with db.transaction():
            for key in range(20):
                db.put(key, ("v", key))
        for key in range(20):
            assert db.get(key) == ("v", key)

    @pytest.mark.parametrize("mode", list(JournalMode))
    def test_abort_discards_changes(self, mode):
        __, __, __, db = make_db(mode)
        db.put(1, "committed")
        with pytest.raises(RuntimeError):
            with db.transaction():
                db.put(1, "doomed")
                db.put(2, "also doomed")
                raise RuntimeError("abort")
        assert db.get(1) == "committed"
        assert db.get(2) is None

    @pytest.mark.parametrize("mode", list(JournalMode))
    def test_many_rows_survive_splits(self, mode):
        __, __, __, db = make_db(mode)
        for i in range(800):
            db.put(i % 200, ("v", i))
        expected = {}
        for i in range(800):
            expected[i % 200] = ("v", i)
        assert sorted(expected.items()) == list(db.items())

    def test_nested_txn_rejected(self):
        __, __, __, db = make_db(JournalMode.SHARE)
        with pytest.raises(EngineError):
            with db.transaction():
                with db.transaction():
                    pass


class TestWriteCostSignatures:
    def run_workload(self, mode):
        ssd, __, __, db = make_db(mode)
        for i in range(400):
            db.put(i % 100, ("v", i))
        return ssd.stats.host_write_pages

    def test_share_writes_least(self):
        rollback = self.run_workload(JournalMode.ROLLBACK)
        wal = self.run_workload(JournalMode.WAL)
        share = self.run_workload(JournalMode.SHARE)
        assert share < wal
        assert share < rollback * 0.5

    def test_rollback_journals_before_images(self):
        __, __, __, db = make_db(JournalMode.ROLLBACK)
        db.put(1, "x")
        assert db.pager.stats.journal_page_writes > 0

    def test_wal_checkpoints(self, monkeypatch):
        # Checkpoint more often than the default 256 frames.
        monkeypatch.setattr(pager_module, "WAL_CHECKPOINT_FRAMES", 32)
        __, __, __, db = make_db(JournalMode.WAL)
        for i in range(200):
            db.put(i % 40, i)
        assert db.pager.stats.checkpoints > 0
        # Contents intact after checkpoints.
        for i in range(160, 200):
            assert db.get(i % 40) is not None

    def test_share_issues_share_pairs(self):
        ssd, __, __, db = make_db(JournalMode.SHARE)
        db.put(1, "x")
        assert ssd.stats.share_pairs > 0


class TestCrashRecovery:
    @pytest.mark.parametrize("mode", list(JournalMode))
    def test_clean_reopen(self, mode):
        ssd, fs, __, db = make_db(mode)
        for i in range(300):
            db.put(i % 80, ("v", i))
        ssd.power_cycle()
        db2 = SqliteLikeDb.open(fs, "/app.db", mode, page_count=PAGES)
        for i in range(220, 300):
            assert db2.get(i % 80) == ("v", i)

    def test_rollback_crash_mid_inplace_writes_rolls_back(self):
        ssd, fs, faults, db = make_db(JournalMode.ROLLBACK)
        db.put(1, "old-1")
        db.put(2, "old-2")
        faults.arm(PowerFailAfter("sqlite.after_journal"))
        with pytest.raises(PowerFailure):
            with db.transaction():
                db.put(1, "new-1")
                db.put(2, "new-2")
        ssd.power_cycle()
        db2 = SqliteLikeDb.open(fs, "/app.db", JournalMode.ROLLBACK,
                                page_count=PAGES)
        assert db2.get(1) == "old-1"
        assert db2.get(2) == "old-2"

    def test_rollback_crash_in_torn_window_repairs(self):
        ssd, fs, faults, db = make_db(JournalMode.ROLLBACK)
        db.put(1, "old")
        faults.arm(PowerFailAfter("sqlite.torn_window", nth=1))
        with pytest.raises(PowerFailure):
            db.put(1, "new")
        ssd.power_cycle()
        db2 = SqliteLikeDb.open(fs, "/app.db", JournalMode.ROLLBACK,
                                page_count=PAGES)
        assert db2.get(1) == "old"

    def test_wal_crash_before_commit_frame_discards(self):
        ssd, fs, faults, db = make_db(JournalMode.WAL)
        db.put(1, "old")
        faults.arm(PowerFailAfter("sqlite.after_wal_commit"))
        with pytest.raises(PowerFailure):
            db.put(1, "new")
        # The commit frame IS durable here (fault fires after fsync), so
        # the update must survive.
        ssd.power_cycle()
        db2 = SqliteLikeDb.open(fs, "/app.db", JournalMode.WAL,
                                page_count=PAGES)
        assert db2.get(1) == "new"

    def test_share_crash_before_remap_keeps_old(self):
        ssd, fs, faults, db = make_db(JournalMode.SHARE)
        db.put(1, "old")
        faults.arm(PowerFailAfter("sqlite.after_share_stage"))
        with pytest.raises(PowerFailure):
            db.put(1, "new")
        ssd.power_cycle()
        db2 = SqliteLikeDb.open(fs, "/app.db", JournalMode.SHARE,
                                page_count=PAGES)
        assert db2.get(1) == "old"

    def test_share_crash_mid_remap_batch_is_atomic(self):
        ssd, fs, faults, db = make_db(JournalMode.SHARE)
        with db.transaction():
            db.put(1, "old-1")
            db.put(2, "old-2")
        faults.arm(PowerFailAfter("maplog.before_commit"))
        with pytest.raises(PowerFailure):
            with db.transaction():
                db.put(1, "new-1")
                db.put(2, "new-2")
        ssd.power_cycle()
        db2 = SqliteLikeDb.open(fs, "/app.db", JournalMode.SHARE,
                                page_count=PAGES)
        assert db2.get(1) == "old-1"
        assert db2.get(2) == "old-2"

    def test_share_mode_never_needs_journal_files(self):
        __, fs, __, db = make_db(JournalMode.SHARE)
        db.put(1, "x")
        assert not fs.exists("/app.db" + "-journal")
        assert not fs.exists("/app.db" + "-wal")
