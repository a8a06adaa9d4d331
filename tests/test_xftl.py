"""Tests for the X-FTL transactional baseline (Section 6.2): device-level
transaction semantics, GC interaction, crash atomicity, and the SQLite
XFTL journal mode."""

import pytest

from repro.errors import FtlError, PowerFailure
from repro.host.filesystem import FsConfig, HostFs
from repro.sim.clock import SimClock
from repro.sim.faults import FaultPlan, PowerFailAfter
from repro.sqlitelike import JournalMode, SqliteLikeDb
from repro.ssd.device import Ssd

from conftest import small_ssd_config


class TestDeviceTransactions:
    def test_staged_writes_invisible_until_commit(self, ssd):
        ssd.write(5, "old")
        txn = ssd.begin_txn()
        ssd.write_txn(txn, 5, "new")
        assert ssd.read(5) == "old"
        ssd.commit_txn(txn)
        assert ssd.read(5) == "new"

    def test_abort_discards(self, ssd):
        ssd.write(5, "old")
        txn = ssd.begin_txn()
        ssd.write_txn(txn, 5, "new")
        ssd.abort_txn(txn)
        assert ssd.read(5) == "old"
        ssd.ftl.check_invariants()

    def test_restage_within_txn(self, ssd):
        txn = ssd.begin_txn()
        ssd.write_txn(txn, 5, "v1")
        ssd.write_txn(txn, 5, "v2")
        ssd.commit_txn(txn)
        assert ssd.read(5) == "v2"
        ssd.ftl.check_invariants()

    def test_unknown_txn_rejected(self, ssd):
        with pytest.raises(FtlError):
            ssd.write_txn(999, 5, "x")
        with pytest.raises(FtlError):
            ssd.commit_txn(999)
        with pytest.raises(FtlError):
            ssd.abort_txn(999)

    def test_capacity_limit(self, ssd):
        txn = ssd.begin_txn()
        limit = ssd.max_share_batch
        for lpn in range(limit):
            ssd.write_txn(txn, lpn, lpn)
        with pytest.raises(FtlError):
            ssd.write_txn(txn, limit, "overflow")

    def test_empty_commit_ok(self, ssd):
        txn = ssd.begin_txn()
        ssd.commit_txn(txn)

    def test_concurrent_transactions(self, ssd):
        a = ssd.begin_txn()
        b = ssd.begin_txn()
        ssd.write_txn(a, 1, "from-a")
        ssd.write_txn(b, 2, "from-b")
        ssd.commit_txn(b)
        assert ssd.read(2) == "from-b"
        assert not ssd.ftl.is_mapped(1)
        ssd.commit_txn(a)
        assert ssd.read(1) == "from-a"
        ssd.ftl.check_invariants()

    def test_commit_survives_power_cycle(self, ssd):
        txn = ssd.begin_txn()
        ssd.write_txn(txn, 7, "durable")
        ssd.commit_txn(txn)
        ssd.power_cycle()
        assert ssd.read(7) == "durable"

    def test_uncommitted_lost_on_power_cycle(self, ssd):
        ssd.write(7, "old")
        txn = ssd.begin_txn()
        ssd.write_txn(txn, 7, "staged")
        ssd.power_cycle()
        assert ssd.read(7) == "old"
        ssd.ftl.check_invariants()

    def test_crash_mid_commit_is_atomic(self, clock):
        faults = FaultPlan()
        ssd = Ssd(clock, small_ssd_config(), faults=faults)
        for lpn in (1, 2):
            ssd.write(lpn, ("old", lpn))
        txn = ssd.begin_txn()
        ssd.write_txn(txn, 1, "n1")
        ssd.write_txn(txn, 2, "n2")
        faults.arm(PowerFailAfter("maplog.before_commit"))
        with pytest.raises(PowerFailure):
            ssd.commit_txn(txn)
        ssd.power_cycle()
        assert ssd.read(1) == ("old", 1)
        assert ssd.read(2) == ("old", 2)

    def test_gc_moves_shadow_pages(self, ssd):
        ssd.write(0, "anchor")
        txn = ssd.begin_txn()
        ssd.write_txn(txn, 1, "shadow-payload")
        # Churn hard so GC must relocate the shadow page's block.
        import random
        rng = random.Random(6)
        span = ssd.logical_pages - 50
        for i in range(ssd.logical_pages * 3):
            ssd.write(10 + rng.randrange(span - 10), ("churn", i))
        assert ssd.stats.gc_events > 0
        ssd.commit_txn(txn)
        assert ssd.read(1) == "shadow-payload"
        ssd.ftl.check_invariants()


class TestSqliteXftlMode:
    def make_db(self, faults=None):
        clock = SimClock()
        faults = faults or FaultPlan()
        ssd = Ssd(clock, small_ssd_config(), faults=faults)
        fs = HostFs(ssd, FsConfig(journal_blocks=8))
        db = SqliteLikeDb(fs, "/x.db", JournalMode.XFTL, page_count=1200,
                          faults=faults)
        return ssd, fs, faults, db

    def test_put_get(self):
        __, __, __, db = self.make_db()
        db.put(1, "one")
        assert db.get(1) == "one"

    def test_no_journal_files(self):
        __, fs, __, db = self.make_db()
        db.put(1, "x")
        assert sorted(fs._files) == ["/x.db"]

    def test_single_write_per_page(self):
        ssd, __, __, db = self.make_db()
        for i in range(200):
            db.put(i % 50, ("v", i))
        # Host writes ~= pages committed (plus bootstrap): no doubling.
        committed = db.pager.stats.pages_committed
        assert ssd.stats.host_write_pages < committed * 1.2

    def test_crash_mid_commit_rolls_back(self):
        faults = FaultPlan()
        ssd, fs, faults, db = self.make_db(faults)
        with db.transaction():
            db.put(1, "old-1")
            db.put(2, "old-2")
        faults.arm(PowerFailAfter("sqlite.xftl_write", nth=2))
        with pytest.raises(PowerFailure):
            with db.transaction():
                db.put(1, "new-1")
                db.put(2, "new-2")
        ssd.power_cycle()
        db2 = SqliteLikeDb.open(fs, "/x.db", JournalMode.XFTL,
                                page_count=1200)
        assert db2.get(1) == "old-1"
        assert db2.get(2) == "old-2"

    def test_reopen_after_clean_run(self):
        ssd, fs, __, db = self.make_db()
        for i in range(300):
            db.put(i % 60, ("v", i))
        ssd.power_cycle()
        db2 = SqliteLikeDb.open(fs, "/x.db", JournalMode.XFTL,
                                page_count=1200)
        for i in range(240, 300):
            assert db2.get(i % 60) == ("v", i)
