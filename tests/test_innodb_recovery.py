"""The crash-safety matrix of DESIGN.md for MySQL/InnoDB: torn pages,
doublewrite repair, SHARE-mode recovery, and redo replay."""

import pytest

from repro.errors import PowerFailure, TornPageError
from repro.flash.geometry import FlashGeometry
from repro.flash.timing import FAST_TIMING
from repro.ftl.config import FtlConfig
from repro.innodb.engine import FlushMode, InnoDBConfig, InnoDBEngine
from repro.innodb.recovery import recover
from repro.sim.clock import SimClock
from repro.sim.faults import FaultPlan, PowerFailAfter
from repro.ssd.device import Ssd, SsdConfig


def make_engine(mode, faults=None):
    faults = faults or FaultPlan()
    clock = SimClock()
    geo = FlashGeometry(page_size=4096, pages_per_block=64, block_count=256,
                        overprovision_ratio=0.1)
    data = Ssd(clock, SsdConfig(geometry=geo, timing=FAST_TIMING,
                                ftl=FtlConfig()), faults=faults)
    log = Ssd(clock, SsdConfig(geometry=FlashGeometry(
        page_size=4096, pages_per_block=64, block_count=128),
        timing=FAST_TIMING, share_enabled=False))
    engine = InnoDBEngine(mode, data, log, InnoDBConfig(
        buffer_pool_pages=32, flush_batch_pages=16), faults=faults)
    return faults, data, log, engine


def fill(engine, ops=1500, keys=800):
    engine.create_table("t")
    for i in range(ops):
        with engine.transaction() as txn:
            txn.put("t", i % keys, ("row", i))


def expected_rows(ops=1500, keys=800):
    rows = {}
    for i in range(ops):
        rows[i % keys] = ("row", i)
    return rows


class TestCleanRestart:
    @pytest.mark.parametrize("mode", list(FlushMode))
    def test_committed_data_survives(self, mode):
        __, data, log, engine = make_engine(mode)
        fill(engine)
        engine2, report = recover(mode, data, log)
        assert report.pages_repaired_from_dwb == report.torn_pages_found
        rows = expected_rows()
        for key in range(0, 800, 13):
            assert engine2.table("t").get(key) == rows[key]


class TestTornPage:
    def test_dwb_on_repairs_torn_page(self):
        faults, data, log, engine = make_engine(FlushMode.DWB_ON)
        fill(engine, ops=400)
        # Kill power during the 5th home write of the next flush: the DWB
        # copy is already durable, so recovery must repair the torn page.
        faults.arm(PowerFailAfter("innodb.torn_window", nth=5))
        with pytest.raises(PowerFailure):
            fill_more(engine, 2000)
        faults.disarm()
        engine2, report = recover(FlushMode.DWB_ON, data, log)
        assert report.torn_pages_found
        assert report.pages_repaired_from_dwb == report.torn_pages_found

    def test_dwb_off_loses_torn_page(self):
        faults, data, log, engine = make_engine(FlushMode.DWB_OFF)
        fill(engine, ops=400)
        faults.arm(PowerFailAfter("innodb.torn_window", nth=5))
        with pytest.raises(PowerFailure):
            fill_more(engine, 2000)
        faults.disarm()
        with pytest.raises(TornPageError):
            recover(FlushMode.DWB_OFF, data, log)
        # Non-strict recovery reports the damage instead of raising.
        data.power_cycle()
        log.power_cycle()

    def test_share_mode_never_tears_home_pages(self):
        # SHARE has no second write: the torn window is never entered for
        # home locations, so no torn page can exist.
        faults, data, log, engine = make_engine(FlushMode.SHARE)
        fill(engine, ops=2500)
        assert faults.hits("innodb.torn_window") == 0
        engine2, report = recover(FlushMode.SHARE, data, log)
        assert not report.torn_pages_found
        assert report.pages_repaired_from_dwb == report.torn_pages_found


class TestCrashWindows:
    def test_crash_after_dwb_stage_recovers(self):
        faults, data, log, engine = make_engine(FlushMode.DWB_ON)
        fill(engine, ops=400)
        faults.arm(PowerFailAfter("innodb.home_write", nth=1))
        with pytest.raises(PowerFailure):
            fill_more(engine, 2000)
        faults.disarm()
        engine2, report = recover(FlushMode.DWB_ON, data, log)
        assert report.pages_repaired_from_dwb == report.torn_pages_found

    def test_crash_before_share_remap_recovers(self):
        faults, data, log, engine = make_engine(FlushMode.SHARE)
        fill(engine, ops=400)
        faults.arm(PowerFailAfter("innodb.share_remap", nth=1))
        with pytest.raises(PowerFailure):
            fill_more(engine, 2000)
        faults.disarm()
        engine2, report = recover(FlushMode.SHARE, data, log)
        assert report.pages_repaired_from_dwb == report.torn_pages_found

    def test_crash_mid_share_commit_recovers(self):
        faults, data, log, engine = make_engine(FlushMode.SHARE)
        fill(engine, ops=400)
        faults.arm(PowerFailAfter("maplog.before_commit", nth=3))
        with pytest.raises(PowerFailure):
            fill_more(engine, 4000)
        faults.disarm()
        engine2, report = recover(FlushMode.SHARE, data, log)
        assert report.pages_repaired_from_dwb == report.torn_pages_found


class TestRedoReplay:
    @pytest.mark.parametrize("mode", [FlushMode.DWB_ON, FlushMode.SHARE])
    def test_all_committed_transactions_replayed(self, mode):
        __, data, log, engine = make_engine(mode)
        fill(engine, ops=800, keys=200)
        engine2, report = recover(mode, data, log)
        assert report.records_replayed == 800
        rows = expected_rows(ops=800, keys=200)
        for key, value in rows.items():
            assert engine2.table("t").get(key) == value

    def test_engine_usable_after_recovery(self):
        __, data, log, engine = make_engine(FlushMode.SHARE)
        fill(engine, ops=300)
        engine2, __ = recover(FlushMode.SHARE, data, log)
        with engine2.transaction() as txn:
            txn.put("t", 9999, "post-recovery")
        engine3, __ = recover(FlushMode.SHARE, data, log)
        assert engine3.table("t").get(9999) == "post-recovery"


def fill_more(engine, ops):
    for i in range(ops):
        with engine.transaction() as txn:
            txn.put("t", i % 800, ("more", i))
