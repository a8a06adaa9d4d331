"""Tests for the atomic-write baseline command (Section 6.1) and the
reflink-style file copy built on SHARE (Section 1)."""

import dataclasses
import random

import pytest

from repro.errors import (DeviceError, FtlError, PowerFailure,
                          ProgramFailError)
from repro.ftl.config import FtlConfig
from repro.ftl.mapping import STRATEGY_NAMES
from repro.host.filesystem import METADATA_PAGES_PER_COMMIT, FsConfig, HostFs
from repro.host.ioctl import atomic_write_ioctl
from repro.innodb.engine import FlushMode
from repro.sim.faults import FaultPlan, PowerFailAfter, ProgramFault
from repro.ssd.device import Ssd

from conftest import small_ssd_config


class TestWriteAtomicCommand:
    def test_applies_all_pages(self, ssd):
        ssd.write_atomic([(10, "a"), (11, "b"), (12, "c")])
        assert [ssd.read(10 + i) for i in range(3)] == ["a", "b", "c"]

    def test_overwrites_previous_content(self, ssd):
        ssd.write(10, "old")
        ssd.write_atomic([(10, "new"), (11, "fresh")])
        assert ssd.read(10) == "new"

    def test_survives_power_cycle(self, ssd):
        ssd.write_atomic([(10, "a"), (11, "b")])
        ssd.power_cycle()
        assert ssd.read(10) == "a"
        assert ssd.read(11) == "b"
        ssd.ftl.check_invariants()

    def test_crash_before_commit_reverts_all(self, clock):
        faults = FaultPlan()
        ssd = Ssd(clock, small_ssd_config(), faults=faults)
        ssd.write(10, "old-a")
        ssd.write(11, "old-b")
        faults.arm(PowerFailAfter("maplog.before_commit"))
        with pytest.raises(PowerFailure):
            ssd.write_atomic([(10, "new-a"), (11, "new-b")])
        ssd.power_cycle()
        assert ssd.read(10) == "old-a"
        assert ssd.read(11) == "old-b"
        ssd.ftl.check_invariants()

    def test_crash_mid_programs_reverts_all(self, clock):
        faults = FaultPlan()
        ssd = Ssd(clock, small_ssd_config(), faults=faults)
        ssd.write(10, "old-a")
        ssd.write(11, "old-b")
        faults.arm(PowerFailAfter("ftl.awrite_program", nth=2))
        with pytest.raises(PowerFailure):
            ssd.write_atomic([(10, "new-a"), (11, "new-b")])
        ssd.power_cycle()
        assert ssd.read(10) == "old-a"
        assert ssd.read(11) == "old-b"

    def test_crash_after_commit_keeps_all(self, clock):
        faults = FaultPlan()
        ssd = Ssd(clock, small_ssd_config(), faults=faults)
        faults.arm(PowerFailAfter("maplog.after_commit"))
        with pytest.raises(PowerFailure):
            ssd.write_atomic([(10, "a"), (11, "b")])
        ssd.power_cycle()
        assert ssd.read(10) == "a"
        assert ssd.read(11) == "b"

    def test_empty_rejected(self, ssd):
        with pytest.raises(DeviceError):
            ssd.write_atomic([])

    def test_duplicate_lpn_rejected(self, ssd):
        with pytest.raises(FtlError):
            ssd.write_atomic([(5, "a"), (5, "b")])

    def test_oversized_batch_rejected(self, ssd):
        items = [(i, i) for i in range(ssd.max_share_batch + 1)]
        with pytest.raises(FtlError):
            ssd.write_atomic(items)

    def test_gc_during_batch_preserves_atomicity(self, clock):
        # Fill the device so allocation during the batch triggers GC,
        # then crash before commit: old state must survive.
        faults = FaultPlan()
        ssd = Ssd(clock, small_ssd_config(), faults=faults)
        hot = ssd.logical_pages // 3
        for i in range(ssd.logical_pages * 2):
            ssd.write(i % hot, ("churn", i))
        for lpn in (hot + 1, hot + 2):
            ssd.write(lpn, ("old", lpn))
        faults.arm(PowerFailAfter("maplog.before_commit"))
        with pytest.raises(PowerFailure):
            ssd.write_atomic([(hot + 1, "n1"), (hot + 2, "n2")])
        ssd.power_cycle()
        assert ssd.read(hot + 1) == ("old", hot + 1)
        assert ssd.read(hot + 2) == ("old", hot + 2)
        ssd.ftl.check_invariants()

    def test_atomic_write_ioctl_through_file(self, clock):
        ssd = Ssd(clock, small_ssd_config())
        fs = HostFs(ssd, FsConfig(journal_blocks=8))
        f = fs.create("/f")
        f.fallocate(4)
        commands = atomic_write_ioctl(f, [(0, "a"), (2, "c")])
        assert commands == 1
        assert f.pread_block(0) == "a"
        assert f.pread_block(2) == "c"


class TestAtomicityUnderGcAndMediaFaults:
    """The batch is all-or-nothing even when GC or a program failure
    runs inside the command — the forward map must not move before the
    commit record."""

    @pytest.mark.parametrize("strategy", STRATEGY_NAMES)
    def test_power_cut_mid_batch_under_gc_loses_nothing(self, clock,
                                                        strategy):
        # 85 % full, so every 48-page batch allocates through GC; cut
        # the power early, mid-way, late and on the last page program.
        faults = FaultPlan()
        config = small_ssd_config()
        config = dataclasses.replace(config, ftl=dataclasses.replace(
            config.ftl, l2p_strategy=strategy))
        ssd = Ssd(clock, config, faults=faults)
        span = int(ssd.logical_pages * 0.85)
        acked = {}
        for lpn in range(span):
            ssd.write(lpn, ("fill", lpn))
            acked[lpn] = ("fill", lpn)
        rng = random.Random(0xA70)
        for round_no in range(40):
            for nth in (5, 20, 40, 47):
                items = [(lpn, ("cut", round_no, nth, lpn))
                         for lpn in rng.sample(range(span), 48)]
                faults.arm(PowerFailAfter("ftl.awrite_program", nth))
                with pytest.raises(PowerFailure):
                    ssd.write_atomic(items)
                ssd.power_cycle()
                ftl = ssd.ftl
                lost = [lpn for lpn, value in acked.items()
                        if not ftl.is_mapped(lpn) or ftl.read(lpn) != value]
                assert not lost, (
                    f"round {round_no}, cut at page program {nth}: "
                    f"acked LPNs {lost[:8]} did not survive")
            items = [(lpn, ("ok", round_no, lpn))
                     for lpn in rng.sample(range(span), 48)]
            ssd.write_atomic(items)
            acked.update(items)
        ssd.ftl.check_invariants()

    def test_failed_batch_leaves_the_live_device_all_old(self, clock):
        # A page of the batch fails to program on two consecutive blocks
        # (the retry limit), so the command raises the typed error with
        # earlier pages of the batch already on flash.
        config = dataclasses.replace(
            small_ssd_config(),
            ftl=FtlConfig(map_block_count=4, spare_block_count=2,
                          program_retry_limit=2))
        batch = [(lpn, ("new", lpn)) for lpn in range(6)]

        def device():
            faults = FaultPlan()
            ssd = Ssd(clock, config, faults=faults)
            for lpn in range(10):
                ssd.write(lpn, ("old", lpn))
            # The third page of the batch fails its first program.
            faults.media.arm(
                ProgramFault(nth=faults.media.op_counts["program"] + 3))
            return ssd, faults

        # A twin run with only that fault armed shows where the retry
        # lands; failing that PPN as well exhausts the retry limit.
        twin, __ = device()
        twin.write_atomic(batch)
        retry_ppn = twin.ftl.fwd.lookup(batch[2][0])

        ssd, faults = device()
        faults.media.arm(ProgramFault(ppn=retry_ppn))
        with pytest.raises(ProgramFailError):
            ssd.write_atomic(batch)
        assert ssd.ftl.stats.program_fails == 2
        assert [ssd.read(lpn) for lpn in range(10)] == \
            [("old", lpn) for lpn in range(10)]
        ssd.ftl.check_invariants()
        ssd.power_cycle()
        assert [ssd.read(lpn) for lpn in range(10)] == \
            [("old", lpn) for lpn in range(10)]
        ssd.ftl.check_invariants()


class TestInnoDbAtomicWriteMode:
    def test_engine_runs_in_atomic_write_mode(self, clock):
        from repro.flash.geometry import FlashGeometry
        from repro.flash.timing import FAST_TIMING
        from repro.innodb.engine import InnoDBConfig, InnoDBEngine
        from repro.sim.clock import SimClock
        from repro.ssd.device import SsdConfig
        geo = FlashGeometry(page_size=4096, pages_per_block=64,
                            block_count=256, overprovision_ratio=0.1)
        data = Ssd(clock, SsdConfig(geometry=geo, timing=FAST_TIMING))
        log = Ssd(clock, SsdConfig(geometry=FlashGeometry.small(),
                                   timing=FAST_TIMING, share_enabled=False))
        engine = InnoDBEngine(FlushMode.ATOMIC_WRITE, data, log,
                              InnoDBConfig(buffer_pool_pages=32,
                                           flush_batch_pages=16))
        engine.create_table("t")
        for i in range(2000):
            with engine.transaction() as txn:
                txn.put("t", i % 500, ("row", i))
        # Single write per page, like SHARE; no share pairs, no torn window.
        assert data.stats.share_pairs == 0
        assert data.stats.extra.get("atomic_write_commands", 0) > 0
        engine.pool.drop_clean()
        with engine.transaction() as txn:
            assert txn.get("t", 3) is not None


class TestReflinkCopy:
    def test_copy_without_copying(self, clock):
        ssd = Ssd(clock, small_ssd_config())
        fs = HostFs(ssd, FsConfig(journal_blocks=8))
        src = fs.create("/src")
        for i in range(10):
            src.append_block(("data", i))
        writes_before = ssd.stats.host_write_pages
        fs.reflink_copy("/src", "/dst")
        data_writes = (ssd.stats.host_write_pages - writes_before
                       - METADATA_PAGES_PER_COMMIT)
        assert data_writes == 0, "reflink must copy no data pages"
        dst = fs.open("/dst")
        for i in range(10):
            assert dst.pread_block(i) == ("data", i)

    def test_copies_are_independent(self, clock):
        ssd = Ssd(clock, small_ssd_config())
        fs = HostFs(ssd, FsConfig(journal_blocks=8))
        src = fs.create("/src")
        src.append_block("original")
        fs.reflink_copy("/src", "/dst")
        src.pwrite_block(0, "modified")
        assert fs.open("/dst").pread_block(0) == "original"
        assert src.pread_block(0) == "modified"

    def test_copy_survives_source_unlink(self, clock):
        ssd = Ssd(clock, small_ssd_config())
        fs = HostFs(ssd, FsConfig(journal_blocks=8))
        src = fs.create("/src")
        src.append_block("keep")
        fs.reflink_copy("/src", "/dst")
        fs.unlink("/src")
        assert fs.open("/dst").pread_block(0) == "keep"
        ssd.ftl.check_invariants()

    def test_holes_stay_holes(self, clock):
        ssd = Ssd(clock, small_ssd_config())
        fs = HostFs(ssd, FsConfig(journal_blocks=8))
        src = fs.create("/src")
        src.fallocate(4)
        src.pwrite_block(1, "only-written-block")
        fs.reflink_copy("/src", "/dst")
        dst = fs.open("/dst")
        assert dst.pread_block(1) == "only-written-block"
        assert not ssd.ftl.is_mapped(dst.block_lpn(0))

    def test_empty_file_copy(self, clock):
        ssd = Ssd(clock, small_ssd_config())
        fs = HostFs(ssd, FsConfig(journal_blocks=8))
        fs.create("/src")
        assert fs.reflink_copy("/src", "/dst") == 0
        assert fs.open("/dst").block_count == 0
