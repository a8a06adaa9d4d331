"""Unit tests for NAND media faults and the FTL's degradation paths.

Covers the chip-level fault model (program/erase failures, transient and
sticky read errors, silent corruption), the FTL's
survival machinery (read-retry, scrubbing, block retirement, spare-pool
backfill, bad-block persistence), the wear accounting the lifespan
argument rests on, and the out-of-space contract when retirements shrink
the device below its live set.
"""

import pytest

from repro.errors import (
    EraseFailError,
    OutOfSpaceError,
    ProgramFailError,
    UncorrectableReadError,
)
from repro.flash.geometry import FlashGeometry
from repro.flash.nand import NandArray
from repro.flash.timing import FAST_TIMING
from repro.ftl.config import FtlConfig
from repro.sim.clock import SimClock
from repro.sim.faults import (
    CORRUPT_PAYLOAD,
    CorruptRead,
    EraseFault,
    FaultPlan,
    ProgramFault,
    ReadFault,
)
from repro.ssd.device import Ssd, SsdConfig


def next_op(faults, kind):
    """The ``nth`` that targets the next ``kind`` operation of ``faults``."""
    return faults.media.op_counts[kind] + 1


def small_geometry(block_count=16, pages_per_block=8):
    return FlashGeometry(page_size=512, pages_per_block=pages_per_block,
                         block_count=block_count, overprovision_ratio=0.25)


def make_ssd(faults, block_count=16, pages_per_block=8, map_blocks=2,
             spare_blocks=1, **ftl_kwargs):
    config = SsdConfig(
        geometry=small_geometry(block_count, pages_per_block),
        timing=FAST_TIMING,
        ftl=FtlConfig(map_block_count=map_blocks,
                      spare_block_count=spare_blocks,
                      share_table_entries=16, **ftl_kwargs))
    return Ssd(SimClock(), config, faults=faults)


# ------------------------------------------------------------- chip level


class TestNandMediaFaults:
    def setup_method(self):
        self.faults = FaultPlan()
        self.geo = small_geometry()
        self.nand = NandArray(self.geo, faults=self.faults)

    def test_program_fail_consumes_slot_and_page_is_dead(self):
        self.faults.media.arm(ProgramFault(nth=1))
        with pytest.raises(ProgramFailError):
            self.nand.program(0, "doomed", spare=((0, 1),))
        # The slot is consumed: in-order rule continues at the next page.
        assert self.nand.programmed_pages_in_block(0) == 1
        assert self.nand.is_failed(0)
        assert not self.nand.is_programmed(0)
        with pytest.raises(UncorrectableReadError):
            self.nand.read(0)
        # The next program of the block lands on the following page.
        self.nand.program(1, "fine", spare=((1, 2),))
        assert self.nand.read(1) == "fine"
        # The OOB scan skips the failed page (it holds no stamp).
        assert [ppn for ppn, __ in self.nand.scan_block(0)] == [1]
        assert self.nand.failed_programs == 1

    def test_transient_read_fault_clears_after_retry(self):
        self.nand.program(0, "data", spare=((0, 1),))
        self.faults.media.arm(
            ReadFault(nth=next_op(self.faults, "read"), retries_to_clear=1))
        with pytest.raises(UncorrectableReadError):
            self.nand.read(0)
        assert self.nand.read(0) == "data"   # retry succeeds, fault cleared
        assert self.nand.read(0) == "data"
        assert self.nand.failed_reads == 1

    def test_sticky_read_fault_is_a_dead_page(self):
        self.nand.program(0, "data", spare=((0, 1),))
        self.faults.media.arm(ReadFault(nth=next_op(self.faults, "read")))
        for __ in range(3):
            with pytest.raises(UncorrectableReadError):
                self.nand.read(0)
        # The spare area is separately protected: OOB still readable.
        assert self.nand.read_spare(0) == ((0, 1),)

    def test_nth_read_fault_binds_to_the_page_it_hits(self):
        self.nand.program(0, "a", spare=((0, 1),))
        self.nand.program(1, "b", spare=((1, 2),))
        fault = ReadFault(nth=2)
        self.faults.media.arm(fault)
        assert self.nand.read(0) == "a"          # read #1: no fire
        with pytest.raises(UncorrectableReadError):
            self.nand.read(1)                    # read #2 fires and binds
        assert fault.location == 1
        assert self.nand.read(0) == "a"          # other pages unaffected
        with pytest.raises(UncorrectableReadError):
            self.nand.read(1)                    # sticky at the bound page

    def test_corrupt_read_returns_garbage_not_error(self):
        self.nand.program(0, "data", spare=((0, 1),))
        self.faults.media.arm(CorruptRead(nth=next_op(self.faults, "read")))
        assert self.nand.read(0) == (CORRUPT_PAYLOAD, 0)
        assert self.nand.read(0) == (CORRUPT_PAYLOAD, 0)   # sticky

    def test_erase_fail_leaves_contents_untouched(self):
        self.nand.program(0, "data", spare=((0, 1),))
        self.faults.media.arm(EraseFault(nth=next_op(self.faults, "erase")))
        with pytest.raises(EraseFailError):
            self.nand.erase(0)
        assert self.nand.read(0) == "data"
        assert self.nand.erase_counts[0] == 0     # a failed erase is no wear
        assert self.nand.failed_erases == 1
        with pytest.raises(EraseFailError):
            self.nand.erase(0)                    # sticky: block stays bad

    def test_op_counting_without_armed_faults(self):
        self.faults.media.enable_counting()
        self.nand.program(0, "x", spare=((0, 1),))
        self.nand.read(0)
        self.nand.read(0)
        self.nand.erase(1)
        assert self.faults.media.op_counts == {"read": 2, "program": 1,
                                               "erase": 1}

    def test_cleared_nth_read_fault_does_not_hide_the_next_fault(self):
        self.nand.program(0, "data", spare=((0, 1),))
        corrupt = CorruptRead(nth=2)
        self.faults.media.arm(ReadFault(nth=1, retries_to_clear=1))
        self.faults.media.arm(corrupt)
        with pytest.raises(UncorrectableReadError):
            self.nand.read(0)                     # read 1 binds and fails
        assert self.nand.read(0) == (CORRUPT_PAYLOAD, 0)   # read 2 clears it
        assert corrupt.fired


class TestWearAccounting:
    """Satellite: erase-count bookkeeping behind the §5.3.1 lifespan metric."""

    def test_wear_summary_fresh_device(self):
        nand = NandArray(small_geometry())
        assert nand.wear_summary() == {"min": 0, "mean": 0.0, "max": 0}
        assert nand.max_erase_count == 0
        assert sum(nand.erase_counts) == 0

    def test_wear_summary_tracks_per_block_erases(self):
        nand = NandArray(small_geometry(block_count=4))
        for __ in range(3):
            nand.erase(0)
        nand.erase(1)
        assert nand.erase_counts == [3, 1, 0, 0]
        summary = nand.wear_summary()
        assert summary["min"] == 0
        assert summary["max"] == 3
        assert summary["mean"] == pytest.approx(1.0)
        assert nand.max_erase_count == 3
        assert sum(nand.erase_counts) == 4

    def test_erase_resets_program_order_and_counts_wear(self):
        nand = NandArray(small_geometry())
        nand.program(0, "a")
        nand.program(1, "b")
        nand.erase(0)
        assert nand.programmed_pages_in_block(0) == 0
        nand.program(0, "again")   # offset 0 valid again post-erase
        assert nand.read(0) == "again"
        assert nand.erase_counts[0] == 1


# -------------------------------------------------------------- FTL level


class TestFtlDegradation:
    def test_read_retry_heals_and_scrubs(self):
        faults = FaultPlan()
        ssd = make_ssd(faults)
        ssd.write(0, "payload")
        ppn = dict(ssd.ftl.fwd.mapped_lpns())[0]
        fault = ReadFault(nth=next_op(faults, "read"), retries_to_clear=1)
        faults.media.arm(fault)
        assert ssd.read(0) == "payload"
        assert fault.location == ppn
        assert ssd.ftl.stats.read_retries >= 1
        assert ssd.ftl.stats.read_relocations == 1
        assert dict(ssd.ftl.fwd.mapped_lpns())[0] != ppn   # scrubbed away

    def test_scrubbed_shared_page_keeps_every_ref(self):
        faults = FaultPlan()
        ssd = make_ssd(faults)
        ssd.write(0, "shared-payload")
        ssd.share(7, 0, 1)
        ppn = dict(ssd.ftl.fwd.mapped_lpns())[0]
        fault = ReadFault(nth=next_op(faults, "read"), retries_to_clear=1)
        faults.media.arm(fault)
        assert ssd.read(0) == "shared-payload"
        assert fault.location == ppn
        mapped = dict(ssd.ftl.fwd.mapped_lpns())
        assert mapped[0] == mapped[7] != ppn
        # Copy-safe: both stamps survive an immediate power cycle.
        ssd.power_cycle()
        assert ssd.read(0) == "shared-payload"
        assert ssd.read(7) == "shared-payload"

    def test_uncorrectable_read_surfaces_typed_error(self):
        faults = FaultPlan()
        ssd = make_ssd(faults)
        ssd.write(3, "gone")
        ppn = dict(ssd.ftl.fwd.mapped_lpns())[3]
        fault = ReadFault(nth=next_op(faults, "read"))   # sticky dead page
        faults.media.arm(fault)
        with pytest.raises(UncorrectableReadError):
            ssd.read(3)
        assert fault.location == ppn
        assert ssd.ftl.stats.uncorrectable_reads >= 1

    def test_program_fail_retires_block_and_loses_nothing(self):
        faults = FaultPlan()
        ssd = make_ssd(faults, spare_blocks=1)
        for lpn in range(10):
            ssd.write(lpn, ("v", lpn))
        assert ssd.ftl.media_report()["spare_pool"] == 1
        faults.media.arm(
            ProgramFault(nth=faults.media.op_counts["program"] + 1))
        ssd.write(5, "rewritten")
        assert len(ssd.ftl.grown_bad_blocks) == 1
        assert ssd.ftl.media_report()["spare_pool"] == 0   # spare backfilled the pool
        assert ssd.ftl.stats.program_fails == 1
        assert ssd.read(5) == "rewritten"
        for lpn in range(10):
            if lpn != 5:
                assert ssd.read(lpn) == ("v", lpn)
        report = ssd.media_report()
        assert report["grown_bad_blocks"] == 1
        assert report["nand_failed_programs"] == 1

    def test_grown_bad_block_survives_recovery(self):
        faults = FaultPlan()
        ssd = make_ssd(faults, spare_blocks=1)
        for lpn in range(10):
            ssd.write(lpn, ("v", lpn))
        faults.media.arm(
            ProgramFault(nth=faults.media.op_counts["program"] + 1))
        ssd.write(5, "rewritten")
        bad = ssd.ftl.grown_bad_blocks
        ssd.power_cycle()
        assert ssd.ftl.grown_bad_blocks == bad
        assert ssd.ftl.media_report()["spare_pool"] == 0
        assert not bad & set(ssd.ftl.free_blocks())
        assert ssd.read(5) == "rewritten"
        for lpn in range(10):
            if lpn != 5:
                assert ssd.read(lpn) == ("v", lpn)
        # And the retirement stays sticky across a second recovery.
        ssd.power_cycle()
        assert ssd.ftl.grown_bad_blocks == bad

    def test_erase_fail_at_gc_retires_the_block(self):
        faults = FaultPlan()
        ssd = make_ssd(faults, spare_blocks=1,
                       gc_low_water=3, gc_high_water=5)
        faults.media.arm(EraseFault(nth=1))   # the first GC erase fails
        span = 24
        for i in range(160):
            ssd.write(i % span, ("churn", i))
        assert ssd.ftl.stats.erase_fails == 1
        assert len(ssd.ftl.grown_bad_blocks) == 1
        for lpn in range(span):
            assert ssd.read(lpn)[0] == "churn"

    def test_corrupt_map_page_detected_by_checksum(self):
        faults = FaultPlan()
        ssd = make_ssd(faults)
        for lpn in range(8):
            ssd.write(lpn, ("v", lpn))
        ssd.share(10, 0, 1)   # force a mapping-log record
        geo = ssd.config.geometry
        map_blocks = range(geo.block_count - 2, geo.block_count)
        map_pages = [geo.first_ppn(b) + off for b in map_blocks
                     for off in range(ssd.nand.programmed_pages_in_block(b))]
        assert map_pages, "workload must have written a map page"
        # Recovery's first read is the first mapping page.
        fault = CorruptRead(nth=next_op(faults, "read"))
        faults.media.arm(fault)
        ssd.power_cycle()
        assert fault.location == map_pages[0]
        # The checksum catches the garbage instead of trusting it...
        assert ssd.ftl.stats.corrupt_map_pages >= 1
        # ...and recovery still restores every primary mapping from OOB.
        for lpn in range(8):
            assert ssd.read(lpn) == ("v", lpn)


class TestOutOfSpaceUnderRetirement:
    """Satellite: spare-pool exhaustion must surface typed, never loop."""

    def test_retirements_below_live_set_raise_out_of_space(self):
        faults = FaultPlan()
        ssd = make_ssd(faults, spare_blocks=1,
                       gc_low_water=2, gc_high_water=4)
        span = ssd.config.geometry.logical_pages // 2
        for lpn in range(span):
            ssd.write(lpn, ("base", lpn))
        ssd.share(span, 0, 1)   # a populated share table rides along
        ssd.share(span + 1, 1, 1)
        with pytest.raises(OutOfSpaceError):
            # Each iteration retires one more block; the device must give
            # up with the typed error once GC can make no progress, well
            # within this bound (no infinite GC loop).
            for step in range(64):
                faults.media.arm(
                    ProgramFault(nth=faults.media.op_counts["program"] + 1))
                ssd.write(step % span, ("more", step))
        # Acked data on the shrunken device still reads back correctly.
        assert ssd.read(span) == ("base", 0)
