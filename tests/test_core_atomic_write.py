"""Unit tests for the SHARE-based atomic-write primitive."""

import pytest

from repro.errors import PowerFailure, ShareError
from repro.core.atomic_write import AtomicWriter, ScratchArea
from repro.sim.clock import SimClock
from repro.sim.faults import FaultPlan, PowerFailAfter
from repro.ssd.device import Ssd

from conftest import small_ssd_config


@pytest.fixture
def stack(clock):
    ssd = Ssd(clock, small_ssd_config())
    scratch = ScratchArea(ssd, base_lpn=1500, size_pages=32)
    return ssd, scratch


class TestScratchArea:
    def test_stage_round_robin(self, stack):
        ssd, scratch = stack
        first = scratch.stage("a")
        second = scratch.stage("b")
        assert second == first + 1
        assert ssd.read(first) == "a"

    def test_wraps(self, stack):
        ssd, scratch = stack
        lpns = [scratch.stage(i) for i in range(scratch.size_pages + 2)]
        assert lpns[0] == lpns[scratch.size_pages]

    def test_bad_geometry_rejected(self, stack):
        ssd, __ = stack
        with pytest.raises(ValueError):
            ScratchArea(ssd, base_lpn=ssd.logical_pages - 1, size_pages=8)
        with pytest.raises(ValueError):
            ScratchArea(ssd, base_lpn=0, size_pages=0)


class TestAtomicWriter:
    def test_commit_applies_all(self, stack):
        ssd, scratch = stack
        writer = AtomicWriter(ssd, scratch)
        writer.stage(10, "ten")
        writer.stage(11, "eleven")
        assert writer.commit() == 2
        assert ssd.read(10) == "ten"
        assert ssd.read(11) == "eleven"
        with pytest.raises(ShareError):
            writer.commit()                 # the commit emptied the stage

    def test_restage_supersedes(self, stack):
        ssd, scratch = stack
        writer = AtomicWriter(ssd, scratch)
        writer.stage(10, "v1")
        writer.stage(10, "v2")
        writer.commit()
        assert ssd.read(10) == "v2"

    def test_abort_leaves_old_content(self, stack):
        ssd, scratch = stack
        ssd.write(10, "old")
        writer = AtomicWriter(ssd, scratch)
        writer.stage(10, "new")
        writer.abort()
        assert ssd.read(10) == "old"
        with pytest.raises(ShareError):
            writer.commit()

    def test_destination_inside_scratch_rejected(self, stack):
        ssd, scratch = stack
        writer = AtomicWriter(ssd, scratch)
        with pytest.raises(ShareError):
            writer.stage(scratch.base_lpn, "x")

    def test_crash_before_commit_keeps_all_old(self, clock):
        faults = FaultPlan()
        ssd = Ssd(clock, small_ssd_config(), faults=faults)
        scratch = ScratchArea(ssd, base_lpn=1500, size_pages=32)
        writer = AtomicWriter(ssd, scratch)
        for lpn in (10, 11, 12):
            ssd.write(lpn, ("old", lpn))
        for lpn in (10, 11, 12):
            writer.stage(lpn, ("new", lpn))
        faults.arm(PowerFailAfter("maplog.before_commit"))
        with pytest.raises(PowerFailure):
            writer.commit()
        ssd.power_cycle()
        for lpn in (10, 11, 12):
            assert ssd.read(lpn) == ("old", lpn)

    def test_crash_after_commit_keeps_all_new(self, clock):
        faults = FaultPlan()
        ssd = Ssd(clock, small_ssd_config(), faults=faults)
        scratch = ScratchArea(ssd, base_lpn=1500, size_pages=32)
        writer = AtomicWriter(ssd, scratch)
        for lpn in (10, 11, 12):
            ssd.write(lpn, ("old", lpn))
        for lpn in (10, 11, 12):
            writer.stage(lpn, ("new", lpn))
        faults.arm(PowerFailAfter("maplog.after_commit"))
        with pytest.raises(PowerFailure):
            writer.commit()
        ssd.power_cycle()
        for lpn in (10, 11, 12):
            assert ssd.read(lpn) == ("new", lpn)
