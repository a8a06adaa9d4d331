"""Unit tests for the NAND array rules: no overwrite, erase-before-reuse,
in-order programming, and wear accounting."""

import pytest

from repro.errors import ProgramError, ReadError
from repro.flash.geometry import FlashGeometry
from repro.flash.nand import NandArray
from repro.sim.faults import FaultPlan, ProgramFault


@pytest.fixture
def nand():
    return NandArray(FlashGeometry.small())


def test_program_then_read(nand):
    nand.program(0, "data", spare=((7, 1),))
    assert nand.read(0) == "data"
    assert nand.read_spare(0) == ((7, 1),)
    assert nand.is_programmed(0)


def test_read_erased_rejected(nand):
    with pytest.raises(ReadError):
        nand.read(0)
    with pytest.raises(ReadError):
        nand.read_spare(0)


def test_no_overwrite(nand):
    nand.program(0, "a")
    with pytest.raises(ProgramError):
        nand.program(0, "b")


def test_in_order_programming_enforced(nand):
    nand.program(0, "a")
    with pytest.raises(ProgramError):
        nand.program(2, "c")  # skips offset 1
    nand.program(1, "b")


def test_programs_independent_across_blocks(nand):
    ppb = nand.geometry.pages_per_block
    nand.program(0, "a")
    nand.program(ppb, "b")  # first page of block 1 is fine
    assert nand.read(ppb) == "b"


def test_erase_resets_block(nand):
    nand.program(0, "a")
    nand.program(1, "b")
    nand.erase(0)
    assert not nand.is_programmed(0) and not nand.is_failed(0)
    assert nand.programmed_pages_in_block(0) == 0
    nand.program(0, "again")
    assert nand.read(0) == "again"


def test_erase_counts_accumulate(nand):
    nand.erase(0)
    nand.erase(0)
    nand.erase(1)
    assert nand.erase_counts[0] == 2
    assert nand.erase_counts[1] == 1
    assert nand.total_erases == 3
    assert nand.max_erase_count == 2


def test_scan_block_returns_program_order(nand):
    nand.program(0, "a", spare="s0")
    nand.program(1, "b", spare="s1")
    assert nand.scan_block(0) == [(0, "s0"), (1, "s1")]


def test_scan_empty_block(nand):
    assert nand.scan_block(5) == []


def test_op_counters(nand):
    nand.program(0, "a")
    nand.read(0)
    nand.read(0)
    nand.erase(0)
    assert nand.total_programs == 1
    assert nand.total_reads == 2
    assert nand.total_erases == 1


def test_wear_summary(nand):
    nand.erase(0)
    summary = nand.wear_summary()
    assert summary["max"] == 1
    assert summary["min"] == 0
    assert 0 < summary["mean"] < 1


def test_out_of_range_rejected(nand):
    total = nand.geometry.total_pages
    with pytest.raises(ValueError):
        nand.program(total, "x")
    with pytest.raises(ValueError):
        nand.erase(nand.geometry.block_count)


def test_program_run_equals_one_program_per_page(nand):
    """A run program leaves exactly what a page-by-page program of the
    same stamps leaves, counters included."""
    ref = NandArray(FlashGeometry.small())
    nand.program(32, "head", lpn=9, seq=1)
    ref.program(32, "head", lpn=9, seq=1)
    nand.program_run(33, ["a", "b", "c"], range(5, 11, 2), range(7, 10))
    for offset, (data, lpn, seq) in enumerate(
            zip(["a", "b", "c"], range(5, 11, 2), range(7, 10))):
        ref.program(33 + offset, data, lpn=lpn, seq=seq)
    for ppn in range(32, 36):
        assert nand.read(ppn) == ref.read(ppn)
        assert nand.read_spare(ppn) == ref.read_spare(ppn)
    assert nand.scan_block(1) == ref.scan_block(1)
    assert nand.programmed_pages_in_block(1) == 4
    assert (nand.total_programs, nand.channel_ops) == \
        (ref.total_programs, ref.channel_ops)


def test_program_run_refuses_what_program_refuses(nand):
    nand.program(0, "a")
    with pytest.raises(ProgramError):      # skips offset 1
        nand.program_run(2, ["x"], range(1), range(1))
    with pytest.raises(ProgramError):      # overwrites offset 0
        nand.program_run(0, ["x"], range(1), range(1))
    with pytest.raises(ProgramError):      # runs into the next block
        nand.program_run(1, ["x"] * 32, range(32), range(32))
    with pytest.raises(OverflowError):     # a seq that does not fit
        nand.program_run(1, ["x"], range(1), range(2 ** 63, 2 ** 63 + 1))
    assert nand.programmed_pages_in_block(0) == 1
    assert nand.total_programs == 1


def test_program_run_refuses_an_armed_media_fault():
    plan = FaultPlan()
    plan.media.enable_counting()
    nand = NandArray(FlashGeometry.small(), plan)
    nand.program_run(0, ["x", "y"], range(2), range(2))
    assert plan.media.op_counts["program"] == 2   # counted, as per page
    plan.media.arm(ProgramFault(nth=9))
    with pytest.raises(ProgramError):
        nand.program_run(2, ["z"], range(2, 3), range(2, 3))
    assert nand.read(1) == "y" and plan.media.op_counts["program"] == 2
