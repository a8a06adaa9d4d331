"""Unit tests for the NAND array rules: no overwrite, erase-before-reuse,
in-order programming, and wear accounting."""

import pytest

from repro.errors import ProgramError, ReadError
from repro.flash.geometry import FlashGeometry
from repro.flash.nand import NandArray, PageState


@pytest.fixture
def nand():
    return NandArray(FlashGeometry.small())


def test_program_then_read(nand):
    nand.program(0, "data", spare=((7, 1),))
    assert nand.read(0) == "data"
    assert nand.read_spare(0) == ((7, 1),)
    assert nand.state_of(0) is PageState.PROGRAMMED


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
    assert nand.state_of(0) is PageState.ERASED
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
