"""The spare area's two encodings: one stamp as integers, anything else
as given.

``NandArray`` keeps a single ``(lpn, seq)`` stamp in two PPN-indexed
typed arrays and every other spare record in a per-block overflow; the
reader cannot tell which.  ``tests/test_nand_oracle.py`` drives the
record path against the object-per-page reference; these pin the
integer path the FTL's data pages take.
"""

import pytest

from repro.flash.geometry import FlashGeometry
from repro.flash.nand import NandArray


@pytest.fixture
def nand():
    return NandArray(FlashGeometry(page_size=512, pages_per_block=4,
                                   block_count=4))


def test_an_integer_stamp_reads_back_as_one_stamp_tuple(nand):
    nand.program(0, "a", None, 7, 11)
    nand.program(1, "b", "ignored", 8, 2 ** 62)
    assert nand.read_spare(0) == ((7, 11),)
    assert nand.read_spare(1) == ((8, 2 ** 62),)
    assert nand.scan_block(0) == [(0, ((7, 11),)), (1, ((8, 2 ** 62),))]
    assert nand.read(0) == "a"


def test_other_records_are_kept_as_given(nand):
    shared = ((3, 5), (4, 6))
    nand.program(0, "a", shared)
    nand.program(1, "b", ())
    nand.program(2, "c", ("map",))
    nand.program(3, "d")
    nand.program(4, "e", None, 9, 1)
    assert [spare for __, spare in nand.scan_block(0)] == \
        [shared, (), ("map",), None]
    assert nand.read_spare(0) is shared
    assert nand.scan_block(1) == [(4, ((9, 1),))]


def test_erase_forgets_both_encodings(nand):
    nand.program(0, "a", None, 7, 11)
    nand.program(1, "b", ((1, 2), (3, 4)))
    nand.program(4, "c", "other block")
    nand.erase(0)
    assert 0 not in nand._overflow and 1 in nand._overflow
    nand.program(0, "x", "record")
    nand.program(1, "y")
    assert nand.scan_block(0) == [(0, "record"), (1, None)]
    assert nand.read_spare(4) == "other block"
    nand.erase(2)                # a block that was never programmed


def test_a_stamp_that_does_not_fit_programs_nothing(nand):
    with pytest.raises(OverflowError):
        nand.program(0, "a", None, 7, 2 ** 63)
    with pytest.raises(OverflowError):
        nand.program(0, "a", None, 2 ** 31, 1)
    assert nand.programmed_pages_in_block(0) == 0
    assert nand.total_programs == 0
    nand.program(0, "a", "record")
    assert nand.read_spare(0) == "record"
