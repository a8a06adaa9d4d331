"""Unit tests for flash geometry arithmetic."""

import pytest

from repro.flash.geometry import KIB, FlashGeometry


def test_defaults_consistent():
    geo = FlashGeometry()
    assert geo.total_pages == geo.block_count * geo.pages_per_block
    assert geo.logical_pages < geo.total_pages


def test_overprovisioning_hides_capacity():
    geo = FlashGeometry(overprovision_ratio=0.25)
    assert geo.logical_pages == int(geo.total_pages * 0.75)


def test_first_ppn():
    geo = FlashGeometry.small()
    assert geo.first_ppn(3) == geo.pages_per_block * 3


def test_ppn_bounds_checked():
    geo = FlashGeometry.small()
    with pytest.raises(ValueError):
        geo.check_ppn(geo.total_pages)
    with pytest.raises(ValueError):
        geo.check_ppn(-1)


def test_block_bounds_checked():
    geo = FlashGeometry.small()
    with pytest.raises(ValueError):
        geo.first_ppn(geo.block_count)


@pytest.mark.parametrize("kwargs", [
    {"page_size": 0},
    {"page_size": 1000},           # not a multiple of 512
    {"pages_per_block": 0},
    {"block_count": 1},
    {"overprovision_ratio": 0.0},
    {"overprovision_ratio": 0.5},
])
def test_invalid_geometry_rejected(kwargs):
    with pytest.raises(ValueError):
        FlashGeometry(**kwargs)


def test_small_supports_page_sizes():
    for size in (4 * KIB, 8 * KIB, 16 * KIB):
        geo = FlashGeometry.small(page_size=size)
        assert geo.page_size == size
