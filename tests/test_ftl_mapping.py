"""Unit tests for the forward (L2P) mapping strategies.

The conformance block runs against every registered backing — the
strategy contract, not one implementation — and the delta block pins
the layout-specific behaviour (anchors and exceptions) plus the SHARE
remap-split accounting.
"""

import random

import pytest

from repro.ftl.mapping import (
    DeltaCompressedMap,
    FlatListMap,
    STRATEGY_NAMES,
    UNMAPPED,
    create_strategy,
)


@pytest.fixture(params=STRATEGY_NAMES)
def fwd(request):
    return create_strategy(request.param, 16, group_pages=4)


# ------------------------------------------------------------- conformance


def test_starts_unmapped(fwd):
    assert fwd.lookup(0) is None
    assert not fwd.is_mapped(0)
    assert fwd.mapped_count == 0
    assert fwd.get(0) == UNMAPPED


def test_update_and_lookup(fwd):
    assert fwd.update(3, 100) is None
    assert fwd.lookup(3) == 100
    assert fwd.get(3) == 100
    assert fwd.mapped_count == 1


def test_update_returns_old(fwd):
    fwd.update(3, 100)
    assert fwd.update(3, 200) == 100
    assert fwd.mapped_count == 1


def test_clear(fwd):
    fwd.update(3, 100)
    assert fwd.clear(3) == 100
    assert fwd.lookup(3) is None
    assert fwd.mapped_count == 0


def test_clear_unmapped_returns_none(fwd):
    assert fwd.clear(5) is None


def test_bounds_checked(fwd):
    with pytest.raises(ValueError):
        fwd.lookup(16)
    with pytest.raises(ValueError):
        fwd.update(-1, 0)
    with pytest.raises(ValueError):
        fwd.update(0, -2)
    with pytest.raises(ValueError):
        fwd.clear(16)
    with pytest.raises(ValueError):
        fwd.is_mapped(-1)


def test_mapped_lpns_iterates_live_entries_in_order(fwd):
    fwd.update(5, 50)
    fwd.update(1, 10)
    fwd.clear(1)
    fwd.update(2, 77)
    assert list(fwd.mapped_lpns()) == [(2, 77), (5, 50)]
    assert fwd.snapshot() == [(2, 77), (5, 50)]


def test_zero_size_rejected(fwd):
    with pytest.raises(ValueError):
        type(fwd)(0)


def test_remap_matches_update_semantics(fwd):
    fwd.update(3, 100)
    assert fwd.remap(5, 100) is None      # share into unmapped dst
    assert fwd.remap(3, 100) == 100       # no-op remap
    assert fwd.lookup(5) == 100
    assert fwd.mapped_count == 2


def test_footprint_and_fragments_reported(fwd):
    assert fwd.footprint_bytes() >= 0
    fwd.update(0, 10)
    fwd.update(9, 90)
    assert fwd.footprint_bytes() > 0
    assert fwd.fragment_count() >= 0
    assert fwd.remap_splits >= 0


def test_randomized_agreement_with_dict(fwd):
    rng = random.Random(0xBEEF)
    ref = {}
    for _ in range(3000):
        lpn = rng.randrange(16)
        roll = rng.random()
        if roll < 0.5:
            ppn = rng.randrange(200)
            assert fwd.update(lpn, ppn) == ref.get(lpn)
            ref[lpn] = ppn
        elif roll < 0.7:
            ppn = rng.randrange(200)
            assert fwd.remap(lpn, ppn) == ref.get(lpn)
            ref[lpn] = ppn
        elif roll < 0.9:
            assert fwd.clear(lpn) == ref.pop(lpn, None)
        else:
            assert fwd.lookup(lpn) == ref.get(lpn)
    assert dict(fwd.mapped_lpns()) == ref
    assert fwd.mapped_count == len(ref)


# ----------------------------------------------------------------- factory


def test_create_strategy_rejects_unknown():
    with pytest.raises(ValueError):
        create_strategy("btree", 16)


def test_only_flat_exposes_raw_table():
    for name in STRATEGY_NAMES:
        strategy = create_strategy(name, 16)
        if name == "flat":
            assert isinstance(strategy, FlatListMap)
            assert strategy.table is not None and len(strategy.table) == 16
        else:
            assert strategy.table is None


# ------------------------------------------------------------------- delta


def test_delta_sequential_fill_needs_no_exceptions():
    fwd = DeltaCompressedMap(64, group_pages=8)
    for i in range(32):
        fwd.update(i, 500 + i)            # perfectly predicted by anchors
    assert fwd.fragment_count() == 0
    assert fwd.mapped_count == 32


def test_delta_divergent_write_costs_exception():
    fwd = DeltaCompressedMap(64, group_pages=8)
    fwd.update(0, 500)
    fwd.update(1, 9000)                   # diverges from anchor 500
    assert fwd.fragment_count() == 1
    assert fwd.lookup(1) == 9000
    fwd.update(1, 501)                    # back on prediction: freed
    assert fwd.fragment_count() == 0
    assert fwd.lookup(1) == 501


def test_delta_remap_counts_exception_as_split():
    fwd = DeltaCompressedMap(64, group_pages=8)
    for i in range(8):
        fwd.update(i, 500 + i)
    assert fwd.remap_splits == 0
    fwd.remap(2, 500)                     # aliases lpn 0's page: diverges
    assert fwd.remap_splits == 1
    assert fwd.lookup(2) == 500
    fwd.remap(10, 900)                    # first entry anchors group 1
    assert fwd.remap_splits == 1


def test_delta_clear_drops_anchor_when_group_empties():
    fwd = DeltaCompressedMap(64, group_pages=8)
    fwd.update(3, 700)
    fwd.update(4, 9999)
    base = fwd.footprint_bytes()
    fwd.clear(4)
    fwd.clear(3)
    assert fwd.mapped_count == 0
    assert fwd.fragment_count() == 0
    assert fwd.footprint_bytes() < base
    # A fresh write re-anchors the group at the new PPN.
    fwd.update(3, 1234)
    assert fwd.lookup(3) == 1234
