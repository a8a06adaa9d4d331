"""Unit tests for the reverse map and the bounded share table."""

import pytest

from repro.ftl.reverse import ReverseMap


@pytest.fixture
def rev():
    return ReverseMap(capacity=4, total_pages=64)


def test_primary_reference_free(rev):
    rev.set_primary(10, 1)
    assert rev.refs(10) == {1}
    assert rev.primary_of(10) == 1
    assert rev.extra_entries == 0
    assert rev.is_valid(10)


def test_extra_consumes_capacity(rev):
    rev.set_primary(10, 1)
    rev.add_extra(10, 2)
    assert rev.refs(10) == {1, 2}
    assert rev.extra_entries == 1
    assert rev.ref_count(10) == 2


def test_duplicate_extra_is_noop(rev):
    rev.set_primary(10, 1)
    rev.add_extra(10, 2)
    rev.add_extra(10, 2)
    assert rev.extra_entries == 1


def test_drop_extra_frees_capacity(rev):
    rev.set_primary(10, 1)
    rev.add_extra(10, 2)
    became_invalid = rev.drop_ref(10, 2)
    assert not became_invalid
    assert rev.extra_entries == 0
    assert rev.refs(10) == {1}


def test_drop_last_ref_invalidates(rev):
    rev.set_primary(10, 1)
    assert rev.drop_ref(10, 1)
    assert not rev.is_valid(10)
    assert rev.refs(10) == set()


def test_primary_departure_promotes_extra(rev):
    rev.set_primary(10, 1)
    rev.add_extra(10, 2)
    rev.drop_ref(10, 1)
    assert rev.primary_of(10) == 2
    # Promotion releases the share-table entry.
    assert rev.extra_entries == 0


def test_is_full(rev):
    rev.set_primary(10, 0)
    for lpn in range(1, 5):
        rev.add_extra(10, lpn)
    assert rev.is_full


def test_move_page_transfers_refs(rev):
    rev.set_primary(10, 1)
    rev.add_extra(10, 2)
    assert rev.live_pages(8, 12) == [(10, [1, 2], False)]
    rev.move_page(10, 20, [1, 2])
    assert rev.refs(10) == set()
    assert rev.refs(20) == {1, 2}
    assert rev.primary_of(20) == 1
    assert rev.extra_entries == 1  # LPN 2 still occupies a share entry


def test_move_page_stale_refs_rejected(rev):
    rev.set_primary(10, 1)
    with pytest.raises(ValueError):
        rev.move_page(10, 20, [9])
    with pytest.raises(ValueError):
        rev.move_page(11, 20, [1])
    assert rev.refs(10) == {1}


def test_set_primary_clears_previous_life(rev):
    rev.set_primary(10, 1)
    rev.add_extra(10, 2)
    rev.set_primary(10, 3)  # page reprogrammed after erase
    assert rev.refs(10) == {3}
    assert rev.extra_entries == 0


def test_rebuild(rev):
    rev.rebuild([(10, 1, True), (10, 2, False), (11, 3, True)])
    assert rev.refs(10) == {1, 2}
    assert rev.primary_of(10) == 1
    assert rev.extra_entries == 1
    assert rev.primary_of(11) == 3


def test_capacity_must_be_positive():
    with pytest.raises(ValueError):
        ReverseMap(0, total_pages=64)


class TestSpillChurn:
    """Overflow behaviour under sustained add/drop churn past capacity."""

    def test_overflow_spills_and_stays_resolvable(self, rev):
        rev.set_primary(10, 0)
        fits = [rev.add_extra(10, lpn) for lpn in range(1, 7)]
        assert fits == [True] * 4 + [False] * 2
        assert rev.extra_entries == 4
        assert rev.spilled_entries == 2
        assert rev.spilled_refs_of(10) == {5, 6}
        # Spilled references still count as references: the page stays
        # valid and refs() reports them.
        assert rev.refs(10) == set(range(7))
        assert rev.is_spilled(10, 5) and not rev.is_spilled(10, 1)

    def test_drop_spilled_ref_releases_overflow(self, rev):
        rev.set_primary(10, 0)
        for lpn in range(1, 6):
            rev.add_extra(10, lpn)
        assert rev.spilled_entries == 1
        assert not rev.drop_ref(10, 5)
        assert rev.spilled_entries == 0
        assert rev.spilled_refs_of(10) == set()
        assert rev.refs(10) == {0, 1, 2, 3, 4}

    def test_peak_is_monotone_high_water_mark(self, rev):
        rev.set_primary(10, 0)
        for lpn in range(1, 8):               # 4 fit, 3 spill
            rev.add_extra(10, lpn)
        assert rev.spilled_entries == 3
        assert rev.spilled_peak == 3
        rev.drop_ref(10, 7)
        rev.drop_ref(10, 6)
        # Draining the overflow does not lower the high-water mark.
        assert rev.spilled_entries == 1
        assert rev.spilled_peak == 3
        rev.add_extra(10, 8)                  # back up to 2 — below peak
        assert rev.spilled_entries == 2
        assert rev.spilled_peak == 3
        rev.add_extra(10, 9)
        rev.add_extra(10, 11)                 # 4 — new peak
        assert rev.spilled_peak == 4

    def test_move_page_overflow_counts_toward_peak(self, rev):
        rev.set_primary(10, 0)
        for lpn in range(1, 5):
            rev.add_extra(10, lpn)            # table now full
        rev.set_primary(20, 50)
        rev.add_extra(20, 51)                 # spills (peak 1)
        assert rev.spilled_peak == 1
        # GC moves the spilled page; the table is still full of PPN 10's
        # entries, so the moved extra lands in overflow at its new home.
        assert rev.live_pages(20, 21) == [(20, [50, 51], True)]
        rev.move_page(20, 21, [50, 51])
        assert rev.is_spilled(21, 51)
        assert rev.spilled_entries == 1
        assert rev.spilled_peak == 1

    def test_rebuild_resets_peak_for_new_incarnation(self, rev):
        rev.set_primary(10, 0)
        for lpn in range(1, 7):
            rev.add_extra(10, lpn)
        assert rev.spilled_peak == 2
        rev.rebuild([(10, 1, True), (10, 2, False)])
        assert rev.spilled_entries == 0
        assert rev.spilled_peak == 0
        entries = [(20, 0, True)] + [(20, lpn, False) for lpn in range(1, 6)]
        rev.rebuild(entries)
        assert rev.spilled_peak == 1
