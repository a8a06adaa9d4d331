"""Unit tests for the reverse map and the bounded share table."""

import pytest

from repro.ftl.reverse import ReverseMap


def spilled_refs(rev, ppn):
    """The extra references of ``ppn`` living in the overflow."""
    return {lpn for lpn in rev._extras.get(ppn, ())
            if (ppn, lpn) not in rev._table}


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
    assert len(rev.refs(10)) == 2


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


def test_primary_departure_promotes_the_lowest_extra(rev):
    rev.set_primary(10, 5)
    for lpn in (9, 2, 7):
        rev.add_extra(10, lpn)
    rev.drop_ref(10, 5)
    assert rev.primary_of(10) == 2
    assert rev.live_pages(10, 11) == ([10], [2], {10: ([2, 7, 9], False)})
    rev.drop_ref(10, 2)
    assert rev.primary_of(10) == 7
    rev.drop_ref(10, 7)
    # Back to one reference: the page holds no extras any more.
    assert rev.refs(10) == {9} and rev.shared_pages() == 0
    assert rev._extras == {}
    rev.check()


def test_add_extra_to_a_page_without_data_is_rejected(rev):
    with pytest.raises(ValueError):
        rev.add_extra(5, 3)
    assert not rev.is_valid(5)
    assert rev.extra_entries == 0 and rev.spilled_entries == 0
    rev.check()


def test_is_full(rev):
    rev.set_primary(10, 0)
    for lpn in range(1, 5):
        rev.add_extra(10, lpn)
    assert rev.extra_entries >= rev.capacity == 4


def test_move_page_transfers_refs(rev):
    rev.set_primary(10, 1)
    rev.add_extra(10, 2)
    assert rev.live_pages(8, 12) == ([10], [1], {10: ([1, 2], False)})
    rev.move_page(10, 20, [1, 2])
    assert rev.refs(10) == set()
    assert rev.refs(20) == {1, 2}
    assert rev.primary_of(20) == 1
    assert rev.extra_entries == 1  # LPN 2 still occupies a share entry


def test_move_page_places_a_repeated_reference_once(rev):
    rev.set_primary(10, 1)
    rev.add_extra(10, 2)
    rev.move_page(10, 20, [1, 2, 2])
    assert rev.refs(20) == {1, 2} and rev._extras[20] == (2,)
    assert (rev.extra_entries, rev.spilled_entries) == (1, 0)
    rev.check()


def test_move_page_stale_refs_rejected(rev):
    rev.set_primary(10, 1)
    with pytest.raises(ValueError):
        rev.move_page(10, 20, [9])
    with pytest.raises(ValueError):
        rev.move_page(11, 20, [1])
    assert rev.refs(10) == {1}


def test_move_page_onto_a_live_page_is_rejected(rev):
    rev.set_primary(10, 1)
    rev.add_extra(10, 2)
    rev.set_primary(20, 3)
    rev.add_extra(20, 4)
    rev.set_primary(30, 5)
    with pytest.raises(ValueError):
        rev.move_page(10, 20, [1, 2])     # a shared page onto a live one
    with pytest.raises(ValueError):
        rev.move_page(30, 20, [5])        # an unshared page onto one
    # Nothing moved and the target's extras did not leak.
    assert rev.refs(10) == {1, 2} and rev.refs(20) == {3, 4}
    assert rev.refs(30) == {5}
    assert rev.extra_entries == 2
    rev.check()


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


@pytest.mark.parametrize("counted", [True, False])
def test_check_rejects_a_table_over_budget(rev, counted):
    rev.set_primary(10, 0)
    for lpn in range(1, 5):
        rev.add_extra(10, lpn)
    rev.set_primary(11, 9)
    rev.check()
    # A fifth slot past capacity 4, with or without its count.
    rev._extras[11] = (10,)
    rev._table[(11, 10)] = None
    rev._in_table += counted
    with pytest.raises(AssertionError, match="over budget"):
        rev.check()


def test_check_rejects_a_table_entry_whose_extra_is_gone(rev):
    rev.set_primary(10, 0)
    rev.add_extra(10, 1)
    rev.add_extra(10, 2)
    rev.check()
    rev._extras[10] = (2,)      # extra 1 left, its table slot did not
    with pytest.raises(AssertionError, match=r"\(10, 1\) names no extra"):
        rev.check()


def test_check_rejects_counters_out_of_step(rev):
    rev.set_primary(10, 0)
    for lpn in range(1, 6):
        rev.add_extra(10, lpn)          # 4 in the table, 1 spilled
    rev.check()
    rev._spilled_count = 0
    with pytest.raises(AssertionError, match="counters"):
        rev.check()


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
        assert spilled_refs(rev, 10) == {5, 6}
        assert list(rev._table) == [(10, lpn) for lpn in range(1, 5)]
        assert rev._extras[10] == (1, 2, 3, 4, 5, 6)
        # Spilled references still count as references: the page stays
        # valid and refs() reports them.
        assert rev.refs(10) == set(range(7))
        assert 5 in spilled_refs(rev, 10) and 1 not in spilled_refs(rev, 10)

    def test_drop_spilled_ref_releases_overflow(self, rev):
        rev.set_primary(10, 0)
        for lpn in range(1, 6):
            rev.add_extra(10, lpn)
        assert rev.spilled_entries == 1
        assert not rev.drop_ref(10, 5)
        assert rev.spilled_entries == 0
        assert spilled_refs(rev, 10) == set()
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
        assert rev.live_pages(20, 21) == ([20], [50], {20: ([50, 51], True)})
        rev.move_page(20, 21, [50, 51])
        assert spilled_refs(rev, 21) == {51}
        assert (21, 51) not in rev._table and rev._extras[21] == (51,)
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


def test_set_primary_run_fills_a_run_of_fresh_pages(rev):
    rev.set_primary_run(8, range(100, 106, 2))
    assert [rev.primary_of(ppn) for ppn in range(7, 12)] == \
        [None, 100, 102, 104, None]
    rev.set_primary(20, 3)
    with pytest.raises(ValueError):
        rev.set_primary_run(18, range(3))   # PPN 20 holds data
    assert rev.primary_of(18) is None and rev.refs(20) == {3}
