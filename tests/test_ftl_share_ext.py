"""Unit tests for SHARE command validation (pairs, ranges, batches)."""

import pytest

from repro.errors import ShareError, UnmappedPageError
from repro.flash.geometry import FlashGeometry
from repro.flash.nand import NandArray
from repro.ftl.config import FtlConfig
from repro.ftl.mapping import STRATEGY_NAMES
from repro.ftl.pagemap import PageMappingFtl
from repro.ftl.share_ext import (
    MAX_BATCH_UNLIMITED,
    SharePair,
    expand_range,
    validate_batch,
)
from repro.sim.clock import SimClock
from repro.ssd.device import Ssd


def _make_ftl(l2p_strategy: str = "flat") -> PageMappingFtl:
    """Small pages keep ``max_share_batch`` (one mapping page of deltas)
    tiny, so the atomic-limit boundary is cheap to cross."""
    geo = FlashGeometry(page_size=512, pages_per_block=16, block_count=40,
                        overprovision_ratio=0.2)
    return PageMappingFtl(NandArray(geo),
                          FtlConfig(map_block_count=4,
                                    share_table_entries=64,
                                    l2p_strategy=l2p_strategy,
                                    l2p_group_pages=8))


@pytest.fixture
def small_ftl():
    return _make_ftl()


@pytest.fixture(params=STRATEGY_NAMES)
def strategy_ftl(request):
    """The same small FTL on every L2P backing — the SHARE edge cases
    must hold regardless of how the forward map is laid out."""
    return _make_ftl(request.param)


def untouched_device_refuses(pairs, match):
    """``Ssd.share_batch`` raises ``match`` and the device is as it was:
    no command billed, no time passed, no mapping or log page written."""
    ssd = Ssd(SimClock())
    for lpn in range(8):
        ssd.write(lpn, ("v", lpn))
    before = (ssd.stats.snapshot(), ssd.clock.now_us, ssd.ftl.fwd.snapshot(),
              dict(vars(ssd.ftl.stats)), ssd.ftl.map_page_writes, ssd.ftl._seq)
    with pytest.raises(ShareError, match=match):
        ssd.share_batch(pairs)
    assert before == (ssd.stats.snapshot(), ssd.clock.now_us,
                      ssd.ftl.fwd.snapshot(), dict(vars(ssd.ftl.stats)),
                      ssd.ftl.map_page_writes, ssd.ftl._seq)
    ssd.ftl.check_invariants()


class TestSharePair:
    """A pair is plain data; its rules are enforced once per batch, by
    ``validate_batch``, before the device changes anything."""

    def test_valid_pair(self):
        pair = SharePair(10, 20)
        assert pair.dst_lpn == 10
        assert pair.src_lpn == 20
        assert pair == (10, 20)

    def test_identical_lpns_rejected(self):
        message = "destination and source LPN are identical: 5"
        with pytest.raises(ShareError, match=message):
            validate_batch([SharePair(1, 2), SharePair(5, 5)], 100, 16)
        untouched_device_refuses([(1, 2), (5, 5)], message)

    def test_negative_rejected(self):
        with pytest.raises(ShareError, match="negative destination LPN: -1"):
            validate_batch([SharePair(1, 2), SharePair(-1, 5)], 100, 16)
        with pytest.raises(ShareError, match="negative source LPN: -1"):
            validate_batch([SharePair(1, 2), SharePair(5, -1)], 100, 16)
        untouched_device_refuses([(1, 2), (-1, 5)],
                                 "negative destination LPN: -1")
        untouched_device_refuses([(1, 2), (5, -1)],
                                 "negative source LPN: -1")


class TestExpandRange:
    def test_single(self):
        assert expand_range(0, 10, 1) == [SharePair(0, 10)]

    def test_multi(self):
        pairs = expand_range(100, 200, 3)
        assert pairs == [SharePair(100, 200), SharePair(101, 201),
                         SharePair(102, 202)]

    def test_overlap_rejected(self):
        with pytest.raises(ShareError):
            expand_range(10, 12, 4)  # [10,14) overlaps [12,16)
        with pytest.raises(ShareError):
            expand_range(12, 10, 4)

    def test_adjacent_ranges_allowed(self):
        pairs = expand_range(10, 14, 4)  # [10,14) and [14,18) touch only
        assert len(pairs) == 4

    def test_zero_length_rejected(self):
        with pytest.raises(ShareError):
            expand_range(0, 10, 0)


class TestValidateBatch:
    def test_ok(self):
        validate_batch([SharePair(0, 10), SharePair(1, 11)], 100, 16)

    def test_empty_rejected(self):
        with pytest.raises(ShareError):
            validate_batch([], 100, 16)

    def test_too_large_rejected(self):
        pairs = [SharePair(i, 50 + i) for i in range(5)]
        with pytest.raises(ShareError):
            validate_batch(pairs, 100, 4)

    def test_unlimited_sentinel(self):
        pairs = [SharePair(i, 500 + i) for i in range(300)]
        validate_batch(pairs, 1000, MAX_BATCH_UNLIMITED)

    def test_out_of_space_rejected(self):
        with pytest.raises(ShareError):
            validate_batch([SharePair(99, 100)], 100, 16)

    def test_duplicate_destination_rejected(self):
        with pytest.raises(ShareError):
            validate_batch([SharePair(0, 10), SharePair(0, 11)], 100, 16)

    def test_chained_lpn_rejected(self):
        # 5 is a destination in one pair and a source in another.
        with pytest.raises(ShareError):
            validate_batch([SharePair(5, 10), SharePair(6, 5)], 100, 16)

    def test_shared_source_allowed(self):
        validate_batch([SharePair(0, 10), SharePair(1, 10)], 100, 16)


class TestBatchBoundaryRegressions:
    """Off-by-one and cross-pair-overlap regressions at the atomic batch
    limit (audited: ``len(pairs) > max_batch`` is the correct strict
    inequality — exactly ``max_batch`` deltas still fit one mapping
    page).  These tests pin that behaviour."""

    def test_exactly_max_batch_allowed(self):
        pairs = [SharePair(i, 100 + i) for i in range(16)]
        validate_batch(pairs, 1000, 16)

    def test_one_past_max_batch_rejected(self):
        pairs = [SharePair(i, 100 + i) for i in range(17)]
        with pytest.raises(ShareError, match="exceeds the atomic limit"):
            validate_batch(pairs, 1000, 16)

    def test_max_batch_of_one(self):
        validate_batch([SharePair(0, 10)], 100, 1)
        with pytest.raises(ShareError):
            validate_batch([SharePair(0, 10), SharePair(1, 11)], 100, 1)

    def test_last_valid_lpn_allowed(self):
        # logical_pages - 1 is in space; logical_pages is the first out.
        validate_batch([SharePair(98, 99)], 100, 16)
        with pytest.raises(ShareError, match="outside logical space"):
            validate_batch([SharePair(98, 100)], 100, 16)

    def test_chain_detected_regardless_of_pair_order(self):
        # Overlap check must be order-independent: the chained LPN may
        # appear as a source before OR after the pair that writes it.
        with pytest.raises(ShareError):
            validate_batch([SharePair(6, 5), SharePair(5, 10)], 100, 16)
        with pytest.raises(ShareError):
            validate_batch([SharePair(5, 10), SharePair(6, 5)], 100, 16)

    def test_self_chain_via_distinct_pairs_rejected(self):
        # a->b and b->a in one batch: both LPNs are dst and src at once.
        with pytest.raises(ShareError):
            validate_batch([SharePair(3, 4), SharePair(4, 3)], 100, 16)

    def test_ftl_accepts_exactly_max_share_batch(self, small_ftl):
        limit = small_ftl.max_share_batch
        span = 2 * limit + 2
        assert small_ftl.logical_pages >= span
        for lpn in range(limit):
            small_ftl.write(lpn, ("src", lpn))
        pairs = [SharePair(limit + i, i) for i in range(limit)]
        small_ftl.share_batch(pairs)
        for lpn in range(limit):
            assert small_ftl.read(limit + lpn) == ("src", lpn)

    def test_ftl_rejects_max_share_batch_plus_one(self, small_ftl):
        limit = small_ftl.max_share_batch
        for lpn in range(limit + 1):
            small_ftl.write(lpn, ("src", lpn))
        pairs = [SharePair(limit + 1 + i, i) for i in range(limit + 1)]
        before = {lpn: small_ftl.read(lpn) for lpn in range(limit + 1)}
        with pytest.raises(ShareError):
            small_ftl.share_batch(pairs)
        # Rejection happens before any state change.
        for lpn, value in before.items():
            assert small_ftl.read(lpn) == value
        for i in range(limit + 1):
            assert not small_ftl.is_mapped(limit + 1 + i)


class TestSharePerStrategy:
    """The batch-boundary and overlap regressions above, re-run against
    every L2P backing — plus the remap-into-unmapped-run cases where the
    compact layout (delta anchors and exceptions) does real work."""

    def test_share_resolves_and_reads_back(self, strategy_ftl):
        ftl = strategy_ftl
        for lpn in range(8):
            ftl.write(lpn, ("src", lpn))
        ftl.share_batch([SharePair(20 + i, i) for i in range(8)])
        for i in range(8):
            assert ftl.read(20 + i) == ("src", i)
            assert ftl.read(i) == ("src", i)
        ftl.check_invariants()

    def test_cross_pair_overlap_rejected_without_state_change(
            self, strategy_ftl):
        ftl = strategy_ftl
        for lpn in range(4):
            ftl.write(lpn, ("v", lpn))
        # Pair 2's destination is pair 1's source: chained batch.
        with pytest.raises(ShareError):
            ftl.share_batch([SharePair(10, 2), SharePair(2, 3)])
        for lpn in range(4):
            assert ftl.read(lpn) == ("v", lpn)
        assert not ftl.is_mapped(10)
        ftl.check_invariants()

    def test_exactly_max_batch_commits_atomically(self, strategy_ftl):
        ftl = strategy_ftl
        limit = ftl.max_share_batch
        for lpn in range(limit):
            ftl.write(lpn, ("s", lpn))
        ftl.share_batch([SharePair(limit + i, i) for i in range(limit)])
        for i in range(limit):
            assert ftl.read(limit + i) == ("s", i)
        ftl.check_invariants()

    def test_one_past_max_batch_rejected_without_state_change(
            self, strategy_ftl):
        ftl = strategy_ftl
        limit = ftl.max_share_batch
        for lpn in range(limit + 1):
            ftl.write(lpn, ("s", lpn))
        snapshot = ftl.fwd.snapshot()
        with pytest.raises(ShareError):
            ftl.share_batch(
                [SharePair(limit + 1 + i, i) for i in range(limit + 1)])
        assert ftl.fwd.snapshot() == snapshot
        ftl.check_invariants()

    def test_unmapped_source_rejected_without_state_change(
            self, strategy_ftl):
        ftl = strategy_ftl
        ftl.write(0, ("v", 0))
        snapshot = ftl.fwd.snapshot()
        # Second pair's source was never written; the whole batch fails.
        with pytest.raises(ShareError):
            ftl.share_batch([SharePair(10, 0), SharePair(11, 5)])
        assert ftl.fwd.snapshot() == snapshot
        with pytest.raises(UnmappedPageError):
            ftl.read(10)
        ftl.check_invariants()

    def test_remap_into_unmapped_destination_run(self, strategy_ftl):
        # Regression: a SHARE whose destination sits in untouched address
        # space must create the mapping without disturbing its (unmapped)
        # neighbours.
        ftl = strategy_ftl
        for lpn in range(4):
            ftl.write(lpn, ("v", lpn))
        ftl.share(30, 1, 1)
        assert ftl.read(30) == ("v", 1)
        assert not ftl.is_mapped(29)
        assert not ftl.is_mapped(31)
        ftl.check_invariants()

    def test_remap_interior_of_sequential_run(self, strategy_ftl):
        # A remap landing mid-run diverges from the delta anchor but
        # must stay read-correct on both sides of it.
        ftl = strategy_ftl
        for lpn in range(10, 18):
            ftl.write(lpn, ("seq", lpn))
        ftl.write(40, ("other", 40))
        ftl.share(14, 40, 1)
        assert ftl.read(14) == ("other", 40)
        assert ftl.read(13) == ("seq", 13)
        assert ftl.read(15) == ("seq", 15)
        ftl.check_invariants()

    def test_remap_splits_accounting_per_strategy(self, strategy_ftl):
        ftl = strategy_ftl
        for lpn in range(8):
            ftl.write(lpn, ("seq", lpn))
        before = ftl.fwd.remap_splits
        ftl.share(3, 7, 1)                # interior remap of the run
        after = ftl.fwd.remap_splits
        if ftl.fwd.name == "flat":
            assert after == before == 0   # nothing to fragment
        else:
            assert after >= before        # the compact layout may pay

    def test_overwrite_after_share_keeps_source_intact(self, strategy_ftl):
        ftl = strategy_ftl
        ftl.write(0, ("v", 0))
        ftl.share(5, 0, 1)
        ftl.write(5, ("new", 5))          # break the share by rewriting
        assert ftl.read(5) == ("new", 5)
        assert ftl.read(0) == ("v", 0)
        ftl.check_invariants()
