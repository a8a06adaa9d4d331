"""Tests for the controller DRAM read cache and its coherence with every
mutating command."""

import pytest

from repro.flash.geometry import FlashGeometry
from repro.flash.timing import FAST_TIMING
from repro.ftl.config import FtlConfig
from repro.sim.clock import SimClock
from repro.ssd.cache import DramReadCache
from repro.ssd.device import Ssd, SsdConfig


def cached_ssd(clock, pages=64):
    config = SsdConfig(geometry=FlashGeometry.small(), timing=FAST_TIMING,
                       ftl=FtlConfig(), dram_cache_pages=pages)
    return Ssd(clock, config)


class TestCacheUnit:
    def test_miss_then_hit(self):
        cache = DramReadCache(4)
        assert cache.lookup(1) is None
        cache.insert(1, "a")
        assert cache.lookup(1) == ("a",)
        assert cache.hits == 1
        assert cache.misses == 1

    def test_lru_eviction(self):
        cache = DramReadCache(2)
        cache.insert(1, "a")
        cache.insert(2, "b")
        cache.lookup(1)          # refresh 1
        cache.insert(3, "c")     # evicts 2
        assert cache.lookup(2) is None
        assert cache.lookup(1) == ("a",)

    def test_disabled_cache(self):
        cache = DramReadCache(0)
        cache.insert(1, "a")
        assert cache.lookup(1) is None
        assert not cache.enabled

    def test_invalidate_range(self):
        cache = DramReadCache(8)
        for lpn in range(4):
            cache.insert(lpn, lpn)
        cache.invalidate(range(1, 3))
        assert cache.lookup(0) == (0,)
        assert cache.lookup(1) is None
        assert cache.lookup(2) is None

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            DramReadCache(-1)


class TestDeviceIntegration:
    def test_repeat_read_hits_cache_and_is_faster(self, clock):
        ssd = cached_ssd(clock)
        ssd.write(5, "x")
        ssd.cache.clear()
        start = clock.now_us
        ssd.read(5)
        miss_cost = clock.now_us - start
        start = clock.now_us
        ssd.read(5)
        hit_cost = clock.now_us - start
        assert hit_cost < miss_cost
        assert ssd.cache.hits >= 1

    def test_write_updates_cache(self, clock):
        ssd = cached_ssd(clock)
        ssd.write(5, "v1")
        ssd.read(5)
        ssd.write(5, "v2")
        assert ssd.read(5) == "v2"

    def test_share_invalidates_destination(self, clock):
        ssd = cached_ssd(clock)
        ssd.write(1, "src")
        ssd.write(2, "old-dst")
        ssd.read(2)              # cache the old destination content
        ssd.share(2, 1)
        assert ssd.read(2) == "src"

    def test_share_batch_invalidates(self, clock):
        from repro.ftl.share_ext import SharePair
        ssd = cached_ssd(clock)
        ssd.write(1, "src")
        ssd.write(2, "old")
        ssd.read(2)
        ssd.share_batch([SharePair(2, 1)])
        assert ssd.read(2) == "src"

    def test_trim_invalidates(self, clock):
        from repro.errors import UnmappedPageError
        ssd = cached_ssd(clock)
        ssd.write(2, "x")
        ssd.read(2)
        ssd.trim(2)
        with pytest.raises(UnmappedPageError):
            ssd.read(2)

    def test_xftl_commit_invalidates(self, clock):
        ssd = cached_ssd(clock)
        ssd.write(2, "old")
        ssd.read(2)
        txn = ssd.begin_txn()
        ssd.write_txn(txn, 2, "new")
        assert ssd.read(2) == "old"   # pre-commit reads still old
        ssd.commit_txn(txn)
        assert ssd.read(2) == "new"

    def test_power_cycle_clears_cache(self, clock):
        ssd = cached_ssd(clock)
        ssd.write(2, "x")
        ssd.read(2)
        ssd.power_cycle()
        assert len(ssd.cache) == 0
        assert ssd.read(2) == "x"

    def test_cache_off_by_default(self, ssd):
        ssd.write(1, "x")
        ssd.read(1)
        ssd.read(1)
        assert ssd.cache.hits == 0
