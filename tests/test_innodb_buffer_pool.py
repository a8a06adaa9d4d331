"""Unit tests for the LRU buffer pool."""

import pytest

from repro.errors import EngineError
from repro.innodb.buffer_pool import BufferPool
from repro.innodb.page import Page


class PoolHarness:
    """A fake backing store recording flushes."""

    def __init__(self, capacity=8, batch=4):
        self.disk = {}
        self.flushed_batches = []
        self.pool = BufferPool(capacity_pages=capacity,
                               read_page=self.read,
                               flush_callback=self.flush,
                               flush_batch_pages=batch)

    def read(self, page_id):
        return self.disk[page_id]

    def flush(self, pages):
        self.flushed_batches.append([p.page_id for p in pages])
        for page in pages:
            self.disk[page.page_id] = page

    def seed(self, count):
        for page_id in range(count):
            self.disk[page_id] = Page(page_id, 0, ("seed", page_id))


@pytest.fixture
def harness():
    h = PoolHarness()
    h.seed(32)
    return h


def test_fetch_miss_then_hit(harness):
    pool = harness.pool
    page = pool.fetch(3)
    assert page.payload == ("seed", 3)
    assert pool.misses == 1
    pool.fetch(3)
    assert pool.hits == 1


def test_put_marks_dirty(harness):
    pool = harness.pool
    pool.put(Page(3, 1, "dirty"))
    assert pool.dirty_count == 1
    assert pool.fetch(3).payload == "dirty"


def test_eviction_of_clean_pages_is_silent(harness):
    pool = harness.pool
    for page_id in range(10):
        pool.fetch(page_id)
    assert len(pool) <= pool.capacity_pages
    assert harness.flushed_batches == []
    assert pool.evictions > 0


def test_dirty_eviction_flushes_batch(harness):
    pool = harness.pool
    for page_id in range(8):
        pool.put(Page(page_id, 1, ("d", page_id)))
    pool.fetch(20)  # forces eviction of a dirty victim
    assert harness.flushed_batches
    assert len(harness.flushed_batches[0]) <= pool.flush_batch_pages


def test_dirty_victim_lost_by_the_flush_callback_is_an_error(harness):
    """A callback that empties the batch it was handed leaves the
    victim dirty; dropping it would lose the page silently."""
    pool = BufferPool(capacity_pages=8, read_page=harness.read,
                      flush_callback=lambda batch: batch.clear(),
                      flush_batch_pages=4)
    for page_id in range(8):
        pool.put(Page(page_id, 1, ("d", page_id)))
    with pytest.raises(EngineError, match="dirty page dropped unflushed"):
        pool.fetch(20)
    assert 0 in pool._frames and pool.dirty_count == 8
    assert pool.evictions == 0


def test_flushed_pages_become_clean(harness):
    pool = harness.pool
    pool.put(Page(1, 1, "a"))
    pool.flush_some()
    assert pool.dirty_count == 0
    # Still resident and correct.
    assert pool.fetch(1).payload == "a"


def test_flush_all_in_batches(harness):
    pool = harness.pool
    for page_id in range(7):
        pool.put(Page(page_id, 1, ("d", page_id)))
    flushed = pool.flush_all()
    assert flushed == 7
    assert pool.dirty_count == 0
    assert len(harness.flushed_batches) == 2  # 4 + 3


def test_lru_order(harness):
    pool = harness.pool
    for page_id in range(8):
        pool.fetch(page_id)
    pool.fetch(0)  # refresh page 0
    pool.fetch(20)  # evicts page 1, not 0
    assert 0 in pool._frames
    assert 1 not in pool._frames


def test_wrong_page_id_from_storage_rejected():
    pool = BufferPool(capacity_pages=8,
                      read_page=lambda pid: Page(pid + 1, 0, "bad"),
                      flush_callback=lambda pages: None)
    with pytest.raises(EngineError):
        pool.fetch(3)


def test_capacity_validation():
    with pytest.raises(ValueError):
        BufferPool(capacity_pages=4, read_page=lambda p: None,
                   flush_callback=lambda p: None)
    with pytest.raises(ValueError):
        BufferPool(capacity_pages=8, read_page=lambda p: None,
                   flush_callback=lambda p: None, flush_batch_pages=0)

