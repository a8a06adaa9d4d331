"""The engine hot path against the implementation it replaced, and a golden.

``BufferPool.fetch``/``put`` and ``BTree.range`` were rewritten to shed
calls, under one fence: *same touches, same commands*.  LRU order decides
evictions, evictions decide device reads and flush batches, and those
decide every virtual-time number the experiments report.  The previous
pool and the previous generator ``range`` live on here, verbatim, as the
reference: seeded random runs drive both and compare every counter, every
page read from storage, every flush batch and the final LRU order; every
scan must return the same rows *through the same fetch sequence*.  The
golden pins one seeded LinkBench run end to end — both devices' command
sequences, the virtual clock, ``DeviceStats`` and the pool counters — as
recorded on the commit before the rewrite.
"""

import bisect
import hashlib
import json
import random
from collections import OrderedDict

import pytest

from repro.innodb.btree import BTree
from repro.innodb.buffer_pool import BufferPool
from repro.innodb.page import Page
from repro.ssd.trace import IoTrace

from conftest import small_linkbench_stack


# ------------------------------------------------------- reference pool

class RefFrame:
    __slots__ = ("page", "dirty")

    def __init__(self, page, dirty=False):
        self.page = page
        self.dirty = dirty


class RefBufferPool:
    """The buffer pool as it was before the rewrite (argument checks and
    the test-only ``drop_clean`` left out)."""

    def __init__(self, capacity_pages, read_page, flush_callback,
                 flush_batch_pages=64):
        self.capacity_pages = capacity_pages
        self.flush_batch_pages = flush_batch_pages
        self._read_page = read_page
        self._flush = flush_callback
        self._frames = OrderedDict()
        self._dirty = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    @property
    def dirty_count(self):
        return self._dirty

    def fetch(self, page_id):
        frame = self._frames.get(page_id)
        if frame is not None:
            self._frames.move_to_end(page_id)
            self.hits += 1
            return frame.page
        self.misses += 1
        page = self._read_page(page_id)
        self._install(page_id, RefFrame(page))
        return page

    def put(self, page):
        frame = self._frames.get(page.page_id)
        if frame is not None:
            frame.page = page
            if not frame.dirty:
                frame.dirty = True
                self._dirty += 1
            self._frames.move_to_end(page.page_id)
            return
        self._install(page.page_id, RefFrame(page, dirty=True))
        self._dirty += 1

    def _install(self, page_id, frame):
        self._make_room()
        self._frames[page_id] = frame

    def _make_room(self):
        while len(self._frames) >= self.capacity_pages:
            self._evict_tail()

    def _evict_tail(self):
        victim_id = next(iter(self._frames))
        victim = self._frames[victim_id]
        if victim.dirty:
            self._flush_cold_batch()
        dropped = self._frames.pop(victim_id, None)
        if dropped is not None and dropped.dirty:
            self._dirty -= 1
        self.evictions += 1

    def _flush_cold_batch(self):
        batch = []
        for page_id, frame in self._frames.items():
            if frame.dirty:
                batch.append(frame.page)
                if len(batch) >= self.flush_batch_pages:
                    break
        if not batch:
            return
        self._flush(batch)
        for page in batch:
            frame = self._frames.get(page.page_id)
            if frame is not None and frame.page is page and frame.dirty:
                frame.dirty = False
                self._dirty -= 1

    def flush_some(self, max_pages=None):
        limit = max_pages if max_pages is not None else self.flush_batch_pages
        batch = []
        for page_id, frame in self._frames.items():
            if frame.dirty:
                batch.append(frame.page)
                if len(batch) >= limit:
                    break
        if not batch:
            return 0
        self._flush(batch)
        for page in batch:
            frame = self._frames.get(page.page_id)
            if frame is not None and frame.page is page and frame.dirty:
                frame.dirty = False
                self._dirty -= 1
        return len(batch)

    def flush_all(self):
        total = 0
        while True:
            flushed = self.flush_some(self.flush_batch_pages)
            if flushed == 0:
                return total
            total += flushed


class RecordingStore:
    """Backing storage that logs every read and every flush batch."""

    def __init__(self):
        self.disk = {}
        self.reads = []
        self.batches = []

    def read(self, page_id):
        self.reads.append(page_id)
        page = self.disk.get(page_id)
        return page if page is not None else Page(page_id, 0, ("blank",))

    def flush(self, pages):
        self.batches.append([page.page_id for page in pages])
        for page in pages:
            self.disk[page.page_id] = page


def observe(pool, store):
    return {
        "hits": pool.hits, "misses": pool.misses,
        "evictions": pool.evictions, "dirty": pool.dirty_count,
        "reads": list(store.reads), "batches": list(store.batches),
        "lru": list(pool._frames),
        "dirty_ids": [pid for pid, frame in pool._frames.items()
                      if frame.dirty],
    }


@pytest.mark.parametrize("capacity,batch,span,write_share", [
    (8, 1, 24, 0.5),        # tiny pool, one-page batches, write-heavy
    (8, 64, 40, 0.3),       # batch larger than the pool
    (16, 4, 20, 0.3),       # working set barely over the pool
    (16, 4, 200, 0.7),      # nearly every access misses, mostly dirty
    (50, 16, 120, 0.3),     # the LinkBench-like shape
    (50, 16, 40, 0.9),      # everything resident: hits and re-dirtying
])
def test_pool_matches_reference(capacity, batch, span, write_share):
    rng = random.Random(capacity * 1000 + batch * 10 + span)
    stores = RecordingStore(), RecordingStore()
    new = BufferPool(capacity, stores[0].read, stores[0].flush, batch)
    ref = RefBufferPool(capacity, stores[1].read, stores[1].flush, batch)
    for step in range(6000):
        roll = rng.random()
        page_id = (rng.randrange(span) if rng.random() < 0.7
                   else rng.randrange(max(1, span // 8)))   # a hot set
        if roll < 0.96:
            if rng.random() < write_share:
                # One image object for both pools: flush-time identity
                # checks (``frame.page is page``) see the same thing.
                page = Page(page_id, step, ("row", step))
                outcomes = [pool.put(page) for pool in (new, ref)]
            else:
                outcomes = [pool.fetch(page_id).payload
                            for pool in (new, ref)]
        elif roll < 0.99:
            limit = rng.choice((None, 0, 1, 3, batch, batch + 5))
            outcomes = [pool.flush_some(limit) for pool in (new, ref)]
        else:
            outcomes = [pool.flush_all() for pool in (new, ref)]
        assert outcomes[0] == outcomes[1], step
        if step % 97 == 0:
            assert observe(new, stores[0]) == observe(ref, stores[1]), step
    final = observe(new, stores[0])
    assert final == observe(ref, stores[1])
    assert final["misses"] > 0
    assert (final["evictions"] > 0) == (span > capacity)
    assert stores[0].disk == stores[1].disk


# ------------------------------------------------------ reference range

def reference_range(tree, low, high, limit=None):
    """``BTree.range`` as it was: a generator walking key by key."""
    leaf_id, node, __ = tree._descend(low)
    yielded = 0
    while True:
        __, keys, rows, next_leaf = node
        start = bisect.bisect_left(keys, low)
        for index in range(start, len(keys)):
            if keys[index] > high:
                return
            yield keys[index], rows[index]
            yielded += 1
            if limit is not None and yielded >= limit:
                return
        if next_leaf is None:
            return
        leaf_id = next_leaf
        node = tree._node(leaf_id)


class TreeStore:
    """In-memory pages under a B+tree, logging every fetch."""

    def __init__(self, leaf_capacity, internal_fanout):
        self.pages = {}
        self.fetched = []
        self.next_id = 0
        self.next_lsn = 1
        self.tree = BTree("t", self.fetch, self.write, self.allocate, self,
                          leaf_capacity=leaf_capacity,
                          internal_fanout=internal_fanout)

    def fetch(self, page_id):
        self.fetched.append(page_id)
        return self.pages[page_id]

    def write(self, page):
        self.pages[page.page_id] = page

    def allocate(self):
        self.next_id += 1
        return self.next_id - 1

    def fetches_of(self, scan):
        """(result, page ids fetched) of running ``scan()``."""
        del self.fetched[:]
        result = list(scan())
        return result, list(self.fetched)

    def leaves(self):
        """Leaf payloads left to right, read around the fetch log."""
        node = self.pages[self.tree.root_page_id].payload
        while node[0] != "leaf":
            node = self.pages[node[2][0]].payload
        out = [node]
        while node[3] is not None:
            node = self.pages[node[3]].payload
            out.append(node)
        return out


def check_scan(store, low, high, limit):
    tree = store.tree
    got = store.fetches_of(lambda: tree.range(low, high, limit))
    want = store.fetches_of(lambda: reference_range(tree, low, high, limit))
    assert got == want, (low, high, limit)
    return got


@pytest.mark.parametrize("leaf_capacity,fanout,seed", [
    (2, 3, 1), (4, 4, 2), (5, 6, 3), (32, 64, 4)])
def test_range_matches_reference_rows_and_fetches(leaf_capacity, fanout,
                                                  seed):
    rng = random.Random(seed)
    store = TreeStore(leaf_capacity, fanout)
    tree = store.tree
    keys = rng.sample(range(0, 3000, 3), 400)
    for key in keys:
        tree.put(key, ("row", key))
    # Lazy deletes: whole key runs go, leaving empty leaves linked.
    for start in rng.sample(range(0, 3000, 150), 8):
        for key in range(start, start + 120):
            tree.delete(key)
    assert any(not leaf[1] for leaf in store.leaves())
    for __ in range(1500):
        low = rng.randrange(-10, 3010)
        high = low + rng.choice((0, 1, 5, 40, 400, 4000, -7))
        limit = rng.choice((None, None, 1, 2, 3, 7, 20, 500))
        check_scan(store, low, high, limit)
    check_scan(store, -1, 5000, None)        # the full chain


def test_limit_met_on_a_leafs_last_key_leaves_the_next_leaf_alone():
    store = TreeStore(4, 4)
    tree = store.tree
    for key in range(64):
        tree.put(key, key)
    checked = 0
    for leaf in store.leaves()[:-1]:
        keys = leaf[1]
        for offset in range(len(keys)):
            rows, fetched = check_scan(store, keys[offset], 10_000,
                                       len(keys) - offset)
            assert [key for key, __ in rows] == list(keys[offset:])
            assert leaf[3] not in fetched
            # One more row wanted: now the next leaf is touched.
            __, fetched = check_scan(store, keys[offset], 10_000,
                                     len(keys) - offset + 1)
            assert fetched[-1] == leaf[3]
            checked += 1
    assert checked > 20


def test_range_rejects_a_limit_below_one():
    store = TreeStore(4, 4)
    with pytest.raises(ValueError):
        store.tree.range(0, 10, limit=0)


# --------------------------------------------------------------- golden

#: Recorded on the parent commit (PR 15, 74c1096) by running this file
#: as a script against that checkout:
#: ``PYTHONPATH=<parent>/src python tests/test_innodb_pool_oracle.py``.
GOLDEN = {'clock_us': 2121250,
 'run_elapsed_s': 1.745514,
 'pool': [37212, 3070, 3315, 22],
 'engine': [5600, 79, 5600, 8941],
 'data': {'commands': 3312,
          'commands_sha256':
              '76465626181483f6d9dd1ae5df39e8944fb1a0544a3ff3091591dd977ae10ecb',
          'stats': {'block_erases': 9,
                    'busy_us': 3664361.5999999996,
                    'copyback_pages': 122,
                    'flush_commands': 81,
                    'gc_events': 9,
                    'host_read_pages': 3070,
                    'host_write_pages': 2011,
                    'map_page_writes': 79,
                    'share_commands': 79,
                    'share_log_spills': 0,
                    'share_pairs': 2008,
                    'share_spill_pages': 0,
                    'spill_lookups': 0,
                    'trim_commands': 0,
                    'wear_level_moves': 0,
                    'write_amplification': 1.0999502734957733}},
 'log': {'commands': 7699,
         'commands_sha256':
             '396eb71fa0102902b507ab53141bdee31293152bb93f8edeebdeb5ef29335b50',
         'stats': {'block_erases': 0,
                   'busy_us': 388355.0,
                   'copyback_pages': 0,
                   'flush_commands': 5600,
                   'gc_events': 0,
                   'host_read_pages': 0,
                   'host_write_pages': 2099,
                   'map_page_writes': 0,
                   'share_commands': 0,
                   'share_log_spills': 0,
                   'share_pairs': 0,
                   'share_spill_pages': 0,
                   'spill_lookups': 0,
                   'trim_commands': 0,
                   'wear_level_moves': 0,
                   'write_amplification': 1.0}}}


def observe_linkbench_run():
    """Load, then 5 000 LinkBench transactions from 16 clients on the
    small SHARE stack, with both devices' commands traced from the first
    one."""
    stack, driver = small_linkbench_stack(seed=20160626)
    devices = {"data": stack.data_ssd, "log": stack.log_ssd}
    for ssd in devices.values():
        ssd.trace = IoTrace(1_000_000)
    driver.load()
    result = driver.run(5000, concurrency=16)
    engine = stack.engine
    observed = {
        "clock_us": stack.clock.now_us,
        "run_elapsed_s": result.elapsed_seconds,
        "pool": [engine.pool.hits, engine.pool.misses,
                 engine.pool.evictions, engine.pool.dirty_count],
        "engine": [engine.transactions, engine.flush_batches,
                   engine.redo.commits, engine.redo.next_lsn],
    }
    for name, ssd in devices.items():
        # (completion time, kind, lpn, page count), in completion order.
        commands = [fields[:4] for fields in ssd.trace._slots]
        assert not ssd.trace.dropped
        stats = ssd.stats.snapshot()
        observed[name] = {
            "commands": len(commands),
            "commands_sha256":
                hashlib.sha256(repr(commands).encode()).hexdigest(),
            "stats": {key: stats[key] for key in sorted(stats)},
        }
    return observed


def test_golden_linkbench_run_is_command_for_command_the_parents():
    observed = observe_linkbench_run()
    assert observed["pool"][2] > 1000          # the pool really churned
    assert observed["data"]["stats"]["share_commands"] > 10
    assert observed == GOLDEN


if __name__ == "__main__":
    print(json.dumps(observe_linkbench_run(), indent=1))
