"""Unit tests for the update-in-place B+tree (InnoDB tables)."""

import pytest

from repro.innodb.btree import BTree
from repro.innodb.page import Page


class TreeHarness:
    """In-memory page store standing in for pool + tablespace."""

    def __init__(self, leaf_capacity=4, internal_fanout=4):
        self.pages = {}
        self.next_id = 0
        self.next_lsn = 1
        self.tree = BTree("t", fetch=self.fetch, write=self.write,
                          allocate=self.allocate, lsn_source=self,
                          leaf_capacity=leaf_capacity,
                          internal_fanout=internal_fanout)

    def fetch(self, page_id):
        return self.pages[page_id]

    def write(self, page):
        self.pages[page.page_id] = page

    def allocate(self):
        self.next_id += 1
        return self.next_id - 1


@pytest.fixture
def harness():
    return TreeHarness()


def test_empty_tree(harness):
    assert harness.tree.get(1) is None
    assert list(harness.tree.items()) == []
    assert harness.tree.depth() == 1


def test_put_get_roundtrip(harness):
    assert harness.tree.put(5, "five")
    assert harness.tree.get(5) == "five"
    assert harness.tree.entry_count == 1


def test_overwrite_returns_false(harness):
    harness.tree.put(5, "v1")
    assert not harness.tree.put(5, "v2")
    assert harness.tree.get(5) == "v2"
    assert harness.tree.entry_count == 1


def test_splits_preserve_order(harness):
    keys = list(range(100))
    import random
    random.Random(1).shuffle(keys)
    for key in keys:
        harness.tree.put(key, ("row", key))
    assert [k for k, __ in harness.tree.items()] == sorted(range(100))
    assert harness.tree.depth() >= 3


def test_get_after_heavy_insert(harness):
    for key in range(200):
        harness.tree.put(key, key * 2)
    for key in range(200):
        assert harness.tree.get(key) == key * 2


def test_delete(harness):
    for key in range(30):
        harness.tree.put(key, key)
    assert harness.tree.delete(7)
    assert harness.tree.get(7) is None
    assert not harness.tree.delete(7)
    assert harness.tree.entry_count == 29


def test_range_scan(harness):
    for key in range(0, 100, 2):
        harness.tree.put(key, key)
    got = list(harness.tree.range(10, 20))
    assert got == [(10, 10), (12, 12), (14, 14), (16, 16), (18, 18), (20, 20)]


def test_range_with_limit(harness):
    for key in range(50):
        harness.tree.put(key, key)
    got = list(harness.tree.range(0, 49, limit=5))
    assert len(got) == 5
    assert got[0] == (0, 0)


def test_range_empty_window(harness):
    harness.tree.put(1, "a")
    harness.tree.put(100, "b")
    assert list(harness.tree.range(2, 99)) == []


def test_items_fetches_each_page_once(harness):
    for key in range(60):
        harness.tree.put(key, key)
    depth = harness.tree.depth()
    leaves = sum(1 for page in harness.pages.values()
                 if page.payload[0] == "leaf")
    fetched = []
    harness.tree._fetch = lambda page_id: (fetched.append(page_id),
                                           harness.pages[page_id])[1]
    assert [key for key, __ in harness.tree.items()] == list(range(60))
    # The leftmost descent (one page per level), then every other leaf.
    assert len(fetched) == len(set(fetched)) == depth - 1 + leaves


def test_tuple_keys(harness):
    harness.tree.put((1, 0, 5), "link-a")
    harness.tree.put((1, 0, 9), "link-b")
    harness.tree.put((1, 1, 2), "link-c")
    harness.tree.put((2, 0, 1), "link-d")
    got = list(harness.tree.range((1, 0, -1), (1, 0, 1 << 62)))
    assert [v for __, v in got] == ["link-a", "link-b"]


def test_validation():
    h = TreeHarness()
    with pytest.raises(ValueError):
        BTree("x", h.fetch, h.write, h.allocate, h, leaf_capacity=1)
    with pytest.raises(ValueError):
        BTree("x", h.fetch, h.write, h.allocate, h,
              internal_fanout=2)


def test_mixed_workload_consistency(harness):
    import random
    rng = random.Random(42)
    model = {}
    for step in range(2000):
        key = rng.randrange(300)
        action = rng.random()
        if action < 0.5:
            model[key] = step
            harness.tree.put(key, step)
        elif action < 0.7:
            model.pop(key, None)
            harness.tree.delete(key)
        else:
            assert harness.tree.get(key) == model.get(key)
    assert sorted(model.items()) == list(harness.tree.items())
