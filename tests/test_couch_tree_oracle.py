"""Differential oracle for ``AppendTree.get``.

``get`` remembers its last answer under the root it was read from and
reads nodes straight out of the node cache.  The body it replaced is kept
here — reading every node from the file, no cache and no memo — and must
give the same answer after any sequence of batches, bulk loads and
lookups, on the live tree and on a snapshot pinned before the batch.
The engine cases hold ``CouchStore.get`` / ``set`` to the same rule
across a commit that (SHARE) leaves the root where it was.
"""

import bisect

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.couchstore.engine import CommitMode, CouchConfig, CouchStore
from repro.couchstore.layout import INTERNAL_TAG
from repro.flash.geometry import FlashGeometry
from repro.flash.timing import FAST_TIMING
from repro.ftl.config import FtlConfig
from repro.host.filesystem import FsConfig, HostFs
from repro.sim.clock import SimClock
from repro.ssd.device import Ssd, SsdConfig

from conftest import small_ssd_config

KEY_SPACE = 48      # keys 40..47 are never stored: always-absent probes
KEYS = st.integers(0, 39)
POINTERS = st.tuples(st.integers(0, 10_000), st.just(1))


def old_get(tree, key):
    """``AppendTree.get`` as it was, minus the node cache."""
    if tree.root_block is None:
        return None
    read = tree.file.pread_block
    node = read(tree.root_block)
    while node[0] == INTERNAL_TAG:
        __, keys, children = node
        node = read(children[bisect.bisect_right(keys, key)])
    __, keys, ptrs = node
    index = bisect.bisect_left(keys, key)
    if index < len(keys) and keys[index] == key:
        return ptrs[index]
    return None


def reachable(tree):
    if tree.root_block is None:
        return set()
    seen, stack = set(), [tree.root_block]
    while stack:
        block = stack.pop()
        seen.add(block)
        node = tree.file.pread_block(block)
        if node[0] == INTERNAL_TAG:
            stack.extend(node[2])
    return seen


def fresh_store(mode=CommitMode.ORIGINAL, config=None):
    ssd = Ssd(SimClock(), config or small_ssd_config())
    fs = HostFs(ssd, FsConfig(journal_blocks=8))
    return CouchStore(fs, "/db", mode, CouchConfig(
        leaf_capacity=3, internal_fanout=4, prealloc_blocks=32))


step_strategy = st.one_of(
    st.tuples(st.just("batch"),
              st.dictionaries(KEYS, st.one_of(st.none(), POINTERS),
                              min_size=1, max_size=12)),
    st.tuples(st.just("wipe"), st.none()),
    st.tuples(st.just("same"), st.none()),
    st.tuples(st.just("bulk"), st.dictionaries(KEYS, POINTERS, max_size=30)),
    st.tuples(st.just("get"),
              st.lists(st.integers(0, KEY_SPACE - 1), min_size=1,
                       max_size=8)),
)


def check(tree, model, keys):
    for key in keys:
        # Twice: the second lookup is the memo's.
        assert tree.get(key) == old_get(tree, key) == model.get(key)
        assert tree.get(key) == model.get(key)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(step_strategy, min_size=1, max_size=14))
def test_get_matches_the_uncached_descent(steps):
    store = fresh_store()
    tree = store.tree
    model = {}
    for kind, arg in steps:
        if kind == "get":
            check(tree, model, arg)
            continue
        # Prime the memo with a key the step is likely to change, and pin
        # a snapshot: neither may see the step.
        probe = min(model, default=0)
        assert tree.get(probe) == model.get(probe)
        snapshot, pinned = store.snapshot(), dict(model)
        root_before = tree.root_block
        if kind == "batch":
            tree.apply_batch(arg)
            for key, pointer in arg.items():
                if pointer is None:
                    model.pop(key, None)
                else:
                    model[key] = pointer
        elif kind == "wipe":
            tree.apply_batch(dict.fromkeys(model))
            model.clear()
        elif kind == "same":
            # Re-stating what is stored and deleting what is not changes
            # nothing, so the root (and the memo under it) stays.
            tree.apply_batch({**model, KEY_SPACE - 1: None})
            assert tree.root_block == root_before or not pinned
        else:
            tree.bulk_load(sorted(arg.items()))
            model = dict(arg)
        check(tree, model, [probe, *range(KEY_SPACE)])
        check(snapshot._tree, pinned, [probe, *range(KEY_SPACE)])
        assert set(tree._cache) <= reachable(tree)


def test_cache_holds_only_reachable_nodes_after_many_original_commits():
    """ORIGINAL mode rewrites a root-to-leaf path per touched leaf on
    every commit; the nodes those replace must leave the cache."""
    # 300 commits strand ~20 000 file blocks: a device that holds them.
    geometry = FlashGeometry(page_size=4096, pages_per_block=64,
                             block_count=512, overprovision_ratio=0.125)
    store = fresh_store(CommitMode.ORIGINAL, SsdConfig(
        geometry=geometry, timing=FAST_TIMING,
        ftl=FtlConfig(map_block_count=8)))
    for key in range(200):
        store.set(key, ("v", key, 0))
    store.commit()
    for commit in range(1, 301):
        for offset in range(16):
            key = (commit * 37 + offset * 11) % 200
            store.set(key, ("v", key, commit))
        store.commit()
    tree = store.tree
    assert tree.nodes_obsoleted > 300
    assert set(tree._cache) == reachable(tree)
    for key in range(200):
        assert tree.get(key) == old_get(tree, key)


@pytest.mark.parametrize("mode", list(CommitMode))
def test_engine_read_modify_write_across_a_commit(mode):
    store = fresh_store(mode)
    for key in range(30):
        store.set(key, ("v", key, 0))
    store.commit()
    root = store.tree.root_block
    assert store.get(7) == ("v", 7, 0)
    store.set(7, ("v", 7, 1))
    assert store.get(7) == ("v", 7, 1)          # pending copy
    assert store.get(8) == ("v", 8, 0)
    store.set(7, ("v", 7, 2))                   # twice in one batch
    store.commit()
    # SHARE leaves the index (and the memo's root) where it was; the
    # remapped home block now reads the new body.
    assert (store.tree.root_block == root) is (mode is CommitMode.SHARE)
    assert store.get(7) == ("v", 7, 2)
    assert store.get(8) == ("v", 8, 0)
    assert store.get(99) is None
    for key in range(31):
        assert store.tree.get(key) == old_get(store.tree, key)


@pytest.mark.parametrize("mode", list(CommitMode))
def test_engine_reinserts_a_key_deleted_in_the_same_batch(mode):
    store = fresh_store(mode)
    for key in range(10):
        store.set(key, ("v", key, 0))
    store.commit()
    assert store.get(3) == ("v", 3, 0)
    store.set(3, ("v", 3, 1))
    assert store.delete(3)
    assert store.get(3) is None
    assert not store.delete(3)
    store.set(3, ("v", 3, 2))
    assert store.get(3) == ("v", 3, 2)
    store.commit()
    assert store.get(3) == ("v", 3, 2)
    assert store.doc_count == 10
    assert dict(store.items()) == {
        key: ("v", key, 2 if key == 3 else 0) for key in range(10)}
    for key in range(11):
        assert store.tree.get(key) == old_get(store.tree, key)
