"""Property-based tests: both B+trees must behave exactly like a sorted
dict under arbitrary operation sequences."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.couchstore.tree import AppendTree
from repro.host.filesystem import FsConfig, HostFs
from repro.innodb.btree import BTree
from repro.innodb.page import Page
from repro.sim.clock import SimClock
from repro.ssd.device import Ssd

from conftest import small_ssd_config

KEYS = st.integers(0, 150)
VALUES = st.integers(0, 10_000)

op_strategy = st.one_of(
    st.tuples(st.just("put"), KEYS, VALUES),
    st.tuples(st.just("delete"), KEYS, st.just(0)),
)


class _MemPages:
    def __init__(self):
        self.pages = {}
        self.next_id = 0
        self.next_lsn = 1

    def fetch(self, page_id):
        return self.pages[page_id]

    def write(self, page):
        self.pages[page.page_id] = page

    def allocate(self):
        self.next_id += 1
        return self.next_id - 1


@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(op_strategy, max_size=200),
       st.integers(2, 6), st.integers(3, 6))
def test_innodb_btree_matches_dict(ops, leaf_capacity, fanout):
    store = _MemPages()
    tree = BTree("t", store.fetch, store.write, store.allocate,
                 store, leaf_capacity=leaf_capacity,
                 internal_fanout=fanout)
    model = {}
    for kind, key, value in ops:
        if kind == "put":
            tree.put(key, value)
            model[key] = value
        else:
            assert tree.delete(key) == (key in model)
            model.pop(key, None)
    assert sorted(model.items()) == list(tree.items())
    assert tree.entry_count == len(model)
    for key in range(151):
        assert tree.get(key) == model.get(key)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(st.lists(op_strategy, min_size=1, max_size=12),
                max_size=25),
       st.integers(2, 5), st.integers(3, 6))
def test_append_tree_matches_dict_across_batches(batches, leaf_capacity,
                                                 fanout):
    clock = SimClock()
    ssd = Ssd(clock, small_ssd_config())
    fs = HostFs(ssd, FsConfig(journal_blocks=8))
    tree = AppendTree(fs.create("/t"), leaf_capacity=leaf_capacity,
                      internal_fanout=fanout)
    model = {}
    for batch_ops in batches:
        changes = {}
        for kind, key, value in batch_ops:
            changes[key] = value if kind == "put" else None
        tree.apply_batch(changes)
        for key, value in changes.items():
            if value is None:
                model.pop(key, None)
            else:
                model[key] = value
        assert sorted(model.items()) == list(tree.items())


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(st.tuples(KEYS, VALUES), min_size=1, max_size=120))
def test_append_tree_bulk_load_equals_incremental(pairs):
    clock = SimClock()
    ssd = Ssd(clock, small_ssd_config())
    fs = HostFs(ssd, FsConfig(journal_blocks=8))
    model = {}
    for key, value in pairs:
        model[key] = value
    bulk = AppendTree(fs.create("/bulk"), leaf_capacity=4, internal_fanout=5)
    bulk.bulk_load(sorted(model.items()))
    incremental = AppendTree(fs.create("/inc"), leaf_capacity=4,
                             internal_fanout=5)
    for key, value in pairs:
        incremental.apply_batch({key: value})
    assert list(bulk.items()) == list(incremental.items())
