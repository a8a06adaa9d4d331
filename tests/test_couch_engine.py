"""Integration tests for the couchstore engine: both commit modes, write
accounting, stale tracking, and reopen-after-crash."""

import pytest

from repro.couchstore.engine import CommitMode, CouchConfig, CouchStore
from repro.host.filesystem import FsConfig, HostFs
from repro.ssd.device import Ssd

from conftest import small_ssd_config


def make_store(clock, mode, leaf_capacity=4, fanout=8):
    ssd = Ssd(clock, small_ssd_config())
    fs = HostFs(ssd, FsConfig(journal_blocks=8))
    config = CouchConfig(leaf_capacity=leaf_capacity, internal_fanout=fanout,
                         prealloc_blocks=64)
    return ssd, fs, CouchStore(fs, "/db", mode, config)


class TestBasics:
    @pytest.mark.parametrize("mode", list(CommitMode))
    def test_set_get_roundtrip(self, clock, mode):
        __, __, store = make_store(clock, mode)
        store.set("k", {"v": 1})
        assert store.get("k") == {"v": 1}  # read-your-write pre-commit
        store.commit()
        assert store.get("k") == {"v": 1}

    @pytest.mark.parametrize("mode", list(CommitMode))
    def test_update_visible(self, clock, mode):
        __, __, store = make_store(clock, mode)
        store.set("k", "v1")
        store.commit()
        store.set("k", "v2")
        store.commit()
        assert store.get("k") == "v2"

    @pytest.mark.parametrize("mode", list(CommitMode))
    def test_delete(self, clock, mode):
        __, __, store = make_store(clock, mode)
        store.set("k", "v")
        store.commit()
        assert store.delete("k")
        assert store.get("k") is None
        store.commit()
        assert store.get("k") is None
        assert not store.delete("k")

    @pytest.mark.parametrize("mode", list(CommitMode))
    def test_delete_then_reinsert_in_batch(self, clock, mode):
        __, __, store = make_store(clock, mode)
        store.set("k", "v1")
        store.commit()
        store.delete("k")
        store.set("k", "v2")
        store.commit()
        assert store.get("k") == "v2"
        assert store.doc_count == 1

    @pytest.mark.parametrize("mode", list(CommitMode))
    def test_double_update_in_batch(self, clock, mode):
        __, __, store = make_store(clock, mode)
        store.set("k", "v0")
        store.commit()
        store.set("k", "v1")
        store.set("k", "v2")
        store.commit()
        assert store.get("k") == "v2"

    @pytest.mark.parametrize("mode", list(CommitMode))
    def test_items_sorted(self, clock, mode):
        __, __, store = make_store(clock, mode)
        for key in (5, 1, 3, 2, 4):
            store.set(key, ("v", key))
        store.commit()
        assert [k for k, __ in store.items()] == [1, 2, 3, 4, 5]
        assert store.doc_count == 5


class TestWriteAccounting:
    def test_original_updates_rewrite_tree(self, clock):
        __, __, store = make_store(clock, CommitMode.ORIGINAL)
        for key in range(64):
            store.set(key, key)
        store.commit()
        nodes_before = store.tree.nodes_written
        store.set(1, "update")
        store.commit()
        assert store.tree.nodes_written > nodes_before

    def test_share_updates_leave_tree_untouched(self, clock):
        ssd, __, store = make_store(clock, CommitMode.SHARE)
        for key in range(64):
            store.set(key, key)
        store.commit()
        nodes_before = store.tree.nodes_written
        headers_before = store.stats.headers_written
        store.set(1, "update")
        store.commit()
        assert store.tree.nodes_written == nodes_before
        assert store.stats.headers_written == headers_before
        assert ssd.stats.share_pairs == 1
        assert store.get(1) == "update"

    def test_share_inserts_still_write_tree(self, clock):
        __, __, store = make_store(clock, CommitMode.SHARE)
        store.set("a", 1)
        store.commit()
        nodes_before = store.tree.nodes_written
        store.set("b", 2)  # insert: tree must change
        store.commit()
        assert store.tree.nodes_written > nodes_before

    def test_share_mode_writes_fewer_pages(self, clock_pair=None):
        from repro.sim.clock import SimClock
        totals = {}
        for mode in CommitMode:
            clock = SimClock()
            ssd, __, store = make_store(clock, mode)
            for key in range(64):
                store.set(key, key)
            store.commit()
            ssd.reset_measurement()
            # batch size 1: the strongest wandering-tree amplification.
            for i in range(256):
                store.set(i % 64, ("u", i))
                store.commit()
            totals[mode] = ssd.stats.host_write_pages
        assert totals[CommitMode.SHARE] < totals[CommitMode.ORIGINAL] * 0.45

    def test_stale_ratio_grows_with_updates(self, clock):
        __, __, store = make_store(clock, CommitMode.ORIGINAL)
        for key in range(32):
            store.set(key, key)
        store.commit()
        ratio_after_load = store.stale_ratio
        for i in range(128):
            store.set(i % 32, ("u", i))
            if i % 4 == 3:
                store.commit()
        assert store.stale_ratio > ratio_after_load
        assert 0.0 < store.stale_ratio < 1.0

    def test_needs_compaction_threshold(self, clock):
        __, __, store = make_store(clock, CommitMode.ORIGINAL)
        for key in range(16):
            store.set(key, key)
        store.commit()
        while not store.needs_compaction():
            for key in range(16):
                store.set(key, ("churn", key))
            store.commit()
        assert store.stale_ratio >= store.config.compaction_stale_ratio


class TestReopen:
    @pytest.mark.parametrize("mode", list(CommitMode))
    def test_committed_state_survives_power_cycle(self, clock, mode):
        ssd, fs, store = make_store(clock, mode)
        for key in range(40):
            store.set(key, ("v", key))
        store.commit()
        for key in range(0, 40, 2):
            store.set(key, ("v2", key))
        store.commit()
        ssd.power_cycle()
        reopened = CouchStore.reopen(fs, "/db", mode, store.config)
        for key in range(40):
            expected = ("v2", key) if key % 2 == 0 else ("v", key)
            assert reopened.get(key) == expected
        assert reopened.doc_count == 40

    @pytest.mark.parametrize("mode", list(CommitMode))
    def test_uncommitted_tail_discarded(self, clock, mode):
        ssd, fs, store = make_store(clock, mode)
        store.set("a", "committed")
        store.commit()
        store.set("b", "uncommitted-insert")
        # no commit; crash
        ssd.power_cycle()
        reopened = CouchStore.reopen(fs, "/db", mode, store.config)
        assert reopened.get("a") == "committed"
        assert reopened.get("b") is None

    def test_share_mode_update_durable_without_header(self, clock):
        """A SHARE-mode pure-update commit writes no header, yet is
        durable: the device's atomic remap IS the commit record."""
        ssd, fs, store = make_store(clock, CommitMode.SHARE)
        store.set("a", "v1")
        store.commit()
        headers = store.stats.headers_written
        store.set("a", "v2")
        store.commit()
        assert store.stats.headers_written == headers
        ssd.power_cycle()
        reopened = CouchStore.reopen(fs, "/db", CommitMode.SHARE,
                                     store.config)
        assert reopened.get("a") == "v2"

    def test_reopen_never_committed_file(self, clock):
        ssd, fs, store = make_store(clock, CommitMode.ORIGINAL)
        store.set("a", 1)  # appended but never committed
        ssd.power_cycle()
        reopened = CouchStore.reopen(fs, "/db", CommitMode.ORIGINAL)
        assert reopened.get("a") is None
        assert reopened.doc_count == 0


class TestConfigValidation:
    def test_bad_stale_ratio(self):
        with pytest.raises(ValueError):
            CouchConfig(compaction_stale_ratio=1.5)

    def test_bad_prealloc(self):
        with pytest.raises(ValueError):
            CouchConfig(prealloc_blocks=0)
