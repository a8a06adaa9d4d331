"""Tests for the LSM store: SSTables, merge compaction (copy and SHARE),
WAL recovery, and model equivalence."""

import random

import pytest

from repro.errors import EngineError
from repro.host.filesystem import FsConfig, HostFs
from repro.lsm import (
    TOMBSTONE,
    CompactionMode,
    LsmConfig,
    LsmStore,
    Memtable,
    SSTable,
)
from repro.lsm.compaction import merge_compact
from repro.sim.clock import SimClock
from repro.ssd.device import Ssd

from conftest import small_ssd_config


@pytest.fixture
def fs(clock):
    return HostFs(Ssd(clock, small_ssd_config()), FsConfig(journal_blocks=8))


def make_store(fs, clock, mode=CompactionMode.SHARE, memtable_limit=64,
               l0_limit=3, block_capacity=4):
    return LsmStore(fs, "db", mode, clock,
                    LsmConfig(memtable_limit=memtable_limit,
                              l0_limit=l0_limit,
                              block_capacity=block_capacity))


class TestMemtable:
    def test_put_get_delete(self):
        table = Memtable()
        table.put(1, "a")
        assert table.get(1) == "a"
        table.delete(1)
        assert table.get(1) is TOMBSTONE
        assert table.get(2) is None

    def test_sorted_items(self):
        table = Memtable()
        for key in (3, 1, 2):
            table.put(key, key)
        assert [k for k, __ in table.sorted_items()] == [1, 2, 3]

    def test_len_and_clear(self):
        table = Memtable()
        table.put(1, "a")
        table.delete(2)
        assert len(table) == 2
        table.clear()
        assert len(table) == 0


class TestSSTable:
    def test_build_and_get(self, fs):
        entries = [(k, ("v", k)) for k in range(0, 40, 2)]
        table = SSTable.build(fs, "/run", entries, block_capacity=4)
        assert table.entry_count == 20
        assert table.get(10) == ("v", 10)
        assert table.get(11) is None
        assert table.get(-5) is None
        assert table.get(100) is None

    def test_key_range_and_meta(self, fs):
        entries = [(k, k) for k in range(10)]
        table = SSTable.build(fs, "/run", entries, block_capacity=4)
        assert (table.block_meta(0).first_key,
                table.block_meta(2).last_key) == (0, 9)
        assert table.data_block_count == 3
        assert table.block_meta(0).first_key == 0
        assert table.block_meta(0).last_key == 3
        assert table.block_meta(2).entry_count == 2

    def test_tombstone_flag_in_meta(self, fs):
        entries = [(1, "a"), (2, TOMBSTONE), (3, "c")]
        table = SSTable.build(fs, "/run", entries, block_capacity=4)
        assert table.block_meta(0).has_tombstone
        assert table.get(2) is TOMBSTONE

    def test_items_in_order(self, fs):
        entries = [(k, k) for k in range(25)]
        table = SSTable.build(fs, "/run", entries, block_capacity=4)
        assert list(table.items()) == entries

    def test_reopen(self, fs):
        entries = [(k, ("v", k)) for k in range(12)]
        SSTable.build(fs, "/run", entries, block_capacity=4)
        reopened = SSTable.open(fs, "/run")
        assert reopened.entry_count == 12
        assert reopened.get(7) == ("v", 7)

    def test_fence_gap_skips_read(self, fs, clock):
        # A key between two blocks' fences must not read any block.
        entries = [(0, "a"), (1, "b"), (10, "c"), (11, "d")]
        table = SSTable.build(fs, "/run", entries, block_capacity=2)
        reads_before = fs.ssd.stats.host_read_pages
        assert table.get(5) is None
        assert fs.ssd.stats.host_read_pages == reads_before


class TestMergeCompaction:
    def build_runs(self, fs, newest, oldest):
        new_run = SSTable.build(fs, "/new", sorted(newest.items()),
                                block_capacity=4)
        old_run = SSTable.build(fs, "/old", sorted(oldest.items()),
                                block_capacity=4)
        return [new_run, old_run]

    @pytest.mark.parametrize("mode", list(CompactionMode))
    def test_newest_wins(self, fs, clock, mode):
        runs = self.build_runs(fs, {1: "new", 2: "only-new"},
                               {1: "old", 3: "only-old"})
        table, result = merge_compact(fs, runs, "/out", mode, clock)
        assert dict(table.items()) == {1: "new", 2: "only-new",
                                       3: "only-old"}

    @pytest.mark.parametrize("mode", list(CompactionMode))
    def test_tombstones_dropped(self, fs, clock, mode):
        runs = self.build_runs(fs, {1: TOMBSTONE, 2: "keep"},
                               {1: "dead", 3: "alive"})
        table, __ = merge_compact(fs, runs, "/out", mode, clock)
        assert dict(table.items()) == {2: "keep", 3: "alive"}

    def test_copy_mode_never_shares(self, fs, clock):
        runs = self.build_runs(fs, {k: "n" for k in range(0, 8)},
                               {k: "o" for k in range(100, 140)})
        __, result = merge_compact(fs, runs, "/out", CompactionMode.COPY,
                                   clock)
        assert result.blocks_shared == 0
        assert result.blocks_written > 0

    def test_share_mode_reuses_disjoint_blocks(self, fs, clock):
        # Cold range [100, 140) does not overlap the hot updates [0, 8).
        runs = self.build_runs(fs, {k: "n" for k in range(0, 8)},
                               {k: "o" for k in range(100, 140)})
        table, result = merge_compact(fs, runs, "/out",
                                      CompactionMode.SHARE, clock)
        assert result.blocks_shared >= 10  # all cold blocks reused
        assert dict(table.items()) == {**{k: "n" for k in range(8)},
                                       **{k: "o" for k in range(100, 140)}}

    def test_share_mode_skips_interleaved_blocks(self, fs, clock):
        # Every old block contains a superseded key: nothing reusable.
        newest = {k: "n" for k in range(0, 40, 4)}
        oldest = {k: "o" for k in range(40)}
        runs = self.build_runs(fs, newest, oldest)
        table, result = merge_compact(fs, runs, "/out",
                                      CompactionMode.SHARE, clock)
        assert result.blocks_shared == 0
        expected = dict(oldest)
        expected.update(newest)
        assert dict(table.items()) == expected

    def test_share_reuse_reads_nothing(self, fs, clock):
        cold = {k: ("cold", k) for k in range(100, 200)}
        runs = self.build_runs(fs, {0: "hot"}, cold)
        reads_before = fs.ssd.stats.host_read_pages
        __, result = merge_compact(fs, runs, "/out",
                                   CompactionMode.SHARE, clock)
        reads = fs.ssd.stats.host_read_pages - reads_before
        # Every block — the hot run's single block included — is disjoint
        # from the others, so all 26 move by fence metadata alone, with
        # zero data-block reads.
        assert result.blocks_shared == 26
        assert result.blocks_written == 0
        assert reads == 0

    @pytest.mark.parametrize("mode", list(CompactionMode))
    def test_modes_produce_identical_contents(self, fs, clock, mode):
        rng = random.Random(9)
        newest = {rng.randrange(300): ("n", i) for i in range(60)}
        middle = {rng.randrange(300): ("m", i) for i in range(80)}
        oldest = {k: ("o", k) for k in range(300)}
        runs = [SSTable.build(fs, f"/r{i}", sorted(d.items()),
                              block_capacity=4)
                for i, d in enumerate((newest, middle, oldest))]
        table, __ = merge_compact(fs, runs, "/out", mode, clock)
        expected = dict(oldest)
        expected.update(middle)
        expected.update(newest)
        assert dict(table.items()) == expected


class TestLsmStore:
    def test_put_get(self, fs, clock):
        store = make_store(fs, clock)
        store.put(1, "one")
        assert store.get(1) == "one"
        assert store.get(2) is None

    def test_delete_shadows_older_levels(self, fs, clock):
        store = make_store(fs, clock, memtable_limit=8)
        for key in range(8):
            store.put(key, ("v", key))  # triggers a flush to L0
        assert store.stats.flushes == 1
        store.delete(3)
        assert store.get(3) is None

    def test_none_value_rejected(self, fs, clock):
        store = make_store(fs, clock)
        with pytest.raises(EngineError):
            store.put(1, None)

    def test_flush_and_compaction_cascade(self, fs, clock):
        store = make_store(fs, clock, memtable_limit=16, l0_limit=2)
        for i in range(200):
            store.put(i % 50, ("v", i))
        assert store.stats.flushes > 0
        assert store.stats.compactions > 0
        assert store.l1 is not None

    def test_model_equivalence_random(self, fs, clock):
        store = make_store(fs, clock, memtable_limit=32, l0_limit=2)
        rng = random.Random(4)
        model = {}
        for i in range(1500):
            key = rng.randrange(200)
            if rng.random() < 0.15:
                store.delete(key)
                model.pop(key, None)
            else:
                store.put(key, ("v", i))
                model[key] = ("v", i)
            if i % 50 == 49:
                store.commit()
        assert store.items() == model
        for key in range(200):
            assert store.get(key) == model.get(key)

    @pytest.mark.parametrize("mode", list(CompactionMode))
    def test_reopen_recovers_committed_state(self, fs, clock, mode):
        store = make_store(fs, clock, mode=mode, memtable_limit=32)
        model = {}
        for i in range(300):
            store.put(i % 80, ("v", i))
            model[i % 80] = ("v", i)
            if i % 10 == 9:
                store.commit()
        store.commit()
        fs.ssd.power_cycle()
        reopened = LsmStore.reopen(fs, "db", mode, clock)
        for key, value in model.items():
            assert reopened.get(key) == value

    def test_uncommitted_tail_lost_on_crash(self, fs, clock):
        store = make_store(fs, clock, memtable_limit=1000)
        store.put(1, "committed")
        store.commit()
        store.put(2, "uncommitted")
        fs.ssd.power_cycle()
        reopened = LsmStore.reopen(fs, "db", CompactionMode.SHARE, clock)
        assert reopened.get(1) == "committed"
        assert reopened.get(2) is None

    def test_compaction_survives_crash_and_reopen(self, fs, clock):
        store = make_store(fs, clock, memtable_limit=32, l0_limit=2)
        for i in range(400):
            store.put(i % 100, ("v", i))
            if i % 20 == 19:
                store.commit()
        store.commit()
        store.flush_memtable()
        store.compact()
        expected = store.items()
        fs.ssd.power_cycle()
        reopened = LsmStore.reopen(fs, "db", CompactionMode.SHARE, clock)
        assert reopened.items() == expected
        fs.ssd.ftl.check_invariants()

    def test_share_compaction_writes_less_under_skew(self, fs, clock):
        from repro.sim.clock import SimClock
        totals = {}
        for mode in CompactionMode:
            local_clock = SimClock()
            local_fs = HostFs(Ssd(local_clock, small_ssd_config()),
                              FsConfig(journal_blocks=8))
            store = LsmStore(local_fs, "db", mode, local_clock,
                             LsmConfig(memtable_limit=128, l0_limit=8,
                                       block_capacity=4))
            for key in range(800):
                store.put(key, ("cold", key))
            store.flush_memtable()
            rng = random.Random(2)
            for i in range(256):
                store.put(rng.randrange(80), ("hot", i))
            store.flush_memtable()
            result = store.compact()
            totals[mode] = result
        share = totals[CompactionMode.SHARE]
        copy = totals[CompactionMode.COPY]
        assert share.blocks_shared > 0
        assert share.blocks_written < copy.blocks_written * 0.5
        assert share.elapsed_seconds < copy.elapsed_seconds
