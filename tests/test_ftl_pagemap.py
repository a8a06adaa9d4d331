"""Integration-grade unit tests for the page-mapping FTL: basic I/O, TRIM,
SHARE semantics, garbage collection, share-table spills, and the
check_invariants() self-check."""

import pytest

from repro.errors import OutOfSpaceError, ShareError, UnmappedPageError
from repro.flash.geometry import FlashGeometry
from repro.flash.nand import NandArray
from repro.flash.timing import FAST_TIMING
from repro.ftl.config import FtlConfig
from repro.ftl.pagemap import PageMappingFtl
from repro.ftl.share_ext import SharePair
from repro.sim.clock import SimClock
from repro.ssd.device import Ssd, SsdConfig


def make_ftl(share_entries=250, page_size=4096, op=0.125):
    geo = FlashGeometry(page_size=page_size, pages_per_block=32,
                        block_count=64, overprovision_ratio=op)
    nand = NandArray(geo)
    return PageMappingFtl(nand, FtlConfig(map_block_count=4,
                                          share_table_entries=share_entries))


@pytest.fixture
def ftl():
    return make_ftl()


def untouched_by_rejects(ftl):
    """What a host read or write of an out-of-range LPN must leave as it
    was: the sequence counter, the allocator (free pool, open blocks,
    every write pointer), the work ledger, the media's program count and
    the host counters."""
    return (ftl._seq, ftl.free_block_count, ftl.active_blocks(),
            list(ftl._write_ptr), list(ftl.work), ftl.nand.total_programs,
            ftl.stats.host_page_writes, ftl.stats.host_page_reads)


class TestBasicIo:
    def test_write_read_roundtrip(self, ftl):
        ftl.write(5, "five")
        assert ftl.read(5) == "five"
        assert ftl.stats.host_page_writes == 1
        assert ftl.stats.host_page_reads == 1

    def test_overwrite_replaces(self, ftl):
        ftl.write(5, "old")
        ftl.write(5, "new")
        assert ftl.read(5) == "new"

    def test_read_unmapped_raises(self, ftl):
        with pytest.raises(UnmappedPageError):
            ftl.read(5)

    def test_is_mapped(self, ftl):
        assert not ftl.is_mapped(5)
        ftl.write(5, "x")
        assert ftl.is_mapped(5)

    def test_lpn_bounds(self, ftl):
        # Both the bare FTL and the device over it, each filled until the
        # next write would run GC: a rejected LPN must be refused before
        # the GC trigger, the sequence counter, the allocator, the work
        # ledger or the media move.
        ssd = Ssd(SimClock(), SsdConfig(
            geometry=ftl.geometry, timing=FAST_TIMING, ftl=ftl.config))
        for write, read, target in ((ftl.write, ftl.read, ftl),
                                    (ssd.write, ssd.read, ssd.ftl)):
            lpn = 0
            while target.free_block_count > target.config.gc_low_water:
                write(lpn % 200, ("fill", lpn))
                lpn += 1
            for bad in (-1, target.logical_pages):
                before = untouched_by_rejects(target)
                with pytest.raises(ValueError):
                    write(bad, "x")
                with pytest.raises(ValueError):
                    read(bad)
                assert untouched_by_rejects(target) == before
        assert ssd.stats.host_write_pages == ssd.ftl.stats.host_page_writes
        assert ssd.stats.host_read_pages == 0

    def test_invariants_after_writes(self, ftl):
        for i in range(100):
            ftl.write(i % 37, ("v", i))
        ftl.check_invariants()


class TestTrim:
    def test_trim_unmaps(self, ftl):
        ftl.write(5, "x")
        ftl.trim(5)
        assert not ftl.is_mapped(5)
        with pytest.raises(UnmappedPageError):
            ftl.read(5)

    def test_trim_range(self, ftl):
        for i in range(10):
            ftl.write(i, i)
        ftl.trim(2, count=5)
        assert ftl.is_mapped(1)
        for i in range(2, 7):
            assert not ftl.is_mapped(i)
        assert ftl.is_mapped(7)
        assert ftl.stats.trim_pages == 5

    def test_trim_unmapped_is_noop(self, ftl):
        ftl.trim(5)
        assert ftl.stats.trim_pages == 0

    def test_trim_frees_space_for_gc(self, ftl):
        # Fill most of the logical space, trim it all, refill: GC must be
        # able to reclaim the trimmed blocks.
        n = ftl.logical_pages - 10
        for i in range(n):
            ftl.write(i, i)
        ftl.trim(0, count=n)
        for i in range(n):
            ftl.write(i, ("again", i))
        ftl.check_invariants()


class TestShare:
    def test_share_redirects_dst(self, ftl):
        ftl.write(1, "src-data")
        ftl.share(2, 1)
        assert ftl.read(2) == "src-data"
        assert ftl.fwd.lookup(2) == ftl.fwd.lookup(1)
        ftl.check_invariants()

    def test_share_keeps_snapshot_when_source_moves_on(self, ftl):
        ftl.write(1, "v1")
        ftl.share(2, 1)
        ftl.write(1, "v2")
        assert ftl.read(1) == "v2"
        assert ftl.read(2) == "v1"
        ftl.check_invariants()

    def test_share_overwrites_dst_mapping(self, ftl):
        ftl.write(1, "one")
        ftl.write(2, "two")
        ftl.share(2, 1)
        assert ftl.read(2) == "one"

    def test_share_unmapped_source_rejected(self, ftl):
        with pytest.raises(ShareError):
            ftl.share(2, 1)

    def test_share_range(self, ftl):
        for i in range(4):
            ftl.write(10 + i, ("s", i))
        ftl.share(100, 10, length=4)
        for i in range(4):
            assert ftl.read(100 + i) == ("s", i)

    def test_share_batch_atomic_limit(self, ftl):
        limit = ftl.max_share_batch
        for i in range(2):
            ftl.write(i, i)
        too_big = [SharePair(1000 + i, i % 2) for i in range(limit + 1)]
        with pytest.raises(ShareError):
            ftl.share_batch(too_big)

    def test_share_stats(self, ftl):
        ftl.write(1, "x")
        ftl.share(2, 1)
        ftl.share_batch([SharePair(3, 1), SharePair(4, 1)])
        assert ftl.stats.share_commands == 2
        assert ftl.stats.share_pairs == 3

    def test_trim_of_source_keeps_dst_alive(self, ftl):
        ftl.write(1, "keep")
        ftl.share(2, 1)
        ftl.trim(1)
        assert ftl.read(2) == "keep"
        ftl.check_invariants()

    def test_share_after_share(self, ftl):
        ftl.write(1, "x")
        ftl.share(2, 1)
        ftl.share(3, 2)
        assert ftl.read(3) == "x"
        # All three LPNs share one physical page.
        ppns = {ftl.fwd.lookup(i) for i in (1, 2, 3)}
        assert len(ppns) == 1


class TestShareOverflowLogPolicy:
    """A full share table spills reverse mappings to the mapping log,
    where they stay resolvable: no data copies, GC pays lookups."""

    def test_overflow_makes_no_copies(self):
        ftl = make_ftl(share_entries=2)
        ftl.write(1, "payload")
        programs_before = ftl.nand.total_programs
        for dst in range(10, 20):
            ftl.share(dst, 1)
        # Only mapping-log pages were programmed, no data copies.
        data_programs = (ftl.nand.total_programs - programs_before
                         - ftl.map_page_writes)
        assert data_programs == 0
        assert ftl.stats.share_log_spills == 8  # 10 extras, 2 fit in DRAM
        assert ftl.rev.spilled_entries == 8
        for dst in range(10, 20):
            assert ftl.read(dst) == "payload"
        ftl.check_invariants()

    def test_gc_resolves_spilled_refs(self):
        import random
        rng = random.Random(3)
        ftl = make_ftl(share_entries=1)
        ftl.write(1, "shared")
        for dst in range(10, 14):
            ftl.share(dst, 1)
        # Random churn over most of the space mixes hot and cold pages in
        # every block, so GC must move valid pages — including the shared
        # one, whose overflowed reverse mappings need a log lookup.
        span = ftl.logical_pages - 50
        for i in range(ftl.logical_pages * 4):
            ftl.write(20 + rng.randrange(span), ("churn", i))
        assert ftl.stats.gc_events > 0
        assert ftl.stats.copyback_pages > 0
        for dst in range(10, 14):
            assert ftl.read(dst) == "shared"
        assert ftl.stats.spill_lookups > 0
        ftl.check_invariants()

    def test_spilled_entries_released_on_overwrite(self):
        ftl = make_ftl(share_entries=1)
        ftl.write(1, "v1")
        ftl.share(10, 1)
        ftl.share(11, 1)  # spills
        assert ftl.rev.spilled_entries == 1
        ftl.write(11, "private")
        assert ftl.rev.spilled_entries == 0
        ftl.check_invariants()

    def test_recovery_restores_spilled_refs(self):
        ftl = make_ftl(share_entries=1)
        ftl.write(1, "v1")
        for dst in range(10, 14):
            ftl.share(dst, 1)
        recovered = PageMappingFtl.recover(
            ftl.nand, FtlConfig(map_block_count=4, share_table_entries=1))
        for dst in range(10, 14):
            assert recovered.read(dst) == "v1"
        recovered.check_invariants()


class TestGarbageCollection:
    def test_gc_reclaims_overwritten_space(self, ftl):
        hot = ftl.logical_pages // 4
        for i in range(ftl.logical_pages * 3):
            ftl.write(i % hot, ("w", i))
        assert ftl.stats.gc_events > 0
        assert ftl.free_block_count > 0
        ftl.check_invariants()

    def test_gc_preserves_data(self, ftl):
        hot = 50
        for i in range(ftl.logical_pages * 2):
            ftl.write(i % hot, ("w", i % hot, i // hot))
        # After the dust settles every hot LPN holds its newest version.
        last_round = {}
        for i in range(ftl.logical_pages * 2):
            last_round[i % hot] = ("w", i % hot, i // hot)
        for lpn, expected in last_round.items():
            assert ftl.read(lpn) == expected

    def test_gc_moves_shared_pages_intact(self, ftl):
        ftl.write(1, "shared-payload")
        ftl.share(2, 1)
        # Churn unrelated LPNs to force GC over the shared page's block.
        for i in range(ftl.logical_pages * 3):
            ftl.write(3 + (i % 100), ("churn", i))
        assert ftl.stats.gc_events > 0
        assert ftl.read(1) == "shared-payload"
        assert ftl.read(2) == "shared-payload"
        assert ftl.fwd.lookup(1) == ftl.fwd.lookup(2)
        ftl.check_invariants()

    def test_overcommit_raises(self):
        ftl = make_ftl(op=0.02)
        with pytest.raises(OutOfSpaceError):
            # Writing every logical page repeatedly with no invalidation
            # headroom must eventually fail rather than loop forever.
            for round_number in range(10):
                for lpn in range(ftl.logical_pages):
                    ftl.write(lpn, (round_number, lpn))

    def test_wear_spreads_over_blocks(self, ftl):
        hot = ftl.logical_pages // 4
        for i in range(ftl.logical_pages * 4):
            ftl.write(i % hot, i)
        summary = ftl.nand.wear_summary()
        assert summary["max"] >= 1


class TestChannelStriping:
    """Host allocation spreads across channels (block % channel_count)."""

    def make_striped(self, channels, block_count=64):
        geo = FlashGeometry(page_size=4096, pages_per_block=32,
                            block_count=block_count,
                            overprovision_ratio=0.125,
                            channel_count=channels)
        nand = NandArray(geo)
        return PageMappingFtl(nand, FtlConfig(map_block_count=4))

    def channel_of(self, ftl, lpn):
        ppn = ftl.fwd.lookup(lpn)
        geo = ftl.geometry
        return (ppn // geo.pages_per_block) % geo.channel_count

    def test_sequential_writes_rotate_over_channels(self):
        channels = 4
        ftl = self.make_striped(channels)
        for lpn in range(channels * 8):
            ftl.write(lpn, ("v", lpn))
        seen = [self.channel_of(ftl, lpn) for lpn in range(channels * 8)]
        # One page at a time, round-robin: consecutive writes land on
        # consecutive channels.
        for index in range(1, len(seen)):
            assert seen[index] == (seen[index - 1] + 1) % channels
        assert set(seen) == set(range(channels))

    def test_every_channel_gets_its_own_active_block(self):
        channels = 4
        ftl = self.make_striped(channels)
        for lpn in range(channels):
            ftl.write(lpn, ("v", lpn))
        actives = ftl.active_blocks()
        assert len(actives) == channels
        for channel in range(channels):
            assert actives[f"host(ch{channel})"] % channels == channel

    def test_single_channel_degenerates_to_serial_allocation(self):
        striped = self.make_striped(1)
        plain = make_ftl()
        for lpn in range(40):
            striped.write(lpn, ("v", lpn))
            plain.write(lpn, ("v", lpn))
        assert ([striped.fwd.lookup(lpn) for lpn in range(40)]
                == [plain.fwd.lookup(lpn) for lpn in range(40)])

    def test_striped_device_survives_gc_and_invariants(self):
        channels = 2
        ftl = self.make_striped(channels, block_count=32)
        span = 200
        for step in range(5 * span):
            ftl.write(step % span, ("v", step))
        ftl.check_invariants()
        assert ftl.stats.gc_events > 0
        channels_used = {self.channel_of(ftl, lpn) for lpn in range(span)}
        assert channels_used == set(range(channels))

    def test_work_ledger_tags_channels(self):
        channels = 4
        ftl = self.make_striped(channels)
        for lpn in range(channels * 2):
            ftl.write(lpn, ("v", lpn))
        work = ftl.take_work()
        host = [entry for entry in work if entry[0] == "host_program"]
        assert len(host) == channels * 2
        assert {channel for __, channel in host} == set(range(channels))
        assert ftl.take_work() == []   # drained
