"""Unit tests for the host filesystem, file handles, and the share ioctl."""

import pytest

from repro.errors import (
    FileExists,
    FileNotFound,
    FileSystemError,
    IoctlError,
    NoSpace,
)
from repro.flash.geometry import FlashGeometry
from repro.flash.timing import FAST_TIMING
from repro.host.filesystem import (METADATA_PAGES_PER_COMMIT, FsConfig, HostFs,
                                   _runs)
from repro.host.ioctl import share_file_ranges, share_ioctl
from repro.sim.clock import SimClock
from repro.ssd.device import Ssd, SsdConfig

from conftest import small_ssd_config


@pytest.fixture
def fs(clock):
    ssd = Ssd(clock, small_ssd_config())
    return HostFs(ssd, FsConfig(journal_blocks=8))


class TestDirectory:
    def test_create_open(self, fs):
        f = fs.create("/db")
        assert fs.open("/db") is f
        assert fs.exists("/db")
        assert fs.list_files() == ["/db"]

    def test_create_duplicate_rejected(self, fs):
        fs.create("/db")
        with pytest.raises(FileExists):
            fs.create("/db")

    def test_open_missing_rejected(self, fs):
        with pytest.raises(FileNotFound):
            fs.open("/missing")

    def test_unlink(self, fs):
        f = fs.create("/db")
        f.append_block("x")
        fs.unlink("/db")
        assert not fs.exists("/db")
        assert f.block_count == 0
        with pytest.raises(FileSystemError, match="unlinked"):
            f.pread_block(0)
        with pytest.raises(FileSystemError, match="unlinked"):
            f.pwrite_block(0, "y")

    def test_unlink_missing_rejected(self, fs):
        with pytest.raises(FileNotFound):
            fs.unlink("/missing")

    def test_unlink_trims_extents(self, fs):
        f = fs.create("/db")
        for i in range(5):
            f.append_block(i)
        trims_before = fs.ssd.stats.trim_commands
        fs.unlink("/db")
        assert fs.ssd.stats.trim_commands > trims_before

    def test_rename_replaces(self, fs):
        old = fs.create("/db")
        old.append_block("old")
        new = fs.create("/db.compact")
        new.append_block("new")
        fs.rename("/db.compact", "/db")
        assert fs.open("/db").pread_block(0) == "new"
        assert not fs.exists("/db.compact")


class TestFileIo:
    def test_append_and_read(self, fs):
        f = fs.create("/f")
        index = f.append_block("hello")
        assert index == 0
        assert f.pread_block(0) == "hello"
        assert f.block_count == 1

    def test_pwrite_in_place(self, fs):
        f = fs.create("/f")
        f.append_block("v1")
        f.pwrite_block(0, "v2")
        assert f.pread_block(0) == "v2"

    def test_pwrite_blocks_contiguous(self, fs):
        f = fs.create("/f")
        f.fallocate(4)
        f.pwrite_blocks(0, ["a", "b", "c", "d"])
        assert [f.pread_block(i) for i in range(4)] == ["a", "b", "c", "d"]

    def test_fallocate_reserves_without_writing(self, fs):
        f = fs.create("/f")
        writes_before = fs.ssd.stats.host_write_pages
        f.fallocate(10)
        assert f.block_count == 10
        assert fs.ssd.stats.host_write_pages == writes_before

    def test_fallocate_never_shrinks(self, fs):
        f = fs.create("/f")
        f.fallocate(10)
        f.fallocate(5)
        assert f.block_count == 10

    def test_truncate(self, fs):
        f = fs.create("/f")
        for i in range(6):
            f.append_block(i)
        f.truncate_blocks(2)
        assert f.block_count == 2
        with pytest.raises(FileSystemError):
            f.pread_block(2)

    def test_out_of_range_read_rejected(self, fs):
        f = fs.create("/f")
        with pytest.raises(FileSystemError):
            f.pread_block(0)

    def test_block_lpn_resolution(self, fs):
        f = fs.create("/f")
        f.append_block("x")
        lpn = f.block_lpn(0)
        assert fs.ssd.read(lpn) == "x"


class TestMetadataJournal:
    def test_fsync_after_growth_commits_metadata(self, fs):
        f = fs.create("/f")
        f.append_block("x")
        commits_before = fs.metadata_commits
        f.fsync()
        assert fs.metadata_commits == commits_before + 1

    def test_fsync_without_metadata_change_skips_journal(self, fs):
        f = fs.create("/f")
        f.append_block("x")
        f.fsync()
        commits = fs.metadata_commits
        f.pwrite_block(0, "y")  # data only, no metadata change
        f.fsync()
        assert fs.metadata_commits == commits

    def test_journal_writes_hit_device(self, fs):
        f = fs.create("/f")
        f.append_block("x")
        writes_before = fs.ssd.stats.host_write_pages
        f.fsync()
        per_commit = METADATA_PAGES_PER_COMMIT
        assert fs.ssd.stats.host_write_pages == writes_before + per_commit


class TestAllocation:
    def test_allocations_are_disjoint(self, fs):
        a = fs.allocate_blocks(10)
        b = fs.allocate_blocks(10)
        assert not set(a) & set(b)

    def test_unlink_recycles_blocks(self, fs):
        f = fs.create("/f")
        for i in range(4):
            f.append_block(i)
        free_before = fs.free_blocks
        fs.unlink("/f")
        assert fs.free_blocks == free_before + 4

    def test_recycled_blocks_are_reallocated(self, fs):
        f = fs.create("/f")
        for i in range(4):
            f.append_block(i)
        fs.unlink("/f")
        # Exhaust fresh space, then allocation must fall back to the
        # recycled pool instead of failing.
        fresh = fs.ssd.logical_pages - fs._alloc_cursor
        fs.allocate_blocks(fresh)
        reused = fs.allocate_blocks(4)
        assert len(reused) == 4

    def test_exhaustion_raises(self, clock):
        ssd = Ssd(clock, small_ssd_config())
        fs = HostFs(ssd, FsConfig(journal_blocks=8))
        with pytest.raises(NoSpace):
            fs.allocate_blocks(ssd.logical_pages)

    def test_runs_compression(self):
        assert _runs([1, 2, 3, 7, 8, 10]) == [(1, 3), (7, 2), (10, 1)]
        assert _runs([]) == []
        assert _runs([5]) == [(5, 1)]


class TestShareIoctl:
    def test_share_single_block(self, fs):
        src = fs.create("/src")
        src.append_block("payload")
        dst = fs.create("/dst")
        dst.fallocate(1)
        commands = share_ioctl(dst, 0, src, 0)
        assert commands == 1
        assert dst.pread_block(0) == "payload"

    def test_share_range(self, fs):
        src = fs.create("/src")
        for i in range(4):
            src.append_block(("d", i))
        dst = fs.create("/dst")
        dst.fallocate(4)
        share_ioctl(dst, 0, src, 0, length=4)
        for i in range(4):
            assert dst.pread_block(i) == ("d", i)

    def test_share_survives_source_unlink(self, fs):
        src = fs.create("/src")
        src.append_block("keep")
        dst = fs.create("/dst")
        dst.fallocate(1)
        share_ioctl(dst, 0, src, 0)
        fs.unlink("/src")
        assert dst.pread_block(0) == "keep"

    def test_share_file_ranges_batches(self, fs):
        src = fs.create("/src")
        for i in range(6):
            src.append_block(("d", i))
        dst = fs.create("/dst")
        dst.fallocate(6)
        commands = share_file_ranges(dst, src, [(0, 0, 3), (3, 3, 3)])
        assert commands >= 1
        for i in range(6):
            assert dst.pread_block(i) == ("d", i)

    def test_share_requires_capable_device(self, clock):
        config = SsdConfig(geometry=FlashGeometry.small(),
                           timing=FAST_TIMING, share_enabled=False)
        fs = HostFs(Ssd(clock, config), FsConfig(journal_blocks=8))
        src = fs.create("/src")
        src.append_block("x")
        dst = fs.create("/dst")
        dst.fallocate(1)
        with pytest.raises(IoctlError):
            share_ioctl(dst, 0, src, 0)

    def test_share_bad_length_rejected(self, fs):
        src = fs.create("/src")
        src.append_block("x")
        dst = fs.create("/dst")
        dst.fallocate(1)
        with pytest.raises(IoctlError):
            share_ioctl(dst, 0, src, 0, length=0)
        with pytest.raises(IoctlError):
            share_file_ranges(dst, src, [])
