"""Edge-case coverage for the host filesystem: rename chains, reflink of
reflinks, truncate/regrow cycles, and journal wrap-around."""

import pytest

from repro.errors import FileSystemError
from repro.host.filesystem import FsConfig, HostFs
from repro.ssd.device import Ssd

from conftest import small_ssd_config


@pytest.fixture
def fs(clock):
    return HostFs(Ssd(clock, small_ssd_config()), FsConfig(journal_blocks=8))


def test_rename_chain(fs):
    f = fs.create("/a")
    f.append_block("payload")
    fs.rename("/a", "/b")
    fs.rename("/b", "/c")
    assert fs.open("/c").pread_block(0) == "payload"
    assert not fs.exists("/a")
    assert not fs.exists("/b")


def test_rename_onto_self(fs):
    f = fs.create("/a")
    f.append_block("x")
    fs.rename("/a", "/a")
    assert fs.open("/a").pread_block(0) == "x"


def test_reflink_of_reflink(fs):
    src = fs.create("/gen0")
    src.append_block("origin")
    fs.reflink_copy("/gen0", "/gen1")
    fs.reflink_copy("/gen1", "/gen2")
    # Three logical files, one physical page.
    for path in ("/gen0", "/gen1", "/gen2"):
        assert fs.open(path).pread_block(0) == "origin"
    # Mutating the middle generation leaves the outer two intact.
    fs.open("/gen1").pwrite_block(0, "mutated")
    assert fs.open("/gen0").pread_block(0) == "origin"
    assert fs.open("/gen2").pread_block(0) == "origin"
    fs.ssd.ftl.check_invariants()


def test_reflink_then_unlink_everything(fs):
    src = fs.create("/src")
    for i in range(5):
        src.append_block(("d", i))
    fs.reflink_copy("/src", "/dst")
    fs.unlink("/src")
    fs.unlink("/dst")
    # All pages released; space is reusable.
    f = fs.create("/fresh")
    f.fallocate(5)
    f.pwrite_blocks(0, ["n"] * 5)
    assert f.pread_block(4) == "n"
    fs.ssd.ftl.check_invariants()


def test_truncate_then_regrow(fs):
    f = fs.create("/f")
    for i in range(6):
        f.append_block(("old", i))
    f.truncate_blocks(2)
    f.fallocate(6)
    f.pwrite_block(5, "regrown")
    assert f.pread_block(0) == ("old", 0)
    assert f.pread_block(5) == "regrown"
    # Truncated blocks read as holes through the device mapping.
    assert not fs.ssd.ftl.is_mapped(f.block_lpn(2))


def test_single_block_io_rejects_indices_outside_the_file(fs):
    f = fs.create("/f")
    for i in range(3):
        f.append_block(("b", i))
    # -1 must not wrap round to the last block.
    for index in (-1, 3, 99):
        with pytest.raises(FileSystemError, match=f"block index {index} "):
            f.pread_block(index)
        with pytest.raises(FileSystemError, match=f"block index {index} "):
            f.pwrite_block(index, "z")
    assert [f.pread_block(i) for i in range(3)] == [("b", i) for i in range(3)]


def test_truncate_negative_rejected(fs):
    f = fs.create("/f")
    with pytest.raises(ValueError):
        f.truncate_blocks(-1)


def test_metadata_journal_wraps(fs):
    # More metadata commits than journal blocks: the circular journal
    # area must keep absorbing them.
    for i in range(30):
        fs.create(f"/file-{i}")
        fs.unlink(f"/file-{i}")
    assert fs.metadata_commits >= 30


def test_operations_on_unlinked_handle_rejected(fs):
    f = fs.create("/f")
    f.append_block("x")
    fs.unlink("/f")
    with pytest.raises(FileSystemError):
        f.append_block("y")
    with pytest.raises(FileSystemError):
        f.fallocate(4)
    with pytest.raises(FileSystemError):
        f.fsync()


def test_pwrite_blocks_across_noncontiguous_extents(fs):
    # Force a non-contiguous file: fresh extent, recycled extent.
    a = fs.create("/a")
    a.fallocate(3)
    fs.unlink("/a")
    b = fs.create("/b")
    b.fallocate(2)          # fresh
    filler = fs.create("/filler")
    filler.fallocate(fs.ssd.logical_pages - fs._alloc_cursor)
    b.fallocate(4)          # must come from the recycled pool
    lpns = [b.block_lpn(i) for i in range(4)]
    assert lpns != sorted(lpns) or lpns[1] + 1 != lpns[2]
    b.pwrite_blocks(0, ["w", "x", "y", "z"])
    assert [b.pread_block(i) for i in range(4)] == ["w", "x", "y", "z"]
