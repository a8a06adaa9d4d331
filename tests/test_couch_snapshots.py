"""Header snapshots, and the semantic difference SHARE introduces.

Couchstore's append-only design gives free point-in-time snapshots: an
old header's tree keeps working because nothing is overwritten.  The
SHARE adaptation changes the physics — updating a document remaps the
*old block* onto the new content — so a pinned snapshot's tree now reads
the NEW document bodies.  Key-set changes (inserts/deletes) remain
invisible because those do go through the tree.

These tests document the exact contract in both modes: a reproduction
finding the paper does not discuss.
"""

import pytest

from repro.couchstore.engine import CommitMode, CouchConfig, CouchStore
from repro.host.filesystem import FsConfig, HostFs
from repro.ssd.device import Ssd

from conftest import small_ssd_config


@pytest.fixture
def make_store(clock):
    def build(mode):
        ssd = Ssd(clock, small_ssd_config())
        fs = HostFs(ssd, FsConfig(journal_blocks=8))
        store = CouchStore(fs, "/db", mode,
                           CouchConfig(leaf_capacity=4, internal_fanout=8,
                                       prealloc_blocks=64))
        for key in range(10):
            store.set(key, ("v1", key))
        store.commit()
        return store
    return build


class TestOriginalModeSnapshots:
    def test_snapshot_is_point_in_time(self, make_store):
        store = make_store(CommitMode.ORIGINAL)
        snap = store.snapshot()
        store.set(3, ("v2", 3))
        store.commit()
        # The live store moved on; the snapshot did not.
        assert store.get(3) == ("v2", 3)
        assert snap.get(3) == ("v1", 3)

    def test_snapshot_hides_later_inserts_and_deletes(self, make_store):
        store = make_store(CommitMode.ORIGINAL)
        snap = store.snapshot()
        store.set(100, "new-doc")
        store.delete(5)
        store.commit()
        assert snap.get(100) is None
        assert snap.get(5) == ("v1", 5)
        assert store.get(100) == "new-doc"
        assert store.get(5) is None

    def test_snapshot_full_iteration(self, make_store):
        store = make_store(CommitMode.ORIGINAL)
        snap = store.snapshot()
        for round_two in range(10):
            store.set(round_two, ("v2", round_two))
        store.commit()
        assert dict(snap.items()) == {k: ("v1", k) for k in range(10)}


class TestShareModeSnapshots:
    def test_key_set_is_still_pinned(self, make_store):
        store = make_store(CommitMode.SHARE)
        snap = store.snapshot()
        store.set(100, "new-doc")   # insert: goes through the tree
        store.delete(5)             # delete: goes through the tree
        store.commit()
        assert snap.get(100) is None
        assert snap.get(5) is not None

    def test_update_contents_leak_through(self, make_store):
        """THE FINDING: in SHARE mode a snapshot reads updated document
        CONTENT, because the update remapped the very block the pinned
        tree points at.  Point-in-time readers need either ORIGINAL mode
        or an engine that withholds the remap while snapshots exist."""
        store = make_store(CommitMode.SHARE)
        snap = store.snapshot()
        store.set(3, ("v2", 3))
        store.commit()
        assert store.get(3) == ("v2", 3)
        # The snapshot does NOT see ("v1", 3) — the remap rewrote history
        # underneath its tree.
        assert snap.get(3) == ("v2", 3)

    def test_snapshot_never_sees_uncommitted(self, make_store):
        store = make_store(CommitMode.SHARE)
        snap = store.snapshot()
        store.set(3, ("pending", 3))      # appended, not yet shared
        assert snap.get(3) == ("v1", 3)   # remap happens at commit
        store.commit()
        assert snap.get(3) == ("pending", 3)


class TestPinnedSnapshots:
    """The fix: pin=True withholds remapping while the snapshot lives,
    restoring exact point-in-time semantics in SHARE mode."""

    def test_pinned_snapshot_is_point_in_time(self, make_store):
        store = make_store(CommitMode.SHARE)
        snap = store.snapshot(pin=True)
        store.set(3, ("v2", 3))
        store.commit()
        assert store.get(3) == ("v2", 3)
        assert snap.get(3) == ("v1", 3)   # history preserved
        snap.release()

    def test_updates_under_pin_go_through_tree(self, make_store):
        store = make_store(CommitMode.SHARE)
        ssd = store.fs.ssd
        snap = store.snapshot(pin=True)
        pairs_before = ssd.stats.share_pairs
        store.set(3, ("v2", 3))
        store.commit()
        assert ssd.stats.share_pairs == pairs_before  # no remap happened
        snap.release()

    def test_remapping_resumes_after_release(self, make_store):
        store = make_store(CommitMode.SHARE)
        ssd = store.fs.ssd
        with store.snapshot(pin=True):
            store.set(3, ("v2", 3))
            store.commit()
        pairs_before = ssd.stats.share_pairs
        store.set(3, ("v3", 3))
        store.commit()
        assert ssd.stats.share_pairs > pairs_before
        assert store.get(3) == ("v3", 3)

    def test_nested_pins_counted(self, make_store):
        store = make_store(CommitMode.SHARE)
        ssd = store.fs.ssd
        a = store.snapshot(pin=True)
        b = store.snapshot(pin=True)
        a.release()
        pairs_before = ssd.stats.share_pairs
        store.set(3, ("v2", 3))
        store.commit()
        assert ssd.stats.share_pairs == pairs_before  # b still pins
        b.release()

    def test_double_release_is_safe(self, make_store):
        store = make_store(CommitMode.SHARE)
        snap = store.snapshot(pin=True)
        snap.release()
        snap.release()  # no-op
        assert store._live_snapshots == 0

    def test_unpinned_snapshot_does_not_block_remaps(self, make_store):
        store = make_store(CommitMode.SHARE)
        ssd = store.fs.ssd
        store.snapshot()  # unpinned
        pairs_before = ssd.stats.share_pairs
        store.set(3, ("v2", 3))
        store.commit()
        assert ssd.stats.share_pairs > pairs_before
