"""The couchstore engine: get/set/delete with batched commits.

Write path (Section 2.2 / 4.3):

* ``set`` appends the new document copy to the database file immediately
  (append-only, copy-on-write) and queues the index change.
* ``commit`` makes the batch durable.
  - ORIGINAL mode rewrites every index node on the changed leaf-to-root
    paths (wandering tree) and appends a database header.
  - SHARE mode replaces each *update*'s index change with a SHARE pair
    (old document block <- new copy); the tree and header are written only
    when the batch contains inserts or deletes, whose keys genuinely
    change the index.

Stale-block accounting drives the compaction trigger: ORIGINAL updates
strand the old document and the replaced index nodes; SHARE updates strand
the appended staging copy (one block) and no index nodes.

A document is one file block; its index pointer is ``(block, 1)``, the
length a ranged SHARE of it takes.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from operator import attrgetter
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.errors import EngineError, ResilienceError
from repro.couchstore.layout import (
    DOC_TAG,
    doc_body,
    header_record,
    is_header,
    parse_header,
)
from repro.couchstore.tree import AppendTree
from repro.host.file import File
from repro.host.filesystem import HostFs
from repro.host.resilience import ShareGuard
from repro.obs import COUNTER


class CommitMode(Enum):
    """Original Couchbase vs the paper's SHARE adaptation."""

    ORIGINAL = "original"
    SHARE = "share"


@dataclass(frozen=True)
class CouchConfig:
    """Engine geometry.

    ``leaf_capacity``/``internal_fanout`` are chosen so a quarter-million
    document store has the paper's average tree depth of three (root,
    one internal level, leaves) and compaction's index rebuild writes a
    paper-comparable share of the file.
    """

    leaf_capacity: int = 7
    internal_fanout: int = 200
    compaction_stale_ratio: float = 0.6
    prealloc_blocks: int = 256

    def __post_init__(self) -> None:
        if not 0.0 < self.compaction_stale_ratio < 1.0:
            raise ValueError("compaction_stale_ratio must be in (0, 1)")
        if self.prealloc_blocks < 1:
            raise ValueError(
                f"prealloc_blocks must be >= 1: {self.prealloc_blocks}")


@dataclass
class CouchStats:
    """Engine-level write accounting (documents vs index vs headers)
    over a database's whole life: the store a compaction builds inherits
    the object, as it inherits the resilience guard.  ``share_*`` count
    commit-time remaps; a compaction's own volume is ``compaction_*``.
    ``index_nodes_written`` follows the current file's tree."""

    doc_blocks_written: int = 0
    index_nodes_written: int = 0
    headers_written: int = 0
    commits: int = 0
    share_pairs: int = 0
    share_commands: int = 0
    compactions: int = 0
    compaction_pages_moved: int = 0
    compaction_share_commands: int = 0
    compaction_index_nodes: int = 0


#: ``couch.*`` telemetry rows, read off a database's :class:`CouchStats`.
COUCH_ROWS = tuple(
    (name, COUNTER, attrgetter(field)) for name, field in (
        ("commits", "commits"),
        ("share_pairs", "share_pairs"),
        ("doc_blocks_written", "doc_blocks_written"),
        ("headers_written", "headers_written"),
        ("compaction.runs", "compactions"),
        ("compaction.pages_moved", "compaction_pages_moved"),
        ("compaction.share_commands", "compaction_share_commands"),
        ("compaction.index_nodes_written", "compaction_index_nodes")))


class CouchStore:
    """A single append-only key-value database file."""

    def __init__(self, fs: HostFs, path: str, mode: CommitMode,
                 config: Optional[CouchConfig] = None,
                 _file: Optional[File] = None,
                 _root_block: Optional[int] = None,
                 _update_seq: int = 0,
                 _doc_count: int = 0,
                 _stale_blocks: int = 0,
                 _append_cursor: Optional[int] = None,
                 _resilience: Optional[ShareGuard] = None,
                 _stats: Optional[CouchStats] = None) -> None:
        self.fs = fs
        self.path = path
        self.mode = mode
        self.config = config or CouchConfig()
        self.file = _file if _file is not None else fs.create(path)
        self._append_cursor = (_append_cursor if _append_cursor is not None
                               else self.file.block_count)
        self.tree = AppendTree(self.file,
                               leaf_capacity=self.config.leaf_capacity,
                               internal_fanout=self.config.internal_fanout,
                               root_block=_root_block,
                               append_fn=self._append)
        self.update_seq = _update_seq
        self.doc_count = _doc_count
        self.stale_blocks = _stale_blocks
        self.telemetry = fs.telemetry
        if _stats is None:
            _stats = CouchStats()
            self.telemetry.collect("couch", COUCH_ROWS, _stats)
        self.stats = _stats
        # Fault instrumentation rides the device's plan: the commit and
        # compaction paths checkpoint so crash-consistency sweeps can cut
        # power at every engine-level step.
        self.faults = fs.ssd.faults
        # The resilience guard survives compaction (the new store inherits
        # it) so breaker state and fallback counts span the store's life.
        self.resilience = _resilience or ShareGuard(fs.ssd, engine="couch")
        self._last_obsoleted = 0
        self._live_snapshots = 0
        # Pending (uncommitted) state.
        self._pending_docs: Dict[Any, Optional[int]] = {}
        self._pending_tree: Dict[Any, Optional[Tuple[int, int]]] = {}
        # old doc block -> (new copy block, key).  The key rides along so
        # a failed SHARE can fall back to an index update for the entry.
        self._pending_shares: Dict[int, Tuple[int, Any]] = {}
        self._pending_stale = 0

    # -------------------------------------------------------------- reads

    def get(self, key: Any) -> Optional[Any]:
        """Return the latest committed-or-pending document body, or None."""
        if key in self._pending_docs:
            block = self._pending_docs[key]
        else:
            pointer = self.tree.get(key)
            block = pointer[0] if pointer is not None else None
        if block is None:
            return None
        record = self.file.pread_block(block)
        if (not isinstance(record, tuple) or not record
                or record[0] != DOC_TAG):
            raise EngineError(f"block {block} does not hold a document")
        return record[3]

    def _append(self, record: Any) -> int:
        """Append into preallocated space, fallocating ahead in chunks so
        metadata journaling happens once per chunk, not per block (real
        engines preallocate for exactly this reason)."""
        if self._append_cursor >= self.file.block_count:
            self.file.fallocate(self.file.block_count
                                + self.config.prealloc_blocks)
        block = self._append_cursor
        self.file.pwrite_block(block, record)
        self._append_cursor += 1
        return block

    def _read_doc(self, block: int) -> tuple:
        record = self.file.pread_block(block)
        if (not isinstance(record, tuple) or not record
                or record[0] != DOC_TAG):
            raise EngineError(f"block {block} does not hold a document")
        return record

    # ------------------------------------------------------------- writes

    def set(self, key: Any, body: Any) -> None:
        """Insert or update a document (durable at the next commit)."""
        self.update_seq += 1
        file = self.file
        new_block = self._append_cursor     # ``_append``, in line
        if new_block >= file.block_count:
            file.fallocate(file.block_count + self.config.prealloc_blocks)
        file.pwrite_block(new_block, (DOC_TAG, key, self.update_seq, body))
        self._append_cursor = new_block + 1
        self.stats.doc_blocks_written += 1
        # ``_current_pointer``, in line.
        old_pointer = (self._pending_tree[key] if key in self._pending_tree
                       else self.tree.get(key))
        if old_pointer is None:
            if self._pending_docs.get(key, "absent") is None:
                # Re-inserting a key deleted earlier in this batch.
                self._pending_shares.pop(self._share_dst_of(key), None)
            self._pending_tree[key] = (new_block, 1)
            self.doc_count += 1
        elif self.mode is CommitMode.SHARE and self._live_snapshots == 0:
            old_block, __ = old_pointer
            if old_block in self._pending_shares:
                # Two updates of one key in a batch: the earlier staged
                # copy is stranded.
                self._pending_stale += 1
            self._pending_shares[old_block] = (new_block, key)
            # The staged copy itself becomes stale once remapped.
            self._pending_stale += 1
        else:
            self._pending_tree[key] = (new_block, 1)
            self._pending_stale += 1  # old document
        self._pending_docs[key] = new_block

    def delete(self, key: Any) -> bool:
        """Remove a document (index change in both modes)."""
        pointer = self._current_pointer(key)
        if pointer is None:
            return False
        old_block, length = pointer
        self._pending_shares.pop(old_block, None)
        self._pending_tree[key] = None
        self._pending_docs[key] = None
        self._pending_stale += length
        self.doc_count -= 1
        self.update_seq += 1
        return True

    def _current_pointer(self, key: Any) -> Optional[Tuple[int, int]]:
        """Pointer as this batch sees it: the committed tree's unless the
        batch changed the index entry (a delete leaves None there; a
        SHARE-mode update leaves the pointer on disk unchanged)."""
        if key in self._pending_tree:
            return self._pending_tree[key]
        return self.tree.get(key)

    def _share_dst_of(self, key: Any) -> int:
        pointer = self.tree.get(key)
        return pointer[0] if pointer else -1

    # -------------------------------------------------------------- commit

    def commit(self) -> None:
        """Durability point for everything since the previous commit."""
        with self.telemetry.tracer.span(
                "couch.commit", mode=self.mode.value,
                tree_changed=bool(self._pending_tree),
                share_pairs=len(self._pending_shares)):
            self.faults.checkpoint("couch.commit_begin")
            if self._pending_shares:
                ranges = [(dst, src, 1)
                          for dst, (src, __)
                          in sorted(self._pending_shares.items())]
                try:
                    commands = self.resilience.share_file_ranges(
                        self.file, self.file, ranges)
                except ResilienceError:
                    # SHARE unavailable: serve the batch the ORIGINAL way —
                    # each staged copy becomes the document and the index
                    # is updated to point at it.  The new copies are
                    # already durable appends, so this is just more tree
                    # churn; the old documents go stale instead of the
                    # staged copies (same count, accounted below).
                    self.faults.checkpoint("couch.share_fallback")
                    self.resilience.record_fallback()
                    for __, (new_block, key) in sorted(
                            self._pending_shares.items()):
                        self._pending_tree[key] = (new_block, 1)
                else:
                    self.stats.share_commands += commands
                    self.stats.share_pairs += len(ranges)
                    self.faults.checkpoint("couch.after_share")
            if self._pending_tree:
                self.tree.apply_batch(dict(self._pending_tree))
                self.faults.checkpoint("couch.before_header")
                self._write_header()
            self.stale_blocks += self._pending_stale
            # Replaced index nodes are stale file blocks too (ORIGINAL
            # mode's wandering-tree churn; SHARE updates obsolete none).
            self.stale_blocks += self._tree_obsoleted_delta()
            self.file.fsync()
            self.faults.checkpoint("couch.commit_end")
        self._pending_docs.clear()
        self._pending_tree.clear()
        self._pending_shares.clear()
        self._pending_stale = 0
        self.stats.commits += 1

    def _tree_obsoleted_delta(self) -> int:
        delta = self.tree.nodes_obsoleted - self._last_obsoleted
        self._last_obsoleted = self.tree.nodes_obsoleted
        return delta

    def _write_header(self) -> None:
        self._append(header_record(
            self.tree.root_block, self.update_seq, self.doc_count,
            self.stale_blocks))
        self.stats.headers_written += 1
        self.stats.index_nodes_written = self.tree.nodes_written

    # ----------------------------------------------------------- triggers

    @property
    def data_blocks(self) -> int:
        """Blocks actually written (excludes preallocated headroom)."""
        return self._append_cursor

    @property
    def stale_ratio(self) -> float:
        """Fraction of the written file stranded by copy-on-write churn."""
        if self._append_cursor == 0:
            return 0.0
        return self.stale_blocks / self._append_cursor

    def needs_compaction(self) -> bool:
        return self.stale_ratio >= self.config.compaction_stale_ratio

    # ------------------------------------------------------------ iterate

    def items(self) -> Iterator[Tuple[Any, Any]]:
        """Committed (key, body) pairs in key order."""
        for key, (block, __) in self.tree.items():
            yield key, doc_body(self._read_doc(block))

    def scan(self, start_key: Any, count: int) -> List[Tuple[Any, Any]]:
        """Up to ``count`` committed (key, body) pairs with
        key >= start_key, in key order (YCSB workload E's operation).
        Pending (uncommitted) changes are not visible to scans."""
        out = []
        for key, (block, __) in self.tree.range_from(start_key, count):
            out.append((key, doc_body(self._read_doc(block))))
        return out

    def doc_pointers(self) -> List[Tuple[Any, Tuple[int, int]]]:
        """Committed (key, (block, length)) pairs — compaction's input."""
        return list(self.tree.items())

    # ----------------------------------------------------------- snapshots

    def snapshot(self, pin: bool = False) -> "CouchSnapshot":
        """A read-only view pinned to the current committed header.

        In ORIGINAL mode this is couchstore's cherished property: old
        headers keep working because nothing is ever overwritten, so a
        snapshot is a perfect point-in-time view.

        **Reproduction finding:** SHARE mode *weakens* this.  A document
        update remaps the old document block onto the new content, so a
        snapshot's tree — which still points at the old block — reads the
        NEW document version.  The snapshot stays consistent as a key set
        (inserts/deletes after the snapshot are invisible), but document
        *contents* are always the latest.  The paper does not discuss
        this trade; tests/test_couch_snapshots.py documents it.

        ``pin=True`` is the fix: while any pinned snapshot is live, SHARE
        mode falls back to ORIGINAL-style tree updates (no remapping over
        history), restoring exact point-in-time semantics at the cost of
        wandering-tree writes for the duration.  Call
        :meth:`CouchSnapshot.release` when done.
        """
        if pin:
            self._live_snapshots += 1
        return CouchSnapshot(self, self.tree.root_block, pinned=pin)

    def _release_snapshot(self) -> None:
        if self._live_snapshots <= 0:
            raise EngineError("no pinned snapshot to release")
        self._live_snapshots -= 1

    # ------------------------------------------------------------- reopen

    @classmethod
    def reopen(cls, fs: HostFs, path: str, mode: CommitMode,
               config: Optional[CouchConfig] = None) -> "CouchStore":
        """Restart after a crash: scan backwards for the newest header
        (Couchbase's original recovery, which SHARE leaves intact —
        Section 4.3).  Uncommitted appends after it are ignored."""
        handle = fs.open(path)
        end_cursor = None
        for block in range(handle.block_count - 1, -1, -1):
            lpn = handle.block_lpn(block)
            if not fs.ssd.ftl.is_mapped(lpn):
                continue  # fallocated but never written
            if end_cursor is None:
                end_cursor = block + 1
            record = handle.pread_block(block)
            if is_header(record):
                root, seq, count, stale = parse_header(record)
                return cls(fs, path, mode, config, _file=handle,
                           _root_block=root, _update_seq=seq,
                           _doc_count=count, _stale_blocks=stale,
                           _append_cursor=end_cursor)
        # No header: the file never committed; reopen empty.
        return cls(fs, path, mode, config, _file=handle,
                   _append_cursor=end_cursor or 0)


class CouchSnapshot:
    """Read-only view over a pinned tree root (see
    :meth:`CouchStore.snapshot` for the SHARE-mode caveat and the
    ``pin`` fix)."""

    def __init__(self, store: CouchStore, root_block: Optional[int],
                 pinned: bool = False) -> None:
        self._store = store
        self._pinned = pinned
        self._tree = AppendTree(store.file,
                                leaf_capacity=store.config.leaf_capacity,
                                internal_fanout=store.config.internal_fanout,
                                root_block=root_block)

    def release(self) -> None:
        """Release a pinned snapshot, letting SHARE-mode remapping resume."""
        if self._pinned:
            self._store._release_snapshot()
            self._pinned = False

    def __enter__(self) -> "CouchSnapshot":
        return self

    def __exit__(self, *exc) -> None:
        self.release()

    def get(self, key: Any) -> Optional[Any]:
        pointer = self._tree.get(key)
        if pointer is None:
            return None
        block, __ = pointer
        return doc_body(self._store._read_doc(block))

    def items(self) -> Iterator[Tuple[Any, Any]]:
        for key, (block, __) in self._tree.items():
            yield key, doc_body(self._store._read_doc(block))
