"""Couchstore compaction: the copy algorithm and the SHARE zero-copy
algorithm of Figure 3.

Both build a fresh database file and atomically switch over by rename;
the old file is unlinked afterwards (its extents are TRIMmed, which is
what finally releases the shared physical pages' old references).

* **Copy compaction** (original Couchbase): read every valid document
  from the old file, append it to the new file, bulk-build the index,
  write a header.
* **SHARE compaction**: ``fallocate`` the new file's document region,
  read only each valid document's *header block* (the length check the
  paper calls out as Table 2's residual cost), SHARE every document's
  blocks from the old file onto the new file's blocks, then bulk-build
  the index and write a header.  No document bytes are copied.

Crash mid-compaction: the partially built new file is deleted and the
whole compaction restarts (Section 4.3) — ``abandon_partial`` implements
the cleanup and tests exercise it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.couchstore.engine import CommitMode, CouchStore
from repro.couchstore.layout import doc_key, header_record
from repro.errors import IoctlError, ResilienceError
from repro.sim.clock import SimClock

#: The compacted file is built at the database path plus this suffix.
COMPACT_SUFFIX = ".compact"


@dataclass(frozen=True)
class CompactionResult:
    """Table 2's row: elapsed virtual time and written volume, plus the
    supporting detail."""

    mode: str
    elapsed_seconds: float
    written_bytes: int
    read_bytes: int
    docs_moved: int
    index_nodes_written: int
    share_commands: int

    @property
    def written_mib(self) -> float:
        return self.written_bytes / (1024.0 * 1024.0)


def compact(store: CouchStore,
            clock: SimClock) -> Tuple[CouchStore, CompactionResult]:
    """Compact ``store`` using its own mode's algorithm; returns the new
    store (same path, swapped in place) and the measurement."""
    telemetry = store.telemetry
    with telemetry.tracer.span("couch.compaction",
                               mode=store.mode.value) as span:
        if store.mode is CommitMode.SHARE:
            new_store, result = _compact_share(store, clock)
        else:
            new_store, result = _compact_copy(store, clock)
        span.set(docs_moved=result.docs_moved,
                 share_commands=result.share_commands,
                 index_nodes_written=result.index_nodes_written)
    stats = new_store.stats     # the database's, inherited from ``store``
    stats.compactions += 1
    stats.compaction_pages_moved += result.docs_moved
    stats.compaction_share_commands += result.share_commands
    stats.compaction_index_nodes += result.index_nodes_written
    return new_store, result


def abandon_partial(store: CouchStore) -> bool:
    """Post-crash cleanup: delete a leftover partial compaction file.
    Returns True when one existed."""
    partial = store.path + COMPACT_SUFFIX
    if store.fs.exists(partial):
        store.fs.unlink(partial)
        return True
    return False


def _measure_start(store: CouchStore, clock: SimClock):
    return clock.now_us, store.fs.ssd.stats.copy()


def _measure_end(store: CouchStore, clock: SimClock, start, mode: str,
                 docs: int, nodes: int, share_commands: int
                 ) -> CompactionResult:
    start_us, stats_before = start
    delta = store.fs.ssd.stats.delta_since(stats_before)
    return CompactionResult(
        mode=mode,
        elapsed_seconds=(clock.now_us - start_us) / 1e6,
        written_bytes=int(delta["host_write_pages"]) * store.fs.ssd.page_size,
        read_bytes=int(delta["host_read_pages"]) * store.fs.ssd.page_size,
        docs_moved=docs,
        index_nodes_written=nodes,
        share_commands=share_commands,
    )


def _swap_in(store: CouchStore, new_store: CouchStore, tmp_path: str) -> None:
    """Rename the compacted file over the database path (unlinking the old
    file and TRIMming its extents) and repoint the new store."""
    store.fs.rename(tmp_path, store.path)
    new_store.path = store.path


def _compact_copy(store: CouchStore, clock: SimClock
                  ) -> Tuple[CouchStore, CompactionResult]:
    faults = store.faults
    start = _measure_start(store, clock)
    tmp_path = store.path + COMPACT_SUFFIX
    new_store = CouchStore(store.fs, tmp_path, store.mode, store.config,
                           _update_seq=store.update_seq,
                           _doc_count=store.doc_count, _stale_blocks=0,
                           _resilience=store.resilience,
                           _stats=store.stats)
    faults.checkpoint("couch.compact_begin")
    new_file = new_store.file
    entries: List[Tuple] = []
    docs_moved = 0
    for key, (block, length) in store.doc_pointers():
        record = store._read_doc(block)
        new_block = new_store._append(record)
        entries.append((key, (new_block, length)))
        docs_moved += 1
    faults.checkpoint("couch.compact_index")
    nodes = new_store.tree.bulk_load(entries)
    faults.checkpoint("couch.compact_header")
    new_store._append(header_record(new_store.tree.root_block,
                                    new_store.update_seq,
                                    new_store.doc_count, 0))
    new_store.stats.headers_written += 1
    new_file.fsync()
    faults.checkpoint("couch.compact_switch")
    _swap_in(store, new_store, tmp_path)
    faults.checkpoint("couch.compact_end")
    result = _measure_end(store, clock, start, "copy", docs_moved, nodes, 0)
    return new_store, result


def _compact_share(store: CouchStore, clock: SimClock
                   ) -> Tuple[CouchStore, CompactionResult]:
    faults = store.faults
    start = _measure_start(store, clock)
    tmp_path = store.path + COMPACT_SUFFIX
    new_store = CouchStore(store.fs, tmp_path, store.mode, store.config,
                           _update_seq=store.update_seq,
                           _doc_count=store.doc_count, _stale_blocks=0,
                           _resilience=store.resilience,
                           _stats=store.stats)
    faults.checkpoint("couch.compact_begin")
    new_file = new_store.file
    pointers = store.doc_pointers()
    # Step 1 (Figure 3): reserve the new file's document region up front.
    total_doc_blocks = sum([length for __, (__, length) in pointers])
    if total_doc_blocks:
        new_file.fallocate(total_doc_blocks)
        new_store._append_cursor = total_doc_blocks
        faults.checkpoint("couch.compact_alloc")
    # Step 2: share each valid document into the new file.  Only the
    # document's header block is read, to learn its length — the residual
    # read cost Table 2 explains.
    entries: List[Tuple] = []
    ranges: List[Tuple[int, int, int]] = []
    cursor = 0
    docs_moved = 0
    for key, (block, length) in pointers:
        record = store._read_doc(block)           # the header-page read
        if doc_key(record) != key:
            raise RuntimeError(
                f"index points block {block} at key {key!r} but the "
                f"document header says {doc_key(record)!r}")
        ranges.append((cursor, block, length))
        entries.append((key, (cursor, length)))
        cursor += length
        docs_moved += 1
    # The tree's pointer list is done with: it must not stay alive
    # through the SHARE, the index build and the old file's TRIM.
    del pointers
    share_commands = 0
    if ranges:
        # The destination file blocks come from new_file; sources from the
        # old file, both resolved to LPNs by the share ioctl.
        faults.checkpoint("couch.compact_share")
        try:
            share_commands = store.resilience.share_file_ranges(
                new_file, store.file, ranges)
        except (ResilienceError, IoctlError):
            # SHARE unavailable (the guard gave up, or the ioctl found a
            # device without the command): abandon the zero-copy attempt
            # and run the original copy compaction.  The partial new file
            # holds only fallocated (never-written) blocks, so deleting it
            # is the same cleanup a crash would need — and the crash
            # checkpoints around it prove that window safe too.
            faults.checkpoint("couch.compact_fallback")
            store.resilience.record_fallback()
            store.fs.unlink(tmp_path)
            return _compact_copy(store, clock)
    # Step 3: rebuild the index over the new locations.  ``pointers`` came
    # from the tree in key order, so ``entries`` is already sorted.
    faults.checkpoint("couch.compact_index")
    nodes = new_store.tree.bulk_load(entries)
    # Neither list is needed again; the rename's TRIM of the old file
    # runs without them.
    del ranges, entries
    faults.checkpoint("couch.compact_header")
    new_store._append(header_record(new_store.tree.root_block,
                                    new_store.update_seq,
                                    new_store.doc_count, 0))
    new_store.stats.headers_written += 1
    new_file.fsync()
    faults.checkpoint("couch.compact_switch")
    _swap_in(store, new_store, tmp_path)
    faults.checkpoint("couch.compact_end")
    result = _measure_end(store, clock, start, "share", docs_moved, nodes,
                          share_commands)
    return new_store, result
