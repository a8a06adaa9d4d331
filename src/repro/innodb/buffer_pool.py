"""LRU buffer pool.

Pages live in frames; a miss reads from the tablespace file, an eviction
of a dirty victim triggers a flush batch through the engine's doublewrite
pipeline (the callback the engine installs).  The paper's
``buffer_flush_neighbors = off`` behaviour is the default and only mode:
each flush batch contains exactly the dirty pages chosen from the LRU tail,
never their neighbours.

The order of touches (hit -> move to MRU), evictions and flush batches
decides which device commands the engine issues, and those decide every
virtual-time result, so ``fetch`` and ``put`` may shed calls around a
touch but never the touch (``tests/test_innodb_pool_oracle.py`` holds
them to the previous implementation).  ``dirty_count`` is a plain
attribute maintained at every dirty-bit transition: the engine's
adaptive-flushing check reads it once per transaction commit.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, List, Optional

from repro.errors import EngineError
from repro.innodb.page import Page


class Frame:
    """One buffer-pool slot."""

    __slots__ = ("page", "dirty")

    def __init__(self, page: Page, dirty: bool = False) -> None:
        self.page = page
        self.dirty = dirty

    def __repr__(self) -> str:
        return f"Frame(page={self.page!r}, dirty={self.dirty})"


class BufferPool:
    """Fixed-capacity LRU cache of pages keyed by page id.

    ``fetch`` is the only read path; ``put`` installs or updates a page
    and marks it dirty.  When the pool is full, the least-recently-used
    frame is evicted; a dirty victim is first handed to ``flush_callback``
    together with the other cold dirty pages so the engine can push the
    batch through the mode-specific flush pipeline.
    """

    def __init__(self, capacity_pages: int,
                 read_page: Callable[[int], Page],
                 flush_callback: Callable[[List[Page]], None],
                 flush_batch_pages: int = 64) -> None:
        if capacity_pages < 8:
            raise ValueError(
                f"buffer pool needs at least 8 pages: {capacity_pages}")
        if flush_batch_pages < 1:
            raise ValueError(
                f"flush batch must be >= 1 page: {flush_batch_pages}")
        self.capacity_pages = capacity_pages
        self.flush_batch_pages = flush_batch_pages
        self._read_page = read_page
        self._flush = flush_callback
        self._frames: "OrderedDict[int, Frame]" = OrderedDict()
        self.dirty_count = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # -------------------------------------------------------------- access

    def __len__(self) -> int:
        return len(self._frames)

    def fetch(self, page_id: int) -> Page:
        """Return the page, reading it from storage on a miss."""
        frames = self._frames
        try:
            frame = frames[page_id]
        except KeyError:
            pass
        else:
            frames.move_to_end(page_id)
            self.hits += 1
            return frame.page
        self.misses += 1
        # Storage first, room second: the device sees the read before
        # any flush the eviction triggers.
        page = self._read_page(page_id)
        if page.__class__ is not Page or page.page_id != page_id:
            raise EngineError(
                f"storage returned {page!r} for page id {page_id}")
        self._admit(page, False)
        return page

    def put(self, page: Page) -> None:
        """Install a (new or modified) page and mark it dirty."""
        frames = self._frames
        page_id = page.page_id
        try:
            frame = frames[page_id]
        except KeyError:
            self._admit(page, True)
            self.dirty_count += 1
            return
        frame.page = page
        if not frame.dirty:
            frame.dirty = True
            self.dirty_count += 1
        frames.move_to_end(page_id)

    # ------------------------------------------------------------ eviction

    def _admit(self, page: Page, dirty: bool) -> None:
        """Install a page that is not resident, at the MRU end.

        A full pool first drops its LRU victim and reuses the frame.  A
        dirty victim goes out with the cold dirty batch, so the write
        happens in doublewrite-sized groups (as InnoDB's page cleaner
        does); the batch starts at the first dirty frame, which is the
        victim, so a victim still dirty afterwards means the flush
        callback lost it."""
        frames = self._frames
        if len(frames) < self.capacity_pages:
            frames[page.page_id] = Frame(page, dirty)
            return
        for victim_id in frames:        # peek the LRU head
            break
        frame = frames[victim_id]
        if frame.dirty:
            self.flush_some()
            if frame.dirty:
                raise EngineError(
                    f"dirty page dropped unflushed: {victim_id}")
        frames.popitem(last=False)
        self.evictions += 1
        frame.page = page
        frame.dirty = dirty
        frames[page.page_id] = frame

    # ------------------------------------------------------------ flushing

    def flush_some(self, max_pages: Optional[int] = None) -> int:
        """Flush up to ``max_pages`` (default: one flush batch) dirty
        pages from the cold end; returns how many were flushed.  The
        adaptive-flushing entry point, and what an eviction runs when
        its victim is dirty."""
        frames = self._frames
        room = max_pages if max_pages is not None else self.flush_batch_pages
        batch: List[Page] = []
        for frame in frames.values():
            if frame.dirty:
                batch.append(frame.page)
                room -= 1
                if room <= 0:
                    break
        if not batch:
            return 0
        self._flush(batch)
        for page in batch:
            frame = frames.get(page.page_id)
            if frame is not None and frame.page is page and frame.dirty:
                frame.dirty = False
                self.dirty_count -= 1
        return len(batch)

    def flush_all(self) -> int:
        """Checkpoint: flush every dirty page (in batches)."""
        total = 0
        while True:
            flushed = self.flush_some(self.flush_batch_pages)
            if flushed == 0:
                return total
            total += flushed

