"""Forward (L2P) mapping strategies.

SHARE's whole value proposition lives in this table — a remap is a pure
L2P mutation instead of a data copy — so the backing is a pluggable
*strategy* rather than one hard-coded layout.  Every strategy implements
the same :class:`MappingStrategy` contract (lookup / update / clear /
bulk remap / iterate / footprint / snapshot); the FTL, recovery, and the
crash invariants are backing-agnostic.  Two backings ship:

* :class:`FlatListMap` (``"flat"``, the default) — a plain array of PPNs
  indexed by LPN, matching the page-mapping scheme of the OpenSSD
  firmware ("the entire forward mapping table is kept in DRAM", Section
  4.2.1).  O(1) everything, footprint proportional to the logical space
  whether mapped or not.  This is the fastest backing for the simulator
  and the bit-identical pre-refactor behaviour.
* :class:`DeltaCompressedMap` (``"delta"``) — hybrid delta encoding per
  *Page-Differential Logging*: each group stores one base anchor (the
  PPN the group's first mapping predicts for every offset) plus a
  sparse exception table for entries that diverge from the prediction.
  Sequential fills cost one anchor per group; divergent entries —
  including SHARE remaps, which by construction point elsewhere — each
  cost an exception record.

Flat is the one hot backing and delta is the compact one.  Run-based
layouts lose to the flat array on SHARE (EXPERIMENTS.md, "SHARE
fragments run-based compressed maps").

Hot-path contract (preserved from the single-strategy era): the
strategy's ``table`` attribute is the raw LPN-indexed list when the
backing is flat, and ``None`` otherwise.  The pagemap's pre-validated
per-page loops check ``table`` once and either index it directly or
fall back to the strategy's :meth:`~MappingStrategy.get` — one pointer
compare is all the indirection costs on the default path.  SHARE, TRIM
and a run of writes do not reach around: they make one
:meth:`~MappingStrategy.resolve_pairs` /
:meth:`~MappingStrategy.remap_pairs` /
:meth:`~MappingStrategy.clear_range` / :meth:`~MappingStrategy.update_run`
call per command (flat slices or indexes its list, the delta backing
loops inside).  Direct writers must
maintain the ``UNMAPPED`` sentinel discipline and use
:meth:`~MappingStrategy.update` / :meth:`~MappingStrategy.clear`
whenever the mapped count could change.

Footprints are *modeled* bytes (4-byte PPN entries as on the 32-bit
Barefoot controller), not Python object sizes: the lab compares what the
layouts would cost in device DRAM, which is the paper-relevant number.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

UNMAPPED = -1

#: Registered strategy names, in presentation order.
STRATEGY_NAMES = ("flat", "delta")

#: Modeled bytes per mapping entry (32-bit PPN).
ENTRY_BYTES = 4
#: Modeled bytes per delta exception record: (LPN, PPN).
DELTA_ENTRY_BYTES = 8


class MappingStrategy:
    """The L2P contract every backing implements.

    Bounds-checked host-facing methods (:meth:`lookup`, :meth:`update`,
    :meth:`clear`, :meth:`is_mapped`) raise ``ValueError`` outside
    ``[0, logical_pages)``; the pre-validated hot-path methods
    (:meth:`get`, :meth:`remap`, and the per-command :meth:`resolve_pairs`,
    :meth:`remap_pairs`, :meth:`clear_range`, :meth:`update_run`) skip
    the check — callers validated the range once.

    ``remap`` is semantically :meth:`update` but tells the backing the
    new PPN aliases an existing physical page (a SHARE): backings that
    exploit contiguity use it to count ``remap_splits`` — the number of
    exception entries created by remaps, i.e. the structural
    fragmentation cost of SHARE on that layout.
    """

    __slots__ = ()

    #: Strategy name (registry key); overridden per subclass.
    name = "abstract"
    #: Raw LPN-indexed list on the flat backing, None elsewhere — the
    #: pagemap's hot-loop fast lane.
    table: Optional[List[int]] = None

    # -- geometry ----------------------------------------------------------

    @property
    def logical_pages(self) -> int:
        raise NotImplementedError

    @property
    def mapped_count(self) -> int:
        """Number of LPNs currently holding a mapping."""
        raise NotImplementedError

    def _check_lpn(self, lpn: int) -> None:
        if not 0 <= lpn < self.logical_pages:
            raise ValueError(
                f"LPN out of range [0, {self.logical_pages}): {lpn}")

    # -- pre-validated hot path -------------------------------------------

    def get(self, lpn: int) -> int:
        """Raw lookup: the PPN or the ``UNMAPPED`` sentinel.  The caller
        has already bounds-checked ``lpn``."""
        raise NotImplementedError

    def resolve_pairs(self, pairs) -> List[Tuple[int, int, int]]:
        """Bulk SHARE resolve: ``(dst_lpn, old_dst_raw, src_raw)`` per
        pair, raw ``UNMAPPED`` sentinels included.  The batch was
        validated (bounds, duplicates, chains) before this call."""
        get = self.get
        return [(dst_lpn, get(dst_lpn), get(src_lpn))
                for dst_lpn, src_lpn in pairs]

    def remap(self, lpn: int, ppn: int) -> Optional[int]:
        """SHARE-flavoured :meth:`update` (pre-validated): same mapping
        semantics, but continuity breaks it causes are charged to
        ``remap_splits``."""
        return self.update(lpn, ppn)

    def remap_pairs(self, resolved) -> None:
        """Bulk SHARE apply: :meth:`remap` each ``dst_lpn`` of ``resolved``
        (from :meth:`resolve_pairs`) onto its source's PPN, in order."""
        for dst_lpn, __, src_ppn in resolved:
            self.remap(dst_lpn, src_ppn)

    def clear_range(self, lpn: int, count: int) -> List[int]:
        """Bulk TRIM: drop every mapping in ``[lpn, lpn + count)``; returns
        each LPN's previous raw entry, in LPN order (``UNMAPPED`` where it
        had none) — the shape :meth:`update_run` returns, and no object
        per LPN."""
        clear = self.clear
        return [UNMAPPED if (old := clear(current)) is None else old
                for current in range(lpn, lpn + count)]

    def update_run(self, lpn: int, ppns: List[int]) -> List[int]:
        """Bulk write: :meth:`update` ``lpn + i`` to ``ppns[i]``, in LPN
        order; returns each LPN's previous raw entry (``UNMAPPED`` where
        it had none).  The run lies inside the logical space."""
        update = self.update
        return [UNMAPPED if (old := update(current, ppn)) is None else old
                for current, ppn in enumerate(ppns, lpn)]

    # -- bounds-checked host API ------------------------------------------

    def lookup(self, lpn: int) -> Optional[int]:
        """Current PPN of ``lpn``, or None when unmapped."""
        self._check_lpn(lpn)
        ppn = self.get(lpn)
        return None if ppn == UNMAPPED else ppn

    def is_mapped(self, lpn: int) -> bool:
        self._check_lpn(lpn)
        return self.get(lpn) != UNMAPPED

    def update(self, lpn: int, ppn: int) -> Optional[int]:
        """Point ``lpn`` at ``ppn``; returns the previous PPN (or None)."""
        raise NotImplementedError

    def clear(self, lpn: int) -> Optional[int]:
        """Drop the mapping of ``lpn`` (TRIM); returns the previous PPN."""
        raise NotImplementedError

    # -- iteration / recovery ---------------------------------------------

    def mapped_lpns(self) -> Iterator[Tuple[int, int]]:
        """Iterate (lpn, ppn) over every live mapping in ascending LPN
        order — recovery, invariants, and debug use."""
        raise NotImplementedError

    def snapshot(self) -> List[Tuple[int, int]]:
        """The full mapping as a sorted list — the recovery-parity and
        strategy-agreement checks compare these across backings."""
        return list(self.mapped_lpns())

    # -- accounting --------------------------------------------------------

    @property
    def remap_splits(self) -> int:
        """Cumulative continuity breaks caused by SHARE remaps."""
        raise NotImplementedError

    def footprint_bytes(self) -> int:
        """Modeled DRAM cost of the current table state (O(1))."""
        raise NotImplementedError

    def fragment_count(self) -> int:
        """How many internal fragments the layout holds right now —
        1 for the flat array, exception entries for the delta map.
        Exported as the device's ``ftl.l2p.runs`` gauge."""
        raise NotImplementedError


class FlatListMap(MappingStrategy):
    """LPN -> PPN as one plain DRAM array: O(1) lookup and update.

    (An ``array('q')`` backing was measured and rejected: C-long boxing
    on every read made the hot loops slower than the plain list, and at
    simulated scale the footprint win is irrelevant — which is why the
    delta backing below models its byte costs instead of chasing
    Python-level savings.)
    """

    __slots__ = ("table", "_size", "_mapped_count")

    name = "flat"

    def __init__(self, logical_pages: int) -> None:
        if logical_pages <= 0:
            raise ValueError(f"logical_pages must be positive: {logical_pages}")
        self.table: List[int] = [UNMAPPED] * logical_pages
        # The table never changes length: bounds checks read this, not len().
        self._size = logical_pages
        self._mapped_count = 0

    @property
    def logical_pages(self) -> int:
        return self._size

    @property
    def mapped_count(self) -> int:
        return self._mapped_count

    def get(self, lpn: int) -> int:
        return self.table[lpn]

    def resolve_pairs(self, pairs) -> List[Tuple[int, int, int]]:
        table = self.table
        return [(dst_lpn, table[dst_lpn], table[src_lpn])
                for dst_lpn, src_lpn in pairs]

    def remap_pairs(self, resolved) -> None:
        table = self.table
        for dst_lpn, __, src_ppn in resolved:
            if table[dst_lpn] == UNMAPPED:
                self._mapped_count += 1
            table[dst_lpn] = src_ppn

    def clear_range(self, lpn: int, count: int) -> List[int]:
        table = self.table
        stop = lpn + count
        olds = table[lpn:stop]
        table[lpn:stop] = [UNMAPPED] * count
        self._mapped_count -= count - olds.count(UNMAPPED)
        return olds

    def update_run(self, lpn: int, ppns: List[int]) -> List[int]:
        table = self.table
        stop = lpn + len(ppns)
        olds = table[lpn:stop]
        table[lpn:stop] = ppns
        self._mapped_count += olds.count(UNMAPPED)
        return olds

    def lookup(self, lpn: int) -> Optional[int]:
        if not 0 <= lpn < self._size:
            raise ValueError(f"LPN out of range [0, {self._size}): {lpn}")
        ppn = self.table[lpn]
        return None if ppn == UNMAPPED else ppn

    def is_mapped(self, lpn: int) -> bool:
        if not 0 <= lpn < self._size:
            raise ValueError(f"LPN out of range [0, {self._size}): {lpn}")
        return self.table[lpn] != UNMAPPED

    def update(self, lpn: int, ppn: int) -> Optional[int]:
        if not 0 <= lpn < self._size:
            raise ValueError(f"LPN out of range [0, {self._size}): {lpn}")
        if ppn < 0:
            raise ValueError(f"PPN must be non-negative: {ppn}")
        old = self.table[lpn]
        if old == UNMAPPED:
            self._mapped_count += 1
            self.table[lpn] = ppn
            return None
        self.table[lpn] = ppn
        return old

    def clear(self, lpn: int) -> Optional[int]:
        if not 0 <= lpn < self._size:
            raise ValueError(f"LPN out of range [0, {self._size}): {lpn}")
        old = self.table[lpn]
        if old != UNMAPPED:
            self._mapped_count -= 1
            self.table[lpn] = UNMAPPED
            return old
        return None

    def mapped_lpns(self) -> Iterator[Tuple[int, int]]:
        for lpn, ppn in enumerate(self.table):
            if ppn != UNMAPPED:
                yield lpn, ppn

    @property
    def remap_splits(self) -> int:
        return 0   # a flat array has no continuity to break

    def footprint_bytes(self) -> int:
        return self._size * ENTRY_BYTES

    def fragment_count(self) -> int:
        return 1


class DeltaCompressedMap(MappingStrategy):
    """Hybrid delta encoding per *Page-Differential Logging*.

    Each ``group_pages``-sized region stores one *anchor*: the PPN its
    first mapping predicts for offset 0.  An entry whose PPN equals
    ``anchor + offset`` is free — only a presence bit; an entry that
    diverges pays an exception record in the sparse delta table.
    Sequential fills (the common couchstore/InnoDB flush shape) cost one
    anchor per group; SHARE remaps, whose whole point is to alias a page
    that lives elsewhere, each cost an exception — counted as remap
    splits."""

    __slots__ = ("_logical_pages", "_group_pages", "_mapped", "_anchors",
                 "_live", "_deltas", "_mapped_count", "_remap_splits")

    name = "delta"

    def __init__(self, logical_pages: int, group_pages: int = 64) -> None:
        if logical_pages <= 0:
            raise ValueError(f"logical_pages must be positive: {logical_pages}")
        if group_pages < 1:
            raise ValueError(f"group_pages must be >= 1: {group_pages}")
        self._logical_pages = logical_pages
        self._group_pages = group_pages
        group_count = -(-logical_pages // group_pages)
        self._mapped = bytearray(logical_pages)
        self._anchors: List[Optional[int]] = [None] * group_count
        self._live = [0] * group_count
        self._deltas: Dict[int, int] = {}
        self._mapped_count = 0
        self._remap_splits = 0

    @property
    def logical_pages(self) -> int:
        return self._logical_pages

    @property
    def mapped_count(self) -> int:
        return self._mapped_count

    @property
    def group_pages(self) -> int:
        return self._group_pages

    def get(self, lpn: int) -> int:
        if not self._mapped[lpn]:
            return UNMAPPED
        ppn = self._deltas.get(lpn)
        if ppn is not None:
            return ppn
        group_pages = self._group_pages
        return (self._anchors[lpn // group_pages]   # type: ignore[operator]
                + lpn % group_pages)

    def _set(self, lpn: int, ppn: int) -> Tuple[Optional[int], bool]:
        """Write one entry; returns (old-or-None, created-exception)."""
        group_pages = self._group_pages
        index = lpn // group_pages
        offset = lpn % group_pages
        was_mapped = bool(self._mapped[lpn])
        old: Optional[int] = self.get(lpn) if was_mapped else None
        anchor = self._anchors[index]
        if anchor is None:
            # First live entry of the group sets the prediction base.
            anchor = self._anchors[index] = ppn - offset
        if anchor + offset == ppn:
            self._deltas.pop(lpn, None)
            created = False
        else:
            created = lpn not in self._deltas
            self._deltas[lpn] = ppn
        if not was_mapped:
            self._mapped[lpn] = 1
            self._live[index] += 1
            self._mapped_count += 1
            return None, created
        return old, created

    def update(self, lpn: int, ppn: int) -> Optional[int]:
        self._check_lpn(lpn)
        if ppn < 0:
            raise ValueError(f"PPN must be non-negative: {ppn}")
        return self._set(lpn, ppn)[0]

    def remap(self, lpn: int, ppn: int) -> Optional[int]:
        old, created = self._set(lpn, ppn)
        if created:
            # The remap diverges from the group's prediction — the
            # delta layout's SHARE fragmentation cost.
            self._remap_splits += 1
        return old

    def clear(self, lpn: int) -> Optional[int]:
        self._check_lpn(lpn)
        if not self._mapped[lpn]:
            return None
        old = self.get(lpn)
        self._mapped[lpn] = 0
        self._deltas.pop(lpn, None)
        index = lpn // self._group_pages
        self._live[index] -= 1
        self._mapped_count -= 1
        if self._live[index] == 0:
            self._anchors[index] = None   # group empty: drop the anchor
        return old

    def mapped_lpns(self) -> Iterator[Tuple[int, int]]:
        mapped = self._mapped
        get = self.get
        for lpn in range(self._logical_pages):
            if mapped[lpn]:
                yield lpn, get(lpn)

    @property
    def remap_splits(self) -> int:
        return self._remap_splits

    def footprint_bytes(self) -> int:
        return (len(self._mapped) // 8 + 1          # presence bitmap
                + len(self._anchors) * ENTRY_BYTES  # group anchors
                + len(self._deltas) * DELTA_ENTRY_BYTES)

    def fragment_count(self) -> int:
        return len(self._deltas)


#: Registry: strategy name -> class.
STRATEGIES = {
    FlatListMap.name: FlatListMap,
    DeltaCompressedMap.name: DeltaCompressedMap,
}
assert tuple(STRATEGIES) == STRATEGY_NAMES


def create_strategy(name: str, logical_pages: int,
                    group_pages: int = 64) -> MappingStrategy:
    """Instantiate the named L2P backing."""
    try:
        cls = STRATEGIES[name]
    except KeyError:
        raise ValueError(
            f"unknown L2P strategy {name!r}; pick from "
            f"{', '.join(STRATEGY_NAMES)}") from None
    if cls is DeltaCompressedMap:
        return cls(logical_pages, group_pages=group_pages)
    return cls(logical_pages)

