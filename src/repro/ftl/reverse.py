"""Reverse (P2L) mapping and the bounded share table.

A page-mapping FTL normally needs exactly one reverse mapping per physical
page (stamped into the spare area at program time) so garbage collection
can find the owning LPN of each valid page.  SHARE breaks that 1:1
assumption: after ``share(LPN1, LPN2)`` the physical page of LPN2 is
referenced by *two* LPNs.  Section 4.2.1 solves this with an in-DRAM
reverse-mapping table holding the extra references, sized to a small fixed
budget (250 entries for 4 KiB pages, 500 for 8 KiB) traded against the I/O
cache.

This module tracks, per physical page, the full set of referencing LPNs:

* the *primary* reference — whichever LPN was stamped in the spare area at
  program time (free: it lives on the media),
* *extra* references created by SHARE — these consume share-table capacity.

When the share table is full, the FTL reconciles the oldest extra entry by
materialising a private copy of the page for that LPN (a real page program,
reported as a ``share_spill``), exactly the safety valve a bounded table
needs.  The reproduction counts spills so experiments can show the table is
effectively never exhausted under the paper's workloads.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterable, List, Optional, Set, Tuple


class ReverseMap:
    """Tracks LPN references per physical page with a bounded extra-entry
    budget.

    The structure maintains the invariant that ``refs(ppn)`` equals the set
    of LPNs whose forward mapping currently points at ``ppn``; the FTL calls
    :meth:`add_ref` / :meth:`drop_ref` around every forward-map change.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"share table capacity must be >= 1: {capacity}")
        self._capacity = capacity
        self._refs: Dict[int, Set[int]] = {}
        self._primary: Dict[int, int] = {}
        # Extra (share) entries in insertion order for FIFO reconciliation:
        # key (ppn, lpn) -> None.
        self._extras: "OrderedDict[Tuple[int, int], None]" = OrderedDict()
        # Entries that did not fit the DRAM table, indexed by PPN.  They
        # remain resolvable (the mapping log persists every share delta,
        # so firmware can re-read them from flash); membership here marks
        # that resolving them costs a flash read instead of a DRAM lookup.
        self._spilled: Dict[int, Set[int]] = {}
        self._spilled_count = 0
        self._spilled_peak = 0

    def _note_spill(self) -> None:
        self._spilled_count += 1
        if self._spilled_count > self._spilled_peak:
            self._spilled_peak = self._spilled_count

    # ---------------------------------------------------------------- refs

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def extra_entries(self) -> int:
        """DRAM share-table entries currently in use."""
        return len(self._extras)

    @property
    def spilled_entries(self) -> int:
        """Extra references currently resolvable only from the flash log."""
        return self._spilled_count

    @property
    def spilled_peak(self) -> int:
        """High-water mark of :attr:`spilled_entries` over the map's life
        (not reset by drops; :meth:`rebuild` restarts it for the new
        incarnation) — how far past its DRAM budget the share table ever
        went."""
        return self._spilled_peak

    @property
    def is_full(self) -> bool:
        return len(self._extras) >= self._capacity

    def refs(self, ppn: int) -> Set[int]:
        """LPNs currently referencing ``ppn`` (possibly empty)."""
        return set(self._refs.get(ppn, ()))

    def ref_count(self, ppn: int) -> int:
        return len(self._refs.get(ppn, ()))

    def is_valid(self, ppn: int) -> bool:
        """A physical page is valid while any LPN references it."""
        return bool(self._refs.get(ppn))

    def primary_of(self, ppn: int) -> Optional[int]:
        return self._primary.get(ppn)

    def live_pages(self, start: int, stop: int
                   ) -> List[Tuple[int, List[int], bool]]:
        """GC's one question about a victim block, answered in one call:
        ``(ppn, sorted referencing LPNs, has spilled refs)`` for every
        valid page in ``[start, stop)``, in PPN order."""
        refs = self._refs
        spilled = self._spilled
        return [(ppn, sorted(refs[ppn]), ppn in spilled)
                for ppn in range(start, stop) if ppn in refs]

    # ------------------------------------------------------------- updates

    def set_primary(self, ppn: int, lpn: int) -> None:
        """Record the spare-area stamp created when ``ppn`` was programmed
        for ``lpn``.  Clears any stale state from the page's previous life."""
        if ppn in self._refs or ppn in self._primary:
            self._forget_page(ppn)
        self._primary[ppn] = lpn
        self._refs[ppn] = {lpn}

    def add_extra(self, ppn: int, lpn: int) -> bool:
        """Add a SHARE-created reference.

        Returns True when the entry fit the DRAM table, False when it
        spilled to the flash-log-backed overflow (the caller accounts the
        spill cost; correctness is unaffected either way).
        """
        refs = self._refs.setdefault(ppn, set())
        if lpn in refs:
            return (ppn, lpn) in self._extras
        refs.add(lpn)
        if len(self._extras) < self._capacity:
            self._extras[(ppn, lpn)] = None
            return True
        self._spilled.setdefault(ppn, set()).add(lpn)
        self._note_spill()
        return False

    def is_spilled(self, ppn: int, lpn: int) -> bool:
        return lpn in self._spilled.get(ppn, ())

    def spilled_refs_of(self, ppn: int) -> Set[int]:
        """Extra references of ``ppn`` living in the overflow (GC must pay
        a flash-log read to learn them)."""
        return set(self._spilled.get(ppn, ()))

    def _drop_extra(self, ppn: int, lpn: int) -> None:
        """Forget the share-table (or overflow) entry of one non-primary
        reference; a primary reference holds neither, so callers skip it."""
        key = (ppn, lpn)
        if key in self._extras:
            del self._extras[key]
            return
        bucket = self._spilled.get(ppn)
        if bucket is not None and lpn in bucket:
            bucket.discard(lpn)
            if not bucket:
                del self._spilled[ppn]
            self._spilled_count -= 1

    def drop_ref(self, ppn: int, lpn: int) -> bool:
        """Remove ``lpn``'s reference to ``ppn`` (forward map moved away).

        Returns True when the page became invalid (no references left).
        """
        refs = self._refs.get(ppn)
        if refs is None or lpn not in refs:
            return False
        refs.discard(lpn)
        if self._primary.get(ppn) != lpn:
            self._drop_extra(ppn, lpn)
        elif refs:
            # The primary reference left: promote an extra to primary.
            # The spare stamp is stale but the DRAM table now owns the
            # page, and GC will restamp it on the next copyback.
            promoted = next(iter(refs))
            self._primary[ppn] = promoted
            self._drop_extra(ppn, promoted)
        if refs:
            return False
        del self._refs[ppn]
        self._primary.pop(ppn, None)
        return True

    def oldest_extra(self) -> Optional[Tuple[int, int]]:
        """The (ppn, lpn) share entry that would be reconciled on overflow."""
        if not self._extras:
            return None
        return next(iter(self._extras))

    def move_page(self, old_ppn: int, new_ppn: int,
                  refs: List[int]) -> None:
        """GC moved a valid page; transfer all references to ``new_ppn``.

        ``refs`` is the page's sorted reference list, which the caller
        already holds (from :meth:`live_pages` or ``sorted(refs(ppn))``).
        ``refs[0]`` becomes the spare-stamped owner of the copy; the
        others become extra entries at the new location (their count in
        the table is unchanged).
        """
        current = self._refs.get(old_ppn)
        if current is None or current != set(refs):
            raise ValueError(
                f"{refs} are not the references of PPN {old_ppn}")
        del self._refs[old_ppn]
        old_primary = self._primary.pop(old_ppn, None)
        new_primary = refs[0]
        self._primary[new_ppn] = new_primary
        # A fresh set built from the sorted list, not the old object: a
        # later promotion takes ``next(iter(...))`` of it, so its
        # iteration order is part of the device's behaviour.
        self._refs[new_ppn] = set(refs)
        if current == {old_primary}:
            return   # an unshared page: no table entries to move
        for lpn in refs:
            if lpn != old_primary:
                self._drop_extra(old_ppn, lpn)
        for lpn in refs:
            if lpn != new_primary:
                if len(self._extras) < self._capacity:
                    self._extras[(new_ppn, lpn)] = None
                else:
                    self._spilled.setdefault(new_ppn, set()).add(lpn)
                    self._note_spill()

    def _forget_page(self, ppn: int) -> None:
        refs = self._refs.pop(ppn, None)
        primary = self._primary.pop(ppn, None)
        for lpn in refs or ():
            if lpn != primary:
                self._drop_extra(ppn, lpn)

    # ------------------------------------------------------------ recovery

    def rebuild(self, entries: Iterable[Tuple[int, int, bool]]) -> None:
        """Reload from recovery: ``entries`` yields (ppn, lpn, is_primary)."""
        self._refs.clear()
        self._primary.clear()
        self._extras.clear()
        self._spilled.clear()
        self._spilled_count = 0
        self._spilled_peak = 0
        for ppn, lpn, is_primary in entries:
            refs = self._refs.setdefault(ppn, set())
            refs.add(lpn)
            if is_primary:
                self._primary[ppn] = lpn
            elif len(self._extras) < self._capacity:
                self._extras[(ppn, lpn)] = None
            else:
                self._spilled.setdefault(ppn, set()).add(lpn)
                self._note_spill()
