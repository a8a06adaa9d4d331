"""Reverse (P2L) mapping and the bounded share table.

A page-mapping FTL normally needs exactly one reverse mapping per physical
page (stamped into the spare area at program time) so garbage collection
can find the owning LPN of each valid page.  SHARE breaks that 1:1
assumption: after ``share(LPN1, LPN2)`` the physical page of LPN2 is
referenced by *two* LPNs.  Section 4.2.1 solves this with an in-DRAM
reverse-mapping table holding the extra references, sized to a small fixed
budget (250 entries for 4 KiB pages, 500 for 8 KiB) traded against the I/O
cache.

This module keeps the same split.  Every valid physical page has

* a *primary* reference — whichever LPN was stamped in the spare area at
  program time (free: it lives on the media; here one slot of a flat
  PPN-indexed list), and possibly
* *extra* references created by SHARE — these consume share-table capacity.

A page that has never been shared costs nothing beyond its primary slot.
The set of *all* its referencing LPNs is created, as ``{primary, extra}``,
when the page gets its first extra reference, and is then kept for the
rest of that page's life — until its last reference leaves, it is
reprogrammed, or GC moves it (the copy gets a fresh set built from the
sorted references, or none if only one is left) — even if it shrinks back
to one LPN.  That lifetime is behaviour, not housekeeping: when a primary
leaves, the extra promoted in its place is ``next(iter(set))``, a set's
iteration order depends on every insert and discard it has seen, and which
extra is promoted decides which share-table slot frees, hence later
spills, spill lookups and virtual time.  Seeding the set with the primary
first and never rebuilding it mid-life gives it exactly the history of a
set kept since program time.

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
    :meth:`set_primary` / :meth:`add_extra` / :meth:`drop_ref` /
    :meth:`move_page` around every forward-map change.  PPNs index a list
    of ``total_pages`` slots; LPNs are non-negative.
    """

    def __init__(self, capacity: int, total_pages: int) -> None:
        if capacity < 1:
            raise ValueError(f"share table capacity must be >= 1: {capacity}")
        self._capacity = capacity
        self._total_pages = total_pages
        # The spare-stamped owner of each physical page, -1 = none.
        self._primary: List[int] = [-1] * total_pages
        # Full reference sets, only for pages that have had an extra
        # reference in their current life (see the module docstring).
        self._refs: Dict[int, Set[int]] = {}
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
        #: References :meth:`add_extra` ever put in the overflow (never
        #: decremented): its growth over a SHARE is the command's log spills.
        self.spill_adds = 0

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
        if ppn in self._refs:
            return set(self._refs[ppn])
        lpn = self.primary_of(ppn)
        return set() if lpn is None else {lpn}

    def ref_count(self, ppn: int) -> int:
        if ppn in self._refs:
            return len(self._refs[ppn])
        return 0 if self.primary_of(ppn) is None else 1

    def is_valid(self, ppn: int) -> bool:
        """A physical page is valid while any LPN references it."""
        return ppn in self._refs or self.primary_of(ppn) is not None

    def primary_of(self, ppn: int) -> Optional[int]:
        if 0 <= ppn < self._total_pages and self._primary[ppn] >= 0:
            return self._primary[ppn]
        return None

    def shared_pages(self) -> int:
        """Physical pages with more than one live reference."""
        return sum(1 for refs in self._refs.values() if len(refs) > 1)

    def live_pages(self, start: int, stop: int
                   ) -> List[Tuple[int, List[int], bool]]:
        """GC's one question about a victim block, answered in one call:
        ``(ppn, sorted referencing LPNs, has spilled refs)`` for every
        valid page in ``[start, stop)``, in PPN order."""
        refs = self._refs
        spilled = self._spilled
        return [(ppn, sorted(refs[ppn]), ppn in spilled) if ppn in refs
                else (ppn, [lpn], False)
                for ppn, lpn in enumerate(self._primary[start:stop], start)
                if lpn >= 0 or ppn in refs]

    # ------------------------------------------------------------- updates

    def set_primary(self, ppn: int, lpn: int) -> None:
        """Record the spare-area stamp created when ``ppn`` was programmed
        for ``lpn``.  Clears any stale state from the page's previous life."""
        if self._primary[ppn] >= 0 or ppn in self._refs:
            self._forget_page(ppn)
        self._primary[ppn] = lpn

    def add_extra(self, ppn: int, lpn: int) -> bool:
        """Add a SHARE-created reference.

        Returns True when the entry fit the DRAM table, False when it
        spilled to the flash-log-backed overflow (counted in
        :attr:`spill_adds`; correctness is unaffected either way) or
        ``lpn`` already referenced the page and nothing changed.
        """
        if ppn in self._refs:
            refs = self._refs[ppn]
            if lpn in refs:
                return (ppn, lpn) in self._extras
            refs.add(lpn)
        else:
            primary = self._primary[ppn]
            if lpn == primary:
                return False
            self._refs[ppn] = {primary, lpn} if primary >= 0 else {lpn}
        if len(self._extras) < self._capacity:
            self._extras[(ppn, lpn)] = None
            return True
        spilled = self._spilled
        if ppn in spilled:
            spilled[ppn].add(lpn)
        else:
            spilled[ppn] = {lpn}
        self.spill_adds += 1
        self._spilled_count = count = self._spilled_count + 1
        if count > self._spilled_peak:
            self._spilled_peak = count
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
        primary = self._primary
        if ppn not in self._refs:
            # Never shared in this life: the primary is the only reference.
            if primary[ppn] != lpn:
                return False
            primary[ppn] = -1
            return True
        refs = self._refs[ppn]
        if lpn not in refs:
            return False
        refs.discard(lpn)
        if primary[ppn] == lpn:
            if not refs:
                del self._refs[ppn]
                primary[ppn] = -1
                return True
            # The primary reference left: promote an extra to primary.
            # The spare stamp is stale but the DRAM table now owns the
            # page, and GC will restamp it on the next copyback.
            lpn = primary[ppn] = next(iter(refs))
        # Forget the entry of the extra that left or was promoted
        # (:meth:`_drop_extra`, inline: this runs per remapped pair).
        key = (ppn, lpn)
        if key in self._extras:
            del self._extras[key]
        elif ppn in self._spilled:
            bucket = self._spilled[ppn]
            if lpn in bucket:
                bucket.discard(lpn)
                if not bucket:
                    del self._spilled[ppn]
                self._spilled_count -= 1
        if refs:
            return False
        del self._refs[ppn]
        primary[ppn] = -1
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
        primary = self._primary
        if old_ppn not in self._refs:
            # Never shared: only the primary slot moves.  (The list
            # comparison comes first so the common case pays no call.)
            owner = (primary[old_ppn] if 0 <= old_ppn < self._total_pages
                     else -1)
            if owner < 0 or (refs != [owner] and set(refs) != {owner}):
                raise ValueError(
                    f"{refs} are not the references of PPN {old_ppn}")
            primary[old_ppn] = -1
            primary[new_ppn] = owner
            return
        if self._refs[old_ppn] != set(refs):
            raise ValueError(
                f"{refs} are not the references of PPN {old_ppn}")
        del self._refs[old_ppn]
        old_primary = primary[old_ppn]
        new_primary = refs[0]
        primary[old_ppn] = -1
        primary[new_ppn] = new_primary
        if len(refs) > 1:
            # Fresh from the sorted list, never the old object.
            self._refs[new_ppn] = set(refs)
        for lpn in refs:
            if lpn != old_primary:
                self._drop_extra(old_ppn, lpn)
        for lpn in refs:
            if lpn != new_primary:
                if len(self._extras) < self._capacity:
                    self._extras[(new_ppn, lpn)] = None
                else:
                    # As many entries were just dropped as are placed, the
                    # table fills first: the count cannot pass its peak.
                    self._spilled.setdefault(new_ppn, set()).add(lpn)
                    self._spilled_count += 1

    def _forget_page(self, ppn: int) -> None:
        refs = self._refs.pop(ppn, None)
        primary = self._primary[ppn]
        self._primary[ppn] = -1
        for lpn in refs or ():
            if lpn != primary:
                self._drop_extra(ppn, lpn)

    # ------------------------------------------------------------ recovery

    def rebuild(self, entries: Iterable[Tuple[int, int, bool]]) -> None:
        """Reload from recovery: ``entries`` yields (ppn, lpn, is_primary)."""
        self._primary = primary = [-1] * self._total_pages
        self._extras.clear()
        self._spilled.clear()
        self._spilled_count = 0
        # Every page's set is built in entry order, as if it had existed
        # since program time; only then are the never-shared ones dropped.
        refs_by_ppn: Dict[int, Set[int]] = {}
        for ppn, lpn, is_primary in entries:
            refs_by_ppn.setdefault(ppn, set()).add(lpn)
            if is_primary:
                primary[ppn] = lpn
            elif len(self._extras) < self._capacity:
                self._extras[(ppn, lpn)] = None
            else:
                self._spilled.setdefault(ppn, set()).add(lpn)
                self._spilled_count += 1
        self._spilled_peak = self._spilled_count
        self._refs = {ppn: refs for ppn, refs in refs_by_ppn.items()
                      if refs != {primary[ppn]}}

    # --------------------------------------------------------------- debug

    def check(self) -> None:
        """The bounded-refs invariant: the kept sets, the primary slots,
        the DRAM share table and the spill buckets describe the same
        references, and the table is within its budget.  Raises
        :class:`AssertionError` on the first disagreement."""
        if len(self._extras) > self._capacity:
            raise AssertionError(
                f"share table over budget: {len(self._extras)} entries, "
                f"capacity {self._capacity}")
        in_dram: Dict[int, Set[int]] = {}
        for ppn, lpn in self._extras:
            in_dram.setdefault(ppn, set()).add(lpn)
        spilled_total = sum(len(bucket) for bucket in self._spilled.values())
        if spilled_total != self._spilled_count:
            raise AssertionError(
                f"spilled_entries {self._spilled_count} != {spilled_total} "
                f"entries in the spill buckets")
        for ppn in in_dram.keys() | self._spilled.keys():
            if ppn not in self._refs:
                raise AssertionError(
                    f"PPN {ppn} has share-table or spill entries but no "
                    f"reference set")
        for ppn, refs in self._refs.items():
            primary = self._primary[ppn]
            if primary not in refs:
                raise AssertionError(
                    f"reference set {sorted(refs)} of PPN {ppn} does not "
                    f"contain its primary ({primary}; -1 = invalid page)")
            dram = in_dram.get(ppn, set())
            spilled = self._spilled.get(ppn, set())
            if dram & spilled or refs - {primary} != dram | spilled:
                raise AssertionError(
                    f"PPN {ppn}: extras {sorted(refs - {primary})} != "
                    f"table {sorted(dram)} + spilled {sorted(spilled)}")
