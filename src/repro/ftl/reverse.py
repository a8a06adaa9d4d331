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

A page that is not shared right now costs nothing beyond its primary
slot.  A shared page holds one dict, ``{extra LPN: in the table?}``, for
exactly as long as it has an extra reference.  When a primary leaves, the
lowest extra LPN is promoted in its place — the rule GC applies when it
stamps a copy with its lowest reference — and its entry frees.

When the share table is full, a new extra reference *spills*: it stays
resolvable from the flash-resident mapping log (every SHARE delta is
persisted there), so correctness is unaffected and only GC pays — a log
lookup read when it moves a page with spilled references.  The
reproduction counts spills so experiments can show what a table of the
paper's size costs.
"""

from __future__ import annotations

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
        # The extra references of each shared page: lpn -> True when the
        # entry holds a DRAM table slot, False when it spilled.  A spilled
        # entry remains resolvable (the mapping log persists every share
        # delta, so firmware can re-read it from flash); resolving it
        # costs a flash read instead of a DRAM lookup.
        self._extras: Dict[int, Dict[int, bool]] = {}
        self._in_table = 0
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
        return self._in_table

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

    def refs(self, ppn: int) -> Set[int]:
        """LPNs currently referencing ``ppn`` (possibly empty)."""
        primary = self.primary_of(ppn)
        if primary is None:
            return set()
        return {primary, *self._extras.get(ppn, ())}

    def is_valid(self, ppn: int) -> bool:
        """A physical page is valid while any LPN references it."""
        return self.primary_of(ppn) is not None

    def primary_of(self, ppn: int) -> Optional[int]:
        if 0 <= ppn < self._total_pages and self._primary[ppn] >= 0:
            return self._primary[ppn]
        return None

    def shared_pages(self) -> int:
        """Physical pages with more than one live reference."""
        return len(self._extras)

    def live_pages(self, start: int, stop: int
                   ) -> Tuple[List[int], List[int],
                              Dict[int, Tuple[List[int], bool]]]:
        """GC's one question about a victim block, answered in one call:
        the valid pages of ``[start, stop)`` in PPN order as two columns,
        their PPNs and their primary LPNs, and for each shared one
        ``ppn: (sorted referencing LPNs, has spilled refs)``.  A page
        that is not shared costs two list slots, no object of its own."""
        primaries = self._primary[start:stop]
        ppns = [ppn for ppn, lpn in enumerate(primaries, start) if lpn >= 0]
        lpns = [lpn for lpn in primaries if lpn >= 0]
        extras = self._extras
        shared = {ppn: (sorted([primaries[ppn - start], *extras[ppn]]),
                        not all(extras[ppn].values()))
                  for ppn in ppns if ppn in extras} if extras else {}
        return ppns, lpns, shared

    # ------------------------------------------------------------- updates

    def set_primary(self, ppn: int, lpn: int) -> None:
        """Record the spare-area stamp created when ``ppn`` was programmed
        for ``lpn``.  Clears any stale state from the page's previous life."""
        if self._primary[ppn] >= 0:
            self._forget_page(ppn)
        self._primary[ppn] = lpn

    def set_primary_run(self, ppn: int, lpns: range) -> None:
        """:meth:`set_primary` of ``ppn + i`` for ``lpns[i]`` over a run
        of freshly programmed pages, which must hold no references: one
        slice assignment."""
        primary = self._primary
        stop = ppn + len(lpns)
        if max(primary[ppn:stop]) >= 0:
            raise ValueError(f"a page of PPNs [{ppn}, {stop}) holds data")
        primary[ppn:stop] = lpns

    def add_extra(self, ppn: int, lpn: int) -> bool:
        """Add a SHARE-created reference.

        Returns True when the entry fit the DRAM table, False when it
        spilled to the flash-log-backed overflow (counted in
        :attr:`spill_adds`; correctness is unaffected either way) or
        ``lpn`` already referenced the page and nothing changed.  Raises
        :class:`ValueError` when ``ppn`` holds no data.
        """
        primary = self._primary[ppn]
        if lpn == primary:
            return False
        extras = self._extras
        if ppn in extras:
            entries = extras[ppn]
            if lpn in entries:
                return entries[lpn]
        elif primary < 0:
            raise ValueError(f"PPN {ppn} holds no data to share")
        else:
            entries = extras[ppn] = {}
        if self._in_table < self._capacity:
            entries[lpn] = True
            self._in_table += 1
            return True
        entries[lpn] = False
        self.spill_adds += 1
        self._spilled_count = count = self._spilled_count + 1
        if count > self._spilled_peak:
            self._spilled_peak = count
        return False

    def drop_ref(self, ppn: int, lpn: int) -> bool:
        """Remove ``lpn``'s reference to ``ppn`` (forward map moved away).

        Returns True when the page became invalid (no references left).
        """
        primary = self._primary
        extras = self._extras
        if ppn not in extras:
            # Not shared: the primary is the only reference.
            if primary[ppn] != lpn:
                return False
            primary[ppn] = -1
            return True
        entries = extras[ppn]
        if primary[ppn] == lpn:
            # The primary reference left: promote the lowest extra.  The
            # spare stamp is stale but the DRAM table now owns the page,
            # and GC will restamp it on the next copyback.
            lpn = primary[ppn] = min(entries)
        elif lpn not in entries:
            return False
        # Forget the entry of the extra that left or was promoted.
        if entries[lpn]:
            self._in_table -= 1
        else:
            self._spilled_count -= 1
        del entries[lpn]
        if not entries:
            del extras[ppn]
        return False

    def move_page(self, old_ppn: int, new_ppn: int,
                  refs: List[int]) -> None:
        """GC moved a valid page; transfer all references to ``new_ppn``,
        which must hold no data.

        ``refs`` is the page's sorted reference list, which the caller
        already holds (from :meth:`live_pages`, or ``sorted(refs(ppn))``).
        ``refs[0]`` becomes the spare-stamped owner of the copy; the
        others become extra entries at the new location (their count in
        the table is unchanged).
        """
        primary = self._primary
        extras = self._extras
        if primary[new_ppn] >= 0:
            raise ValueError(f"PPN {new_ppn} already holds data")
        if old_ppn not in extras:
            # Not shared: only the primary slot moves.  (The list
            # comparison comes first so the common case pays no call.)
            owner = (primary[old_ppn] if 0 <= old_ppn < self._total_pages
                     else -1)
            if owner < 0 or (refs != [owner] and set(refs) != {owner}):
                raise ValueError(
                    f"{refs} are not the references of PPN {old_ppn}")
            primary[old_ppn] = -1
            primary[new_ppn] = owner
            return
        if {primary[old_ppn], *extras[old_ppn]} != set(refs):
            raise ValueError(
                f"{refs} are not the references of PPN {old_ppn}")
        # Drop the old entries before placing the new ones: the table
        # fills first, so the spilled count cannot pass its peak.
        self._forget_page(old_ppn)
        primary[new_ppn] = refs[0]
        entries = extras[new_ppn] = {}
        for lpn in refs[1:]:
            self._place(entries, lpn)

    def move_run(self, old_ppns: List[int], new_ppn: int) -> None:
        """Move every reference of the valid pages ``old_ppns`` to
        ``new_ppn + i`` for each ``i``, a run of pages that hold no data:
        the effect of :meth:`move_page` with each page's sorted
        references, in order.  The run's emptiness and its sources'
        validity are checked once; a page that is not shared moves its
        primary slot by slice, a shared one goes through
        :meth:`move_page` in run order, so its extras are placed exactly
        as one move at a time would place them."""
        primary = self._primary
        count = len(old_ppns)
        stop = new_ppn + count
        if primary[new_ppn:stop] != [-1] * count:
            raise ValueError(f"a page of PPNs [{new_ppn}, {stop}) holds data")
        owners = [primary[old] for old in old_ppns]
        if -1 in owners:
            raise ValueError(f"a page of PPNs {old_ppns} holds no data")
        extras = self._extras
        if extras:
            for index, old in [(index, old) for index, old
                               in enumerate(old_ppns) if old in extras]:
                refs = sorted([owners[index], *extras[old]])
                self.move_page(old, new_ppn + index, refs)
                owners[index] = refs[0]
        for old in old_ppns:
            primary[old] = -1
        primary[new_ppn:stop] = owners

    def _place(self, entries: Dict[int, bool], lpn: int) -> None:
        """Give ``lpn`` a table slot if one is free, else spill it — a
        move or a reload, so neither :attr:`spill_adds` nor the peak."""
        if self._in_table < self._capacity:
            entries[lpn] = True
            self._in_table += 1
        else:
            entries[lpn] = False
            self._spilled_count += 1

    def _forget_page(self, ppn: int) -> None:
        self._primary[ppn] = -1
        for in_table in self._extras.pop(ppn, {}).values():
            if in_table:
                self._in_table -= 1
            else:
                self._spilled_count -= 1

    # ------------------------------------------------------------ recovery

    def rebuild(self, entries: Iterable[Tuple[int, int, bool]]) -> None:
        """Reload from recovery: ``entries`` yields (ppn, lpn, is_primary);
        extras are placed in entry order, table first."""
        self._primary = primary = [-1] * self._total_pages
        self._extras = extras = {}
        self._in_table = self._spilled_count = 0
        for ppn, lpn, is_primary in entries:
            if is_primary:
                primary[ppn] = lpn
            else:
                self._place(extras.setdefault(ppn, {}), lpn)
        self._spilled_peak = self._spilled_count

    # --------------------------------------------------------------- debug

    def check(self) -> None:
        """The bounded-refs invariant: every shared page is valid and its
        extras are not its primary, the counters agree with the entries,
        and the table is within its budget.  Raises
        :class:`AssertionError` on the first disagreement."""
        if self._in_table > self._capacity:
            raise AssertionError(
                f"share table over budget: {self._in_table} entries, "
                f"capacity {self._capacity}")
        for ppn, entries in self._extras.items():
            primary = self._primary[ppn]
            if not entries or primary < 0 or primary in entries:
                raise AssertionError(
                    f"PPN {ppn}: extras {sorted(entries)} beside primary "
                    f"{primary} (-1 = invalid page)")
        in_table = sum(sum(entries.values())
                       for entries in self._extras.values())
        spilled = sum(map(len, self._extras.values())) - in_table
        if (in_table, spilled) != (self._in_table, self._spilled_count):
            raise AssertionError(
                f"counters (table {self._in_table}, spilled "
                f"{self._spilled_count}) != entries (table {in_table}, "
                f"spilled {spilled})")
