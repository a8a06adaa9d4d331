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
slot.  A shared page holds one small tuple of its extra LPNs, ascending,
for exactly as long as it has an extra reference.  When a primary leaves,
the lowest extra LPN is promoted in its place — the rule GC applies when
it stamps a copy with its lowest reference — and its entry frees.

The share table itself is one container of ``(ppn, lpn)`` entries that
never holds more than ``capacity`` of them.  When it is full, a new extra
reference *spills*: it stays resolvable from the flash-resident mapping
log (every SHARE delta is persisted there), so correctness is unaffected
and only GC pays — a log lookup read when it moves a page with spilled
references.  The reproduction counts spills so experiments can show what
a table of the paper's size costs.
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
        # The extra references of each shared page, ascending.
        self._extras: Dict[int, Tuple[int, ...]] = {}
        # The DRAM share table: one (ppn, lpn) key per extra reference
        # holding a slot, never more than ``capacity``.  An extra that is
        # not here spilled: it remains resolvable (the mapping log
        # persists every share delta, so firmware can re-read it from
        # flash), but resolving it costs a flash read instead of a DRAM
        # lookup.  The two counters below are kept in step with it and
        # with ``_extras`` (:meth:`check` verifies both).
        self._table: Dict[Tuple[int, int], None] = {}
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
        table = self._table
        shared = {ppn: (sorted([primaries[ppn - start], *extras[ppn]]),
                        [lpn for lpn in extras[ppn]
                         if (ppn, lpn) not in table] != [])
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
            # Keep the tuple ascending; a page shared once more only
            # pays a call when the new LPN lands between two extras.
            entries = extras[ppn]
            if lpn in entries:
                return (ppn, lpn) in self._table
            if lpn > entries[-1]:
                extras[ppn] = entries + (lpn,)
            elif lpn < entries[0]:
                extras[ppn] = (lpn,) + entries
            else:
                extras[ppn] = tuple(sorted(entries + (lpn,)))
        elif primary < 0:
            raise ValueError(f"PPN {ppn} holds no data to share")
        else:
            extras[ppn] = (lpn,)
        if self._in_table < self._capacity:
            self._table[(ppn, lpn)] = None
            self._in_table += 1
            return True
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
            lpn = primary[ppn] = entries[0]
        elif lpn not in entries:
            return False
        # Forget the entry of the extra that left or was promoted.
        if entries[0] == lpn:
            entries = entries[1:]
        else:
            entries = tuple([extra for extra in entries if extra != lpn])
        if entries:
            extras[ppn] = entries
        else:
            del extras[ppn]
        key = (ppn, lpn)
        if key in self._table:
            del self._table[key]
            self._in_table -= 1
        else:
            self._spilled_count -= 1
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
        if {primary[old_ppn], *extras[old_ppn]} != {*refs}:
            raise ValueError(
                f"{refs} are not the references of PPN {old_ppn}")
        # Drop the old entries before placing the new ones: the table
        # fills first, so the spilled count cannot pass its peak.
        self._forget_page(old_ppn)
        owner = primary[new_ppn] = refs[0]
        entries = extras[new_ppn] = tuple(sorted({*refs} - {owner}))
        # Free slots go to the extras in ``refs`` order.
        table = self._table
        room = free = self._capacity - self._in_table
        for lpn in refs:
            if room and lpn != owner and (new_ppn, lpn) not in table:
                table[(new_ppn, lpn)] = None
                room -= 1
        self._in_table += free - room
        self._spilled_count += len(entries) - (free - room)

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

    def _forget_page(self, ppn: int) -> None:
        self._primary[ppn] = -1
        table = self._table
        for lpn in self._extras.pop(ppn, ()):
            key = (ppn, lpn)
            if key in table:
                del table[key]
                self._in_table -= 1
            else:
                self._spilled_count -= 1

    # ------------------------------------------------------------ recovery

    def rebuild(self, entries: Iterable[Tuple[int, int, bool]]) -> None:
        """Reload from recovery: ``entries`` yields (ppn, lpn, is_primary);
        extras take table slots in entry order, the rest spill."""
        self._primary = primary = [-1] * self._total_pages
        self._extras = extras = {}
        self._table = table = {}
        capacity = self._capacity
        spilled = 0
        for ppn, lpn, is_primary in entries:
            if is_primary:
                primary[ppn] = lpn
                continue
            extras[ppn] = extras.get(ppn, ()) + (lpn,)
            if len(table) < capacity:
                table[(ppn, lpn)] = None
            else:
                spilled += 1
        for ppn, lpns in extras.items():
            extras[ppn] = tuple(sorted(lpns))
        self._in_table = len(table)
        self._spilled_count = self._spilled_peak = spilled

    # --------------------------------------------------------------- debug

    def check(self) -> None:
        """The bounded-refs invariant: every shared page is valid and its
        extras are distinct, ascending and not its primary; every table
        entry names a live extra reference; the counters agree with the
        table and the extras; and the table is within its budget.  Raises
        :class:`AssertionError` on the first disagreement."""
        table = self._table
        if max(self._in_table, len(table)) > self._capacity:
            raise AssertionError(
                f"share table over budget: {len(table)} entries "
                f"(counted {self._in_table}), capacity {self._capacity}")
        for ppn, entries in self._extras.items():
            primary = self._primary[ppn]
            if (not entries or primary < 0 or primary in entries
                    or list(entries) != sorted(set(entries))):
                raise AssertionError(
                    f"PPN {ppn}: extras {entries} beside primary "
                    f"{primary} (-1 = invalid page)")
        for ppn, lpn in table:
            if lpn not in self._extras.get(ppn, ()):
                raise AssertionError(
                    f"share table entry ({ppn}, {lpn}) names no extra "
                    f"reference of PPN {ppn}")
        spilled = sum(map(len, self._extras.values())) - len(table)
        if (len(table), spilled) != (self._in_table, self._spilled_count):
            raise AssertionError(
                f"counters (table {self._in_table}, spilled "
                f"{self._spilled_count}) != entries (table {len(table)}, "
                f"spilled {spilled})")
