"""The reverse map against the per-page-set map it replaced.

``ReverseMap`` used to hold a ``set`` of referencing LPNs for every valid
physical page beside a dict of primaries and an ordered table of
``(ppn, lpn)`` entries; it now holds a flat PPN-indexed primary list,
only while a page is shared one ascending tuple of that page's extra
LPNs, and the same ordered table of ``(ppn, lpn)`` entries.  The
previous class lives on here as the reference with one line changed: a
departing primary is replaced by ``min(refs)``, the lowest extra LPN,
where it used to take ``next(iter(refs))``.  Hypothesis drives both with
the same operation sequences and compares every observable after every
step.  The two inputs that corrupted the reference — an extra reference
on a page that holds no data, a move onto a live page — are not applied
to it: the new map must reject them with ``ValueError`` and change
nothing.
"""

from typing import Dict, Iterable, List, Optional, Set, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ftl.reverse import ReverseMap


# ------------------------------------------------------- reference map

class RefReverseMap:
    """Tracks LPN references per physical page with a bounded extra-entry
    budget.

    The structure maintains the invariant that ``refs(ppn)`` equals the set
    of LPNs whose forward mapping currently points at ``ppn``; the FTL calls
    :meth:`set_primary` / :meth:`add_extra` / :meth:`drop_ref` /
    :meth:`move_page` around every forward-map change.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"share table capacity must be >= 1: {capacity}")
        self._capacity = capacity
        self._refs: Dict[int, Set[int]] = {}
        self._primary: Dict[int, int] = {}
        # Extra (share) entries: key (ppn, lpn) -> None.
        self._extras: Dict[Tuple[int, int], None] = {}
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

    def refs(self, ppn: int) -> Set[int]:
        """LPNs currently referencing ``ppn`` (possibly empty)."""
        return set(self._refs.get(ppn, ()))

    def is_valid(self, ppn: int) -> bool:
        """A physical page is valid while any LPN references it."""
        return bool(self._refs.get(ppn))

    def primary_of(self, ppn: int) -> Optional[int]:
        return self._primary.get(ppn)

    def live_pages(self, start: int, stop: int):
        """GC's one question about a victim block, answered in one call:
        the PPNs and primary LPNs of the valid pages in ``[start, stop)``,
        in PPN order, and ``ppn: (sorted referencing LPNs, has spilled
        refs)`` for each shared one."""
        refs = self._refs
        spilled = self._spilled
        ppns = [ppn for ppn in range(start, stop) if ppn in refs]
        return (ppns,
                [self._primary[ppn] for ppn in ppns],
                {ppn: (sorted(refs[ppn]), ppn in spilled) for ppn in ppns
                 if len(refs[ppn]) > 1})

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
            # The primary reference left: promote the lowest extra.
            # The spare stamp is stale but the DRAM table now owns the
            # page, and GC will restamp it on the next copyback.
            promoted = min(refs)
            self._primary[ppn] = promoted
            self._drop_extra(ppn, promoted)
        if refs:
            return False
        del self._refs[ppn]
        self._primary.pop(ppn, None)
        return True

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


# ----------------------------------------------------------- comparison

PAGES = 12          # small spaces, so collisions, spills and promotions
LPNS = 24           # are the common case


def spilled_refs(rev, ppn):
    """The extra references of ``ppn`` living in the overflow."""
    if isinstance(rev, ReverseMap):
        return {lpn for lpn in rev._extras.get(ppn, ())
                if (ppn, lpn) not in rev._table}
    return rev.spilled_refs_of(ppn)


def observe(rev):
    """Everything a caller can learn from a reverse map."""
    return {
        "refs": [rev.refs(ppn) for ppn in range(PAGES)],
        "is_valid": [rev.is_valid(ppn) for ppn in range(PAGES)],
        "primary_of": [rev.primary_of(ppn) for ppn in range(PAGES)],
        "live_pages": rev.live_pages(0, PAGES),
        "extra_entries": rev.extra_entries,
        "spilled_refs": [spilled_refs(rev, ppn) for ppn in range(PAGES)],
        "spilled_entries": rev.spilled_entries,
        "spilled_peak": rev.spilled_peak,
    }


def apply(rev, name, *args):
    """Run one operation: ("ok", return value) or ("raised", type)."""
    try:
        return "ok", getattr(rev, name)(*args)
    except Exception as exc:   # the type is what is compared
        return "raised", type(exc)


class Pair:
    """The reference and the array-backed map, stepped together."""

    def __init__(self, capacity):
        self.ref = RefReverseMap(capacity)
        self.new = ReverseMap(capacity, PAGES)

    def step(self, name, *args):
        ref, new = self.ref, self.new
        if name == "move_live":
            # The call GC makes: a page's own sorted references.
            name, args = "move_page", (*args, sorted(ref.refs(args[0])))
        if ((name == "add_extra" and not ref.is_valid(args[0]))
                or (name == "move_page" and ref.is_valid(args[1]))):
            # An extra on a page that holds no data, or a move onto a live
            # page: the reference corrupts itself, the new map refuses.
            before = observe(new)
            assert apply(new, name, *args) == ("raised", ValueError)
            assert observe(new) == before, (name, args)
            new.check()
            return None
        outcome = apply(ref, name, *args)
        assert apply(new, name, *args) == outcome, (name, args)
        assert observe(new) == observe(ref), (name, args)
        assert new.shared_pages() == sum(
            1 for refs in ref._refs.values() if len(refs) > 1)
        # The same references hold the same table slots.
        assert set(new._table) == set(ref._extras), (name, args)
        new.check()
        return outcome


ppns = st.integers(0, PAGES - 1)
lpns = st.integers(0, LPNS - 1)


@st.composite
def rebuild_entries(draw):
    """Recovery's input: per page its LPNs in some order, one of them —
    not necessarily the first — marked primary."""
    entries = []
    for ppn in draw(st.lists(ppns, unique=True, max_size=6)):
        page_lpns = draw(st.lists(lpns, unique=True, min_size=1, max_size=5))
        primary = draw(st.sampled_from(page_lpns))
        entries += [(ppn, lpn, lpn == primary) for lpn in page_lpns]
    return entries


operations = st.one_of(
    st.tuples(st.just("set_primary"), ppns, lpns),   # incl. re-program
    st.tuples(st.just("add_extra"), ppns, lpns),
    st.tuples(st.just("add_extra"), ppns, lpns),
    st.tuples(st.just("drop_ref"), ppns, lpns),
    st.tuples(st.just("drop_ref"), ppns, lpns),
    st.tuples(st.just("move_live"), ppns, ppns),
    st.tuples(st.just("move_page"), ppns, ppns,      # mostly stale: raises
              st.lists(lpns, max_size=3)),
    st.tuples(st.just("rebuild"), rebuild_entries()),
)


@settings(max_examples=300, deadline=None)
@given(capacity=st.integers(1, 4),
       ops=st.lists(operations, min_size=1, max_size=60))
def test_matches_reference_after_every_step(capacity, ops):
    pair = Pair(capacity)
    for op in ops:
        pair.step(*op)


@settings(max_examples=100, deadline=None)
@given(capacity=st.integers(1, 4), entries=rebuild_entries(),
       ops=st.lists(operations, max_size=30))
def test_matches_reference_from_a_rebuilt_map(capacity, entries, ops):
    pair = Pair(capacity)
    pair.step("rebuild", entries)
    # Recovery keeps an extras tuple only for a page that is shared, and
    # never an empty one.
    assert all(pair.new._extras.values())
    for op in ops:
        pair.step(*op)
