"""SHARE command semantics: pairs, ranged expansion, batch validation.

``share(LPN1, LPN2, length)`` (Section 3.2): LPN1 is the *destination* —
after the command it maps to the physical page currently backing LPN2, the
*source*.  ``length`` expands the command over consecutive LPNs and must
not make the two ranges overlap.  A batch of pairs commits atomically as
long as its delta records fit one mapping page (Section 4.2.2).

A pair is plain data: any ``(dst_lpn, src_lpn)`` 2-tuple, of which
:class:`SharePair` is the named form.  Its rules are enforced by
:func:`validate_batch`, which every batch passes exactly once, inside the
FTL, before any state changes (the ranged form's overlap rule by
:func:`expand_range`).
"""

from __future__ import annotations

from typing import List, NamedTuple, Sequence, Tuple

from repro.errors import ShareError

#: Sentinel for validate_batch callers that do not enforce a batch limit.
MAX_BATCH_UNLIMITED = -1


class SharePair(NamedTuple):
    """One remap: ``dst_lpn`` will point at the physical page of
    ``src_lpn``."""

    dst_lpn: int
    src_lpn: int


def expand_range(dst_lpn: int, src_lpn: int,
                 length: int) -> List[Tuple[int, int]]:
    """Expand ``share(dst, src, length)`` into per-page pairs.

    Enforces the paper's rule: "the range between LPN1 and LPN1+length
    cannot be overlapped with the range between LPN2 and LPN2+length".
    """
    if length < 1:
        raise ShareError(f"length must be >= 1: {length}")
    dst_end = dst_lpn + length
    src_end = src_lpn + length
    if dst_lpn < src_end and src_lpn < dst_end:
        raise ShareError(
            f"ranges overlap: dst [{dst_lpn}, {dst_end}) vs "
            f"src [{src_lpn}, {src_end})")
    return list(zip(range(dst_lpn, dst_end), range(src_lpn, src_end)))


def validate_batch(pairs: Sequence[Tuple[int, int]], logical_pages: int,
                   max_batch: int) -> None:
    """Reject malformed batches before any state changes.

    Rules:
    * non-empty, every LPN non-negative and within the logical address
      space, no pair remapping an LPN onto itself,
    * no duplicate destination (two remaps of one LPN in one atomic batch
      are ambiguous),
    * no destination that is also a source (the batch applies as a snapshot
      of the pre-command mapping, so chaining inside one batch is
      ill-defined and rejected, mirroring the ranged-overlap rule),
    * at most ``max_batch`` pairs so the delta fits one mapping page.

    A well-formed batch passes on a few set operations over the whole
    batch; a malformed one is walked pair by pair to name the offender.
    """
    if not pairs:
        raise ShareError("empty SHARE batch")
    if max_batch != MAX_BATCH_UNLIMITED and len(pairs) > max_batch:
        raise ShareError(
            f"SHARE batch of {len(pairs)} pairs exceeds the atomic limit of "
            f"{max_batch} (one mapping page of deltas)")
    destinations, sources = map(set, zip(*pairs))
    lpns = destinations | sources
    if (len(destinations) == len(pairs)
            and destinations.isdisjoint(sources)   # hence dst != src too
            and min(lpns) >= 0 and max(lpns) < logical_pages):
        return
    seen = set()
    for dst_lpn, src_lpn in pairs:
        if dst_lpn < 0:
            raise ShareError(f"negative destination LPN: {dst_lpn}")
        if src_lpn < 0:
            raise ShareError(f"negative source LPN: {src_lpn}")
        if dst_lpn == src_lpn:
            raise ShareError(
                f"destination and source LPN are identical: {dst_lpn}")
        for lpn in (dst_lpn, src_lpn):
            if lpn >= logical_pages:
                raise ShareError(
                    f"LPN {lpn} outside logical space [0, {logical_pages})")
        if dst_lpn in seen:
            raise ShareError(f"duplicate destination LPN in batch: {dst_lpn}")
        seen.add(dst_lpn)
    raise ShareError(
        f"LPNs appear as both destination and source in one batch: "
        f"{sorted(destinations & sources)[:8]}")


def observe_batch(batch_pairs, contiguous_runs,
                  pairs: Sequence[Tuple[int, int]]) -> None:
    """Record the shape of one committed SHARE batch into the FTL's two
    histogram handles.

    Batch size drives how often the delta log spills past a single mapping
    page, and contiguity shows whether callers exploit the ranged form of
    the command:

    * ``ftl.share.batch_pairs`` — per-batch size distribution,
    * ``ftl.share.contiguous_runs`` — per-batch count of maximal runs of
      consecutive ``(dst, src)`` pairs (1 == fully ranged batch).

    (How many pairs were committed, and how many L2P continuity breaks
    they caused, are not recorded here: the device reports them from
    ``DeviceStats.share_pairs`` and the mapping strategy's own
    ``remap_splits``.)
    """
    batch_pairs.record(len(pairs))
    runs = 0
    next_dst = next_src = None
    for dst_lpn, src_lpn in pairs:
        if dst_lpn != next_dst or src_lpn != next_src:
            runs += 1
        next_dst = dst_lpn + 1
        next_src = src_lpn + 1
    contiguous_runs.record(runs)
