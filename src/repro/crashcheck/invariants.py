"""The named invariants: media-level ones checked on every recovered
device, and the cluster tier's two.

Each check returns a list of violation strings (empty = clean) so the
sweep engine can aggregate them into one verdict per site.  The media
invariants are deliberately independent of any engine: they hold for
*any* workload on a correct FTL, no matter where power failed.

* **mapping agreement** — the forward and reverse mapping tables must
  mirror each other and per-block valid counts must match (the FTL's own
  ``check_invariants``).
* **replay idempotence** — running recovery twice over the same media
  must produce identical logical state: the media scan has no side
  effects, so a second crash *during* recovery loses nothing.
* **bounded refs** — no physical page may be referenced by more LPNs
  than the workload's sharing pattern allows (2 for plain SHARE staging;
  3 for couchstore, whose compaction transiently holds old-file,
  scratch and new-file references to one document page).
* **media accounting** — grown-bad blocks must never reappear in the
  free pool or as active blocks, spare-pool bookkeeping must balance,
  and no forward mapping may point at a page that failed during program.

On a device degraded by media faults a read may legitimately raise a
typed :class:`MediaError` (the page is dead); the replay check therefore
compares read *outcomes* — the value, or the exact error type — so "both
recoveries surface the same typed error" passes and "one recovery reads
data the other cannot" fails.

The cluster tier's invariants take the router, not a device:

* **no lost acked write** — every key the router ever acknowledged reads
  back through the router as its last acknowledged value.
* **replica convergence** — once quiesced, every live replica's
  watermark equals its group's log tip and every directory entry reads
  back identically on the primary and each replica.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.errors import MediaError, ReproError
from repro.ftl.pagemap import PageMappingFtl


def mapping_agreement(name: str, ssd) -> List[str]:
    """Forward/reverse map and valid-count consistency."""
    try:
        ssd.ftl.check_invariants()
    except AssertionError as exc:
        return [f"{name}: mapping-agreement: {exc}"]
    return []


def _read_outcome(ftl: PageMappingFtl, lpn: int) -> Tuple[str, object]:
    """What a host read of ``lpn`` produces: the value, or the typed
    media-error class (never wrong data, never an untyped failure)."""
    try:
        return ("ok", ftl.read(lpn))
    except MediaError as exc:
        return ("media-error", type(exc).__name__)


def replay_idempotence(name: str, ssd) -> List[str]:
    """Two independent recoveries of the same media must agree."""
    first = PageMappingFtl.recover(ssd.nand, ssd.config.ftl)
    second = PageMappingFtl.recover(ssd.nand, ssd.config.ftl)
    first_map = dict(first.fwd.mapped_lpns())
    second_map = dict(second.fwd.mapped_lpns())
    violations: List[str] = []
    if first_map != second_map:
        drift = set(first_map.items()) ^ set(second_map.items())
        violations.append(
            f"{name}: replay-idempotence: mapping drift across recoveries "
            f"({len(drift)} entries differ)")
    if first._trim_tombstones != second._trim_tombstones:
        violations.append(
            f"{name}: replay-idempotence: trim tombstones differ across "
            f"recoveries")
    if first.grown_bad_blocks != second.grown_bad_blocks:
        violations.append(
            f"{name}: replay-idempotence: grown-bad blocks differ across "
            f"recoveries ({sorted(first.grown_bad_blocks)} vs "
            f"{sorted(second.grown_bad_blocks)})")
    if not violations:
        for lpn in first_map:
            if _read_outcome(first, lpn) != _read_outcome(second, lpn):
                violations.append(
                    f"{name}: replay-idempotence: LPN {lpn} reads "
                    f"different outcomes across recoveries")
                break
    return violations


def media_accounting(name: str, ssd) -> List[str]:
    """Bad-block and spare-pool bookkeeping must stay coherent."""
    ftl = ssd.ftl
    violations: List[str] = []
    grown = ftl.grown_bad_blocks
    free = set(ftl.free_blocks())
    spares = set(ftl.spare_blocks())
    for block in sorted(grown & free):
        violations.append(
            f"{name}: media-accounting: grown-bad block {block} is back "
            f"in the free pool")
    for block in sorted(grown & spares):
        violations.append(
            f"{name}: media-accounting: grown-bad block {block} is held "
            f"as a spare")
    for role, active in sorted(ftl.active_blocks().items()):
        if active in grown:
            violations.append(
                f"{name}: media-accounting: grown-bad block {active} is "
                f"the active {role} block")
    expected_spares = max(0, ssd.config.ftl.spare_block_count - len(grown))
    if len(spares) != expected_spares:
        violations.append(
            f"{name}: media-accounting: spare pool holds {len(spares)} "
            f"blocks, expected {expected_spares} "
            f"({ssd.config.ftl.spare_block_count} reserved, "
            f"{len(grown)} grown bad)")
    for lpn, ppn in ftl.fwd.mapped_lpns():
        if ssd.nand.is_failed(ppn):
            violations.append(
                f"{name}: media-accounting: LPN {lpn} maps to PPN {ppn}, "
                f"which failed during program and holds no data")
    return violations


def bounded_refs(name: str, ssd, max_refs: int) -> List[str]:
    """No physical page may be shared wider than the workload allows."""
    refs: Dict[int, List[int]] = {}
    for lpn, ppn in ssd.ftl.fwd.mapped_lpns():
        refs.setdefault(ppn, []).append(lpn)
    return [
        f"{name}: bounded-refs: PPN {ppn} referenced by {len(lpns)} LPNs "
        f"{sorted(lpns)} (limit {max_refs})"
        for ppn, lpns in sorted(refs.items()) if len(lpns) > max_refs
    ]


def check_media(name: str, ssd, max_refs: int = 2) -> List[str]:
    """Run every media invariant against one recovered device."""
    violations = mapping_agreement(name, ssd)
    violations += replay_idempotence(name, ssd)
    violations += bounded_refs(name, ssd, max_refs)
    violations += media_accounting(name, ssd)
    return violations


# ------------------------------------------------------------- cluster tier


def no_lost_acked_write(router, durable: Dict) -> List[str]:
    """Every key in ``durable`` (key -> last acknowledged value, ``None``
    after an acked delete) must read back through the router as that
    value."""
    violations: List[str] = []
    for key in sorted(durable, key=repr):
        expected = durable[key]
        try:
            actual = router.get(key)
        except ReproError as exc:
            violations.append(
                f"no_lost_acked_write: key {key!r} unreadable after "
                f"recovery: {type(exc).__name__}: {exc}")
            continue
        if repr(actual) != repr(expected):
            violations.append(
                f"no_lost_acked_write: key {key!r} reads {actual!r}, "
                f"acked value was {expected!r}")
    return violations


def replica_convergence(router) -> List[str]:
    """Every live replica at the tip, every key byte-identical."""
    violations: List[str] = []
    for group in router.pairs.values():
        tip = group.log.tip
        live = group.live_replicas()
        for rep in live:
            if rep.applier.watermark != tip:
                violations.append(
                    f"replica_convergence: shard {group.name!r} replica "
                    f"{rep.ssd.name!r} watermark "
                    f"{rep.applier.watermark} != tip {tip}")
        for key in sorted(group.directory, key=repr):
            lpn = group.directory[key]
            try:
                expected = group.primary.read(lpn)
            except ReproError as exc:
                violations.append(
                    f"replica_convergence: shard {group.name!r} key "
                    f"{key!r} unreadable on primary: "
                    f"{type(exc).__name__}: {exc}")
                continue
            for rep in live:
                if rep.applier.watermark != tip:
                    continue  # already reported above
                try:
                    actual = rep.ssd.read(lpn)
                except ReproError as exc:
                    violations.append(
                        f"replica_convergence: shard {group.name!r} key "
                        f"{key!r} unreadable on {rep.ssd.name!r}: "
                        f"{type(exc).__name__}: {exc}")
                    continue
                if repr(actual) != repr(expected):
                    violations.append(
                        f"replica_convergence: shard {group.name!r} key "
                        f"{key!r}: primary {expected!r} vs "
                        f"{rep.ssd.name!r} {actual!r}")
    return violations
