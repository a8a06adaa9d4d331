"""Differential oracle for the batched SHARE / TRIM command path.

The FTL used to do a SHARE's and a TRIM's bookkeeping pair by pair — a
sequence-number call, a wrapper hop into the reverse map, a validated
``DeltaRecord`` per pair — and to seal a mapping page with a CRC of the
records' ``repr``.  Those bodies live on here, and only here, as the
reference: ``RefFtl`` is today's ``PageMappingFtl`` with the old
per-pair ``_share_batch`` / ``_trim`` put back, run with the old seal
patched into the map log.  (One deliberate difference from the old code,
a bug fix that rode along with the rewrite and has its own test below:
the reference bills a log spill only when ``add_extra`` really put an
entry in the overflow.)

The fence is *same seqs, same sets, same pages*: seeded write / share /
trim / flush / GC mixes on every L2P backing, with a share table small
enough to spill to the mapping log, must leave the same forward map, the same reverse-map internals (set and
table iteration order included — which extra gets promoted is device
behaviour), the same ``FtlStats``, the same sequence counter, the same
decoded records on every mapping page, and the same state after a power
cycle.
"""

import random
import zlib
from contextlib import contextmanager

import pytest

from repro.errors import ShareError
from repro.flash.geometry import FlashGeometry
from repro.flash.nand import NandArray
from repro.ftl import deltalog
from repro.ftl.config import FtlConfig
from repro.ftl.deltalog import KIND_SHARE, KIND_TRIM, DeltaRecord
from repro.ftl.mapping import STRATEGY_NAMES, UNMAPPED
from repro.ftl.pagemap import PageMappingFtl
from repro.ftl.reverse import ReverseMap
from repro.ftl.share_ext import validate_batch

OPS = 700
OBSERVE_EVERY = 35


# ------------------------------------------------------------ reference

def ref_seal(records):
    crc = zlib.crc32(repr(records).encode("utf-8")) & 0xFFFFFFFF
    return (deltalog.MAP_MAGIC, records, crc)


def ref_unseal(payload):
    if (not isinstance(payload, tuple) or len(payload) != 3
            or payload[0] != deltalog.MAP_MAGIC):
        return None
    _, records, crc = payload
    if not isinstance(records, tuple):
        return None
    if zlib.crc32(repr(records).encode("utf-8")) & 0xFFFFFFFF != crc:
        return None
    return [DeltaRecord._make(record) for record in records]


@contextmanager
def reference_seal():
    """Map pages written and scanned inside are sealed the old way."""
    saved = deltalog._seal, deltalog._unseal
    deltalog._seal, deltalog._unseal = ref_seal, ref_unseal
    try:
        yield
    finally:
        deltalog._seal, deltalog._unseal = saved


class RefFtl(PageMappingFtl):
    """``PageMappingFtl`` with the per-pair SHARE and TRIM bodies."""

    def _drop_ref(self, ppn, lpn):
        if self.rev.drop_ref(ppn, lpn):
            self._valid_count[ppn // self._pages_per_block] -= 1

    def _share_batch(self, pairs):
        validate_batch(pairs, self._logical_pages, self.max_share_batch)
        fwd = self.fwd
        resolved = []
        for pair, (dst_lpn, old_ppn, src_ppn) in zip(
                pairs, fwd.resolve_pairs(pairs)):
            if src_ppn == UNMAPPED:
                raise ShareError(
                    f"source LPN {pair[1]} is unmapped; nothing to share")
            resolved.append((dst_lpn,
                             None if old_ppn == UNMAPPED else old_ppn,
                             src_ppn))
        self._flush_pending_trims()
        deltas = []
        rev = self.rev
        for dst_lpn, old_ppn, src_ppn in resolved:
            seq = self._next_seq()
            was_spilled = rev.is_spilled(src_ppn, dst_lpn)
            rev.add_extra(src_ppn, dst_lpn)
            if rev.is_spilled(src_ppn, dst_lpn) and not was_spilled:
                self.stats.share_log_spills += 1
            fwd.remap(dst_lpn, src_ppn)
            if old_ppn is not None and old_ppn != src_ppn:
                self._drop_ref(old_ppn, dst_lpn)
            self._share_backed[dst_lpn] = (src_ppn, seq)
            self._trim_tombstones.pop(dst_lpn, None)
            deltas.append(
                DeltaRecord(KIND_SHARE, dst_lpn, old_ppn, src_ppn, seq))
        self.maplog.append_atomic(deltas)
        self.stats.share_commands += 1
        self.stats.share_pairs += len(pairs)

    def _trim(self, lpn, count):
        self._check_lpn_range(lpn, count)
        self.stats.trim_commands += 1
        for current in range(lpn, lpn + count):
            old = self.fwd.clear(current)
            if old is None:
                continue
            self._drop_ref(old, current)
            seq = self._next_seq()
            self._trim_tombstones[current] = seq
            self._share_backed.pop(current, None)
            self._pending_trims.append(
                DeltaRecord(KIND_TRIM, current, old, None, seq))
            self.stats.trim_pages += 1
        if len(self._pending_trims) >= self._records_per_page:
            self._flush_pending_trims()


# ---------------------------------------------------------------- driver

def make_config(strategy):
    return FtlConfig(map_block_count=4, share_table_entries=6,
                     l2p_strategy=strategy, l2p_group_pages=8)


def make_nand():
    return NandArray(FlashGeometry(page_size=512, pages_per_block=16,
                                   block_count=48, overprovision_ratio=0.2))


def plan_ops(seed, logical_pages, limit):
    """A seeded command list that never raises: the planner keeps its own
    model of which LPNs are mapped, so the same list drives both FTLs."""
    rng = random.Random(seed)
    span = int(logical_pages * 0.8)
    live = set()
    ops = []
    last_share = None
    while len(ops) < OPS:
        roll = rng.random()
        if roll < 0.40 or len(live) < 8:
            lpn = rng.randrange(span)
            ops.append(("write", lpn, ("v", lpn, len(ops))))
            live.add(lpn)
        elif roll < 0.75:
            if (last_share and rng.random() < 0.2
                    and all(src in live for __, src in last_share)):
                pairs = last_share          # idempotent re-share
            else:
                size = rng.choice((1, 1, 2, 5, limit // 2, limit))
                pool = sorted(live)
                sources = [rng.choice(pool) for __ in range(size)]
                free = [lpn for lpn in range(span)
                        if lpn not in set(sources)]
                pairs = list(zip(rng.sample(free, size), sources))
            ops.append(("share_batch", pairs))
            live.update(dst for dst, __ in pairs)
            last_share = pairs
        elif roll < 0.90:
            lpn = rng.randrange(span)
            count = rng.choice((1, 1, 3, 8, 40))
            count = min(count, span - lpn)
            ops.append(("trim", lpn, count))
            live.difference_update(range(lpn, lpn + count))
        elif roll < 0.95:
            ops.append(("flush",))
        else:
            ops.append(("idle_gc", 2, 0.25))
    return ops


def map_pages(ftl, unseal):
    """Decoded records of every programmed page of the map region."""
    pages = {}
    for block in ftl._map_blocks:
        for ppn, __ in ftl.nand.scan_block(block):
            records = unseal(ftl.nand.read(ppn))
            pages[ppn] = [tuple(record) for record in records]
    return pages


def observe(ftl, unseal):
    rev = ftl.rev
    return {
        "fwd": ftl.fwd.snapshot(),
        "remap_splits": ftl.fwd.remap_splits,
        "primary": list(rev._primary),
        "refs": [(ppn, list(refs)) for ppn, refs in rev._refs.items()],
        "extras": list(rev._extras),
        "spilled": [(ppn, list(bucket))
                    for ppn, bucket in rev._spilled.items()],
        "spilled_count": (rev.spilled_entries, rev.spilled_peak),
        "stats": ftl.stats.as_dict(),
        "seq": ftl._seq,
        "share_backed": list(ftl._share_backed.items()),
        "tombstones": list(ftl._trim_tombstones.items()),
        "pending_trims": [tuple(rec) for rec in ftl._pending_trims],
        "valid": list(ftl._valid_count),
        "work": list(ftl.take_work()),
        "map_pages": map_pages(ftl, unseal),
    }


def run(cls, unseal, strategy, seed):
    """Drive one FTL through the plan, then power-cycle it.  Returns the
    observations along the way, at the end, and after recovery."""
    config = make_config(strategy)
    ftl = cls(make_nand(), config)
    ops = plan_ops(seed, ftl.logical_pages, ftl.max_share_batch)
    seen = []
    for index, (name, *args) in enumerate(ops):
        getattr(ftl, name)(*args)
        if index % OBSERVE_EVERY == 0:
            seen.append(observe(ftl, unseal))
    ftl.check_invariants()
    seen.append(observe(ftl, unseal))
    recovered = cls.recover(ftl.nand, config)
    recovered.check_invariants()
    seen.append(observe(recovered, unseal))
    return seen


# "log": the overflow rule under test — a full share table spills to the
# mapping log.
@pytest.mark.parametrize("overflow", ["log"])
@pytest.mark.parametrize("strategy", STRATEGY_NAMES)
@pytest.mark.parametrize("seed", [22, 23])
def test_batched_path_matches_the_per_pair_reference(strategy, overflow,
                                                     seed):
    with reference_seal():
        expected = run(RefFtl, ref_unseal, strategy, seed)
    actual = run(PageMappingFtl, deltalog._unseal, strategy, seed)
    assert len(actual) == len(expected)
    for index, (new, ref) in enumerate(zip(actual, expected)):
        for key in ref:
            assert new[key] == ref[key], (index, key)
    final = expected[-2]["stats"]
    assert final["share_pairs"] and final["trim_pages"]
    assert final["gc_events"], "the mix never garbage-collected"
    assert final["share_log_spills"], "the share table never spilled"


# -------------------------------------------------- the fix that rode along

def test_idempotent_reshare_is_not_billed_as_a_spill():
    """``share(dst, src)`` when ``dst`` already sits on ``src``'s page adds
    nothing to the overflow, so it is not a log spill — whether ``dst`` is
    the page's primary, a DRAM extra or an already spilled reference."""
    rev = ReverseMap(4, 100)
    rev.set_primary(10, 1)
    assert rev.add_extra(10, 1) is False        # what used to be billed
    assert rev.spill_adds == 0 and rev.spilled_entries == 0
    rev.check()

    ftl = PageMappingFtl(make_nand(), make_config("flat"))
    for lpn in range(4):
        ftl.write(lpn, ("v", lpn))
    ftl.share_batch([(10 + i, 0) for i in range(8)])    # table holds 6
    assert ftl.stats.share_log_spills == 2
    ftl.share_batch([(10 + i, 0) for i in range(8)])    # all idempotent
    ftl.share(0, 10)        # the page's primary, onto its own page
    assert ftl.stats.share_log_spills == 2
    assert ftl.rev.spill_adds == 2 == ftl.rev.spilled_entries
    assert ftl.stats.share_pairs == 17
    ftl.rev.check()
    ftl.check_invariants()

