"""Property-based crash testing: power may fail at ANY instrumented point
during a random operation stream; after recovery the device must expose a
consistent prefix of the durable history.

Consistency contract checked — the STRICT version, keyed off the fault
plan's ack-boundary journal:
* every operation that acknowledged (returned to the caller) is durable:
  its LPNs read back exactly their acknowledged values — no exceptions,
* only the single operation the plan recorded as unacknowledged
  (:meth:`FaultPlan.unacked_op`) may be ambiguous, and only on its own
  LPNs: power may have failed after the media work but before completion
  reached the caller, so its effect may have landed or not,
* an LPN under an interrupted trim may read its old value or be unmapped
  — but ONLY when the trim is the recorded unacked op, never because a
  trim merely happened nearby,
* SHARE batches are all-or-nothing.

(Acked trims are buffered until a flush barrier, like real TRIM + FLUSH,
so the model simply stops asserting about an LPN once its trim acks.)
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import PowerFailure, ShareError
from repro.flash.geometry import FlashGeometry
from repro.flash.nand import NandArray
from repro.ftl.config import FtlConfig
from repro.ftl.pagemap import PageMappingFtl
from repro.ftl.share_ext import SharePair
from repro.sim.faults import FaultPlan, PowerFailAfter

SPAN = 48

FAULT_POINTS = (
    "ftl.before_program",
    "ftl.after_program",
    "maplog.before_commit",
    "maplog.after_commit",
    "maplog.checkpoint_start",
    "maplog.checkpoint_end",
    # The ack boundary itself: media work done, completion never returned.
    "ftl.write.ack",
    "ftl.share.ack",
    "ftl.trim.ack",
    "ftl.flush.ack",
)

op_strategy = st.one_of(
    st.tuples(st.just("write"), st.integers(0, SPAN - 1),
              st.integers(0, 999)),
    st.tuples(st.just("share"), st.integers(0, SPAN - 1),
              st.integers(0, SPAN - 1)),
    st.tuples(st.just("batch"), st.integers(0, SPAN - 5),
              st.integers(1, 4)),
    st.tuples(st.just("trim"), st.integers(0, SPAN - 1), st.just(0)),
    st.tuples(st.just("flush"), st.just(0), st.just(0)),
)


def fresh(faults):
    geo = FlashGeometry(page_size=4096, pages_per_block=16, block_count=40,
                        overprovision_ratio=0.2)
    nand = NandArray(geo)
    config = FtlConfig(map_block_count=4, share_table_entries=8)
    return nand, config, PageMappingFtl(nand, config, faults)


#: Sentinel for "the in-flight op was a trim of this LPN".
TRIMMED = object()


def run_stream(ftl, ops, committed, durable_writes, inflight=None):
    """Apply ops; ``committed`` mirrors the logical state after each
    *completed* operation; ``durable_writes`` records ops whose durability
    is promised at return (writes, shares).  ``inflight`` — if given —
    holds, at any moment, the effect the *current* op would have per LPN
    (a value, or ``TRIMMED``); when a crash interrupts the stream it is
    left describing exactly the op whose landing is ambiguous."""
    if inflight is None:
        inflight = {}
    for op in ops:
        kind, a, b = op
        inflight.clear()
        if kind == "write":
            inflight[a] = ("v", a, b)
            ftl.write(a, ("v", a, b))
            committed[a] = ("v", a, b)
            durable_writes[a] = ("v", a, b)
        elif kind == "share":
            if a == b:
                continue
            if b in committed:
                inflight[a] = committed[b]
            try:
                ftl.share(a, b)
            except ShareError:
                inflight.clear()
                continue
            committed[a] = committed[b]
            durable_writes[a] = committed[b]
        elif kind == "batch":
            sources = [lpn for lpn in range(SPAN)
                       if lpn in committed
                       and not a <= lpn < a + b]
            if len(sources) < b:
                continue
            pairs = [SharePair(a + i, sources[i]) for i in range(b)]
            for pair in pairs:
                inflight[pair.dst_lpn] = committed[pair.src_lpn]
            try:
                ftl.share_batch(pairs)
            except ShareError:
                inflight.clear()
                continue
            for pair in pairs:
                committed[pair.dst_lpn] = committed[pair.src_lpn]
                durable_writes[pair.dst_lpn] = committed[pair.src_lpn]
        elif kind == "trim":
            inflight[a] = TRIMMED
            ftl.trim(a)
            committed.pop(a, None)
            durable_writes.pop(a, None)
        elif kind == "flush":
            ftl.flush()
    inflight.clear()


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(op_strategy, min_size=5, max_size=60),
       st.sampled_from(FAULT_POINTS),
       st.integers(1, 25))
def test_crash_anywhere_recovers_consistently(ops, fault_point, nth):
    faults = FaultPlan()
    nand, config, ftl = fresh(faults)
    committed = {}
    durable = {}
    faults.arm(PowerFailAfter(fault_point, nth=nth))
    crashed = False
    inflight = {}
    try:
        run_stream(ftl, ops, committed, durable, inflight)
    except PowerFailure:
        crashed = True
    recovered = PageMappingFtl.recover(nand, config)
    recovered.check_invariants()
    # The ack journal is authoritative about which operation (if any) is
    # ambiguous: every instrumented point fires inside an operation
    # scope, so a crash always names its victim.
    unacked = faults.unacked_ops()
    ambiguous = {lpn for op in unacked for lpn in op.lpns}
    if crashed:
        assert unacked, (
            f"crash at {fault_point} left no unacked operation record")
        assert set(inflight) <= ambiguous, (
            f"in-flight effects {sorted(inflight)} outside the unacked "
            f"ops' LPNs {sorted(ambiguous)}")
    else:
        assert not unacked
    for lpn, expected in durable.items():
        if lpn not in ambiguous:
            # STRICT durability: acknowledged operations must survive,
            # bit-for-bit, no carve-outs.
            assert recovered.is_mapped(lpn), (
                f"acked LPN {lpn} lost after crash at {fault_point}")
            assert recovered.read(lpn) == expected, (
                f"acked LPN {lpn} reads {recovered.read(lpn)!r}, "
                f"expected {expected!r}")
            continue
        pending = inflight.get(lpn)
        if pending is TRIMMED:
            # Only the recorded unacked trim may be ambiguous: landed
            # (unmapped) or not (old value) — never anything else.
            assert (not recovered.is_mapped(lpn)
                    or recovered.read(lpn) == expected)
        elif pending is None:
            # Inside the unacked op's LPN range but with no in-flight
            # effect recorded for it: the strict contract applies.
            assert recovered.is_mapped(lpn)
            assert recovered.read(lpn) == expected
        else:
            assert recovered.is_mapped(lpn), (
                f"LPN {lpn} lost under interrupted write at {fault_point}")
            assert recovered.read(lpn) in {expected, pending}
    if not crashed:
        # No crash fired: full state must match, including trims (after
        # an explicit flush).
        recovered2 = recovered
        for lpn in range(SPAN):
            if lpn in committed:
                assert recovered2.read(lpn) == committed[lpn]


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(1, 6), st.integers(1, 3),
       st.sampled_from(["maplog.before_commit", "maplog.after_commit"]))
def test_share_batch_all_or_nothing_under_crash(batch_size, nth, point):
    faults = FaultPlan()
    nand, config, ftl = fresh(faults)
    for lpn in range(batch_size):
        ftl.write(lpn, ("src", lpn))
        ftl.write(20 + lpn, ("old", lpn))
    faults.arm(PowerFailAfter(point, nth=nth))
    pairs = [SharePair(20 + lpn, lpn) for lpn in range(batch_size)]
    crashed = False
    try:
        ftl.share_batch(pairs)
    except PowerFailure:
        crashed = True
    recovered = PageMappingFtl.recover(nand, config)
    values = [recovered.read(20 + lpn) for lpn in range(batch_size)]
    all_old = all(value == ("old", lpn)
                  for lpn, value in enumerate(values))
    all_new = all(value == ("src", lpn)
                  for lpn, value in enumerate(values))
    assert all_old or all_new, (
        f"partial SHARE batch visible after crash at {point}: {values}")
    if not crashed:
        assert all_new
