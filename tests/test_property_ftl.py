"""Property-based tests: the FTL must behave exactly like a flat logical
address space (a dict) under any interleaving of writes, trims, shares,
and power failures — while its internal invariants hold."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import ShareError
from repro.flash.geometry import FlashGeometry
from repro.flash.nand import NandArray
from repro.ftl.config import FtlConfig
from repro.ftl.pagemap import PageMappingFtl

LOGICAL_SPAN = 80  # stay well inside the tiny test geometry


def fresh_ftl(share_entries=8):
    geo = FlashGeometry(page_size=4096, pages_per_block=16, block_count=48,
                        overprovision_ratio=0.2)
    nand = NandArray(geo)
    config = FtlConfig(map_block_count=4,
                       share_table_entries=share_entries)
    return nand, config, PageMappingFtl(nand, config)


op_strategy = st.one_of(
    st.tuples(st.just("write"), st.integers(0, LOGICAL_SPAN - 1),
              st.integers(0, 1000)),
    st.tuples(st.just("trim"), st.integers(0, LOGICAL_SPAN - 1),
              st.integers(1, 4)),
    st.tuples(st.just("share"), st.integers(0, LOGICAL_SPAN - 1),
              st.integers(0, LOGICAL_SPAN - 1)),
    st.tuples(st.just("flush"), st.just(0), st.just(0)),
)


def apply_ops(ftl, model, ops):
    """Drive the FTL and a dict model through the same operations."""
    for kind, a, b in ops:
        if kind == "write":
            ftl.write(a, ("v", a, b))
            model[a] = ("v", a, b)
        elif kind == "trim":
            count = min(b, LOGICAL_SPAN - a)
            if count >= 1:
                ftl.trim(a, count)
                for lpn in range(a, a + count):
                    model.pop(lpn, None)
        elif kind == "share":
            if a == b:
                continue
            try:
                ftl.share(a, b)
            except ShareError:
                assert b not in model  # only unmapped sources may fail
                continue
            model[a] = model[b]
        elif kind == "flush":
            ftl.flush()


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(op_strategy, min_size=1, max_size=120))
def test_ftl_matches_flat_address_space(ops):
    __, __, ftl = fresh_ftl()
    model = {}
    apply_ops(ftl, model, ops)
    ftl.check_invariants()
    for lpn in range(LOGICAL_SPAN):
        if lpn in model:
            assert ftl.read(lpn) == model[lpn]
        else:
            assert not ftl.is_mapped(lpn)


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(op_strategy, min_size=1, max_size=80))
def test_recovery_reproduces_flushed_state(ops):
    nand, config, ftl = fresh_ftl()
    model = {}
    apply_ops(ftl, model, ops)
    ftl.flush()
    recovered = PageMappingFtl.recover(nand, config)
    recovered.check_invariants()
    for lpn in range(LOGICAL_SPAN):
        if lpn in model:
            assert recovered.read(lpn) == model[lpn]
        else:
            assert not recovered.is_mapped(lpn)


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(op_strategy, min_size=1, max_size=60))
def test_starved_share_table_is_logically_invisible(ops):
    """Two DRAM entries: most references spill to the mapping log, and
    reads cannot tell."""
    __, __, ftl = fresh_ftl(share_entries=2)
    model = {}
    apply_ops(ftl, model, ops)
    ftl.check_invariants()
    for lpn, expected in model.items():
        assert ftl.read(lpn) == expected


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(op_strategy, min_size=10, max_size=100),
       st.integers(0, 10_000))
def test_gc_pressure_never_corrupts(ops, seed):
    """Interleave the random ops with heavy churn so GC runs, then check
    the model still matches."""
    import random
    rng = random.Random(seed)
    __, __, ftl = fresh_ftl()
    model = {}
    for index, op in enumerate(ops):
        apply_ops(ftl, model, [op])
        if index % 5 == 0:
            for __ in range(30):
                lpn = rng.randrange(LOGICAL_SPAN)
                ftl.write(lpn, ("churn", lpn, index))
                model[lpn] = ("churn", lpn, index)
    ftl.check_invariants()
    for lpn, expected in model.items():
        assert ftl.read(lpn) == expected
