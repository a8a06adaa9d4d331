"""Property-based tests at the engine level: InnoDB transactions and the
SQLite-like database must match dict models under random operation
sequences, in every mode, including across crash + recovery."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.flash.geometry import FlashGeometry
from repro.flash.timing import FAST_TIMING
from repro.ftl.config import FtlConfig
from repro.host.filesystem import FsConfig, HostFs
from repro.innodb.engine import FlushMode, InnoDBConfig, InnoDBEngine
from repro.innodb.recovery import recover
from repro.sim.clock import SimClock
from repro.sqlitelike import JournalMode, SqliteLikeDb
from repro.ssd.device import Ssd, SsdConfig

KEYS = st.integers(0, 120)
VALUES = st.integers(0, 5000)

op_strategy = st.one_of(
    st.tuples(st.just("put"), KEYS, VALUES),
    st.tuples(st.just("delete"), KEYS, st.just(0)),
)
txn_strategy = st.lists(op_strategy, min_size=1, max_size=6)


def make_innodb(mode):
    clock = SimClock()
    geo = FlashGeometry(page_size=4096, pages_per_block=64, block_count=256,
                        overprovision_ratio=0.1)
    data = Ssd(clock, SsdConfig(geometry=geo, timing=FAST_TIMING,
                                ftl=FtlConfig()))
    log = Ssd(clock, SsdConfig(geometry=FlashGeometry(
        page_size=4096, pages_per_block=64, block_count=256),
        timing=FAST_TIMING, share_enabled=False))
    engine = InnoDBEngine(mode, data, log, InnoDBConfig(
        buffer_pool_pages=16, flush_batch_pages=8, leaf_capacity=4,
        internal_fanout=4))
    engine.create_table("t")
    return data, log, engine


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(txn_strategy, max_size=20),
       st.sampled_from(list(FlushMode)))
def test_innodb_matches_dict(transactions, mode):
    __, __, engine = make_innodb(mode)
    model = {}
    for ops in transactions:
        with engine.transaction() as txn:
            for kind, key, value in ops:
                if kind == "put":
                    txn.put("t", key, value)
                    model[key] = value
                else:
                    txn.delete("t", key)
                    model.pop(key, None)
    for key in range(121):
        with engine.transaction() as txn:
            assert txn.get("t", key) == model.get(key)
    assert sorted(model.items()) == list(engine.table("t").items())


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(txn_strategy, min_size=1, max_size=12),
       st.sampled_from([FlushMode.DWB_ON, FlushMode.SHARE,
                        FlushMode.ATOMIC_WRITE]))
def test_innodb_recovery_matches_dict(transactions, mode):
    data, log, engine = make_innodb(mode)
    model = {}
    for ops in transactions:
        with engine.transaction() as txn:
            for kind, key, value in ops:
                if kind == "put":
                    txn.put("t", key, value)
                    model[key] = value
                else:
                    txn.delete("t", key)
                    model.pop(key, None)
    recovered, report = recover(mode, data, log)
    assert report.pages_repaired_from_dwb == report.torn_pages_found
    for key in range(121):
        assert recovered.table("t").get(key) == model.get(key)


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(txn_strategy, max_size=12),
       st.sampled_from(list(JournalMode)))
def test_sqlitelike_matches_dict(transactions, mode):
    clock = SimClock()
    fs = HostFs(Ssd(clock, SsdConfig(
        geometry=FlashGeometry(page_size=4096, pages_per_block=64,
                               block_count=256, overprovision_ratio=0.1),
        timing=FAST_TIMING)), FsConfig(journal_blocks=8))
    db = SqliteLikeDb(fs, "/p.db", mode, page_count=2048,
                      leaf_capacity=4, internal_fanout=4)
    model = {}
    for ops in transactions:
        with db.transaction():
            for kind, key, value in ops:
                if kind == "put":
                    db.put(key, value)
                    model[key] = value
                else:
                    db.delete(key)
                    model.pop(key, None)
    for key in range(121):
        assert db.get(key) == model.get(key)
    assert sorted(model.items()) == list(db.items())


@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(txn_strategy, min_size=1, max_size=8),
       st.sampled_from(list(JournalMode)))
def test_sqlitelike_reopen_matches_dict(transactions, mode):
    clock = SimClock()
    ssd = Ssd(clock, SsdConfig(
        geometry=FlashGeometry(page_size=4096, pages_per_block=64,
                               block_count=256, overprovision_ratio=0.1),
        timing=FAST_TIMING))
    fs = HostFs(ssd, FsConfig(journal_blocks=8))
    db = SqliteLikeDb(fs, "/p.db", mode, page_count=2048,
                      leaf_capacity=4, internal_fanout=4)
    model = {}
    for ops in transactions:
        with db.transaction():
            for kind, key, value in ops:
                if kind == "put":
                    db.put(key, value)
                    model[key] = value
                else:
                    db.delete(key)
                    model.pop(key, None)
    ssd.power_cycle()
    reopened = SqliteLikeDb.open(fs, "/p.db", mode, page_count=2048)
    for key in range(121):
        assert reopened.get(key) == model.get(key)
