"""Unit tests for the redo log."""

import pytest

from repro.innodb.redo import RECORDS_PER_PAGE, RedoLog
from repro.sim.clock import SimClock
from repro.ssd.device import Ssd

from conftest import small_ssd_config


@pytest.fixture
def log(clock):
    device = Ssd(clock, small_ssd_config())
    return RedoLog(device)


def test_append_assigns_lsns(log):
    assert log.append("a") == 1
    assert log.append("b") == 2
    assert log.next_lsn == 3


def test_records_not_durable_until_commit(log):
    log.append("a")
    assert log.replay_records() == []
    assert log.commit() == 1
    assert log.replay_records() == [(1, "a")]


def test_commit_packs_pages(log):
    for i in range(2 * RECORDS_PER_PAGE + 2):
        log.append(("rec", i))
    writes_before = log.device.stats.host_write_pages
    log.commit()
    assert log.device.stats.host_write_pages - writes_before == 3  # 32+32+2


def test_replay_returns_all_committed(log):
    for i in range(10):
        log.append(("rec", i))
    log.commit()
    records = log.replay_records()
    assert [r for __, r in records] == [("rec", i) for i in range(10)]
    assert [lsn for lsn, __ in records] == list(range(1, 11))


def test_replay_across_commits(log):
    log.append("a")
    log.commit()
    log.append("b")
    log.commit()
    assert [r for __, r in log.replay_records()] == ["a", "b"]


def test_empty_commit_is_cheap(log):
    writes_before = log.device.stats.host_write_pages
    log.commit()
    assert log.device.stats.host_write_pages == writes_before


def test_region_wraps(clock):
    device = Ssd(clock, small_ssd_config())
    log = RedoLog(device)
    assert log.region_pages == device.logical_pages // 2
    for i in range(log.region_pages + 10):
        log.append(i)
        log.commit()
    # The cursor stayed inside the region.
    assert not device.ftl.is_mapped(log.region_pages)
