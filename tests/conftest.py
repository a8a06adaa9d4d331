"""Shared fixtures: small, fast device stacks for unit tests."""

import pytest

from repro.flash.geometry import FlashGeometry
from repro.flash.timing import FAST_TIMING
from repro.ftl.config import FtlConfig
from repro.sim.clock import SimClock
from repro.ssd.device import Ssd, SsdConfig


def small_ssd_config(page_size=4096, share_entries=250, trace=0):
    return SsdConfig(
        geometry=FlashGeometry.small(page_size=page_size),
        timing=FAST_TIMING,
        ftl=FtlConfig(map_block_count=4, share_table_entries=share_entries),
        trace_capacity=trace,
    )


def small_linkbench_stack(seed):
    """(stack, unloaded driver): a 600-node LinkBench graph on an InnoDB
    SHARE stack (queue depth 4, 2 channels) whose 64-page pool holds
    about a fifth of the database, so it misses, evicts and flushes."""
    from repro.bench.harness import build_innodb_stack
    from repro.innodb.engine import FlushMode
    from repro.workloads.linkbench import LinkBenchConfig, LinkBenchDriver
    stack = build_innodb_stack(FlushMode.SHARE, 4096, buffer_pool_pages=64,
                               db_pages_estimate=320, queue_depth=4,
                               channel_count=2)
    driver = LinkBenchDriver(stack.engine, stack.clock,
                             LinkBenchConfig(node_count=600, seed=seed))
    return stack, driver


@pytest.fixture
def clock():
    return SimClock()


@pytest.fixture
def ssd(clock):
    """A small SHARE-capable SSD on fast timing."""
    return Ssd(clock, small_ssd_config())
