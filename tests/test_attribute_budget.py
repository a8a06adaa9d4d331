"""The hot objects stay within CPython's shared-key instance dict.

CPython 3.11 keeps an instance's attributes in a dict whose keys are
shared across the class while the class has at most 29 of them; a 30th
attribute gives every instance its own keys, and every ``self.<attr>``
read on the per-page and per-command paths takes the slower lookup (a
30th ``ShardGroup`` attribute cost the cluster cell 1.1-1.5 % of its
host throughput).  So the objects those paths read hold at most 29
instance attributes each, counted on a device and a cluster stack that
have done work (an attribute set lazily counts too).
"""

import random

from repro.bench.harness import build_cluster_stack
from repro.flash.geometry import FlashGeometry
from repro.flash.timing import FAST_TIMING
from repro.ftl.config import FtlConfig
from repro.sim.clock import SimClock
from repro.ssd.device import Ssd, SsdConfig

#: The most instance attributes CPython 3.11 shares keys for.
SHARED_KEYS_LIMIT = 29


def attribute_counts(ssd):
    ftl = ssd.ftl
    return {type(owner).__name__: len(vars(owner))
            for owner in (ftl, ssd, ssd.nand, ftl.rev, ftl._blocks,
                          ftl.maplog)}


def test_device_objects_hold_at_most_29_attributes():
    geometry = FlashGeometry(page_size=4096, pages_per_block=32,
                             block_count=64, overprovision_ratio=0.125,
                             channel_count=4)
    ssd = Ssd(SimClock(), SsdConfig(
        geometry=geometry, timing=FAST_TIMING,
        ftl=FtlConfig(map_block_count=4, share_table_entries=8),
        dram_cache_pages=16, queue_depth=4))
    rng = random.Random(3)
    span = int(ssd.logical_pages * 0.85)
    for step in range(4000):
        lpn = rng.randrange(span)
        ssd.write(lpn, ("w", step))
        destination = rng.randrange(span)
        if step % 7 == 0 and destination != lpn:
            ssd.share(destination, lpn)
        if step % 11 == 0:
            ssd.trim(rng.randrange(span))
        if step % 5 == 0:
            ssd.read(lpn)
    ssd.flush()
    assert ssd.ftl.stats.gc_events
    before = attribute_counts(ssd)
    ssd.power_cycle()   # the recovered FTL is counted too
    counts = {name: max(count, before[name])
              for name, count in attribute_counts(ssd).items()}
    assert len(counts) == 6
    over = {name: count for name, count in counts.items()
            if count > SHARED_KEYS_LIMIT}
    assert not over, f"over {SHARED_KEYS_LIMIT} instance attributes: {over}"


def test_cluster_objects_hold_at_most_29_attributes():
    stack = build_cluster_stack(shards=3, keys_estimate=600, replicas=2,
                                write_quorum=2)
    router = stack.router
    for key in range(400):
        router.put(key, ("v", key))
    for key in range(0, 400, 3):
        router.get(key)
    counts = {}
    for group in stack.pairs:
        counts[f"ShardGroup {group.name}"] = len(vars(group))
        for ssd in [group.primary] + [rep.ssd for rep in group.replicas]:
            for name, count in attribute_counts(ssd).items():
                counts[name] = max(count, counts.get(name, 0))
    over = {name: count for name, count in counts.items()
            if count > SHARED_KEYS_LIMIT}
    assert not over, f"over {SHARED_KEYS_LIMIT} instance attributes: {over}"
