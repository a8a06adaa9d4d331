"""Host-memory gates for the per-physical-page structures.

The footprint twin of ``test_hot_path_budget.py``: a simulated device
must not cost a Python object per physical page.  ``NandArray`` keeps
page state in PPN-indexed arrays — the spare stamp as two typed integer
arrays — and ``ReverseMap`` keeps the primary reference in one, with one
small tuple of extra LPNs only while a page is shared and one ``(ppn,
lpn)`` key per extra that holds a slot of the bounded share table — the
paper's split between the spare-area stamp and the DRAM table (§4.2.1).
A mapping page is held as its packed record fields, not a tuple per
record, and a TRIM walks the slice of old L2P entries, not a pair per
LPN.  ``tracemalloc`` byte counts repeat closely for a given
interpreter, so the ceilings below are the regression fence for
"someone re-introduced an object per page (or per record)".

Layout history, measured on the same probes (CPython 3.11): the
object-per-page layout cost 112.8 bytes per erased page and 566.8 per
aged page, the ``((lpn, seq),)`` stamp per page 243.8 per aged page, a
tuple per log record 216.5 bytes per record.  A shared page cost 406.0
(in the table) and 566.0 (spilled) bytes with a lifelong reference set
plus a ``(ppn, lpn)`` table key or spill bucket; 322.0 either way with
one ``{lpn: in_table}`` dict per shared page; now 238.0 and 146.1 with
the tuple and the table key.  A TRIM's transient bytes per LPN were 66.0
with an ``(lpn, old_ppn)`` pair per LPN; now 10.0.  The cluster tier's
replication log is fenced the same way: it keeps the records some
replica still lacks, not the history.
"""

import gc
import random
import tracemalloc

from repro.flash.geometry import FlashGeometry
from repro.flash.nand import NandArray
from repro.flash.timing import FAST_TIMING
from repro.ftl.config import FtlConfig
from repro.ftl.deltalog import KIND_SHARE, MapLog
from repro.ftl.pagemap import PageMappingFtl
from repro.ftl.reverse import ReverseMap
from repro.sim.clock import SimClock
from repro.ssd.device import Ssd, SsdConfig

from test_cluster_replication import quorum_cluster

#: Bytes per page of a fresh ``NandArray``: one state byte, one list
#: slot for the payload, a 4-byte owner LPN and an 8-byte seq.  Measured
#: 21.2 on CPython 3.11.
ERASED_BYTES_PER_PAGE_CEILING = 24.0

#: Bytes per physical page of a whole ``Ssd`` aged with ``age(0.85,
#: 0.1)`` and never shared.  Measured 85.2 on CPython 3.11 (85.9 on a
#: process's first build) with every aged page holding one shared filler
#: payload; 135.0 with a fresh ``("age", lpn)`` tuple per page.  The
#: ceiling is the first-build figure + 5 %.
AGED_BYTES_PER_PAGE_CEILING = 90.0

#: Bytes the reverse map adds per physical page shared once whose extra
#: reference holds a share-table slot: the page's one-LPN tuple, its
#: ``_extras`` slot, the extra LPN and the ``(ppn, lpn)`` table key.
#: Measured 238.0 on CPython 3.11 and 3.12, 230.5 on 3.9 (322.0 with a
#: dict per shared page); the ceiling is the 3.11 figure + 15 %.
SHARED_IN_TABLE_BYTES_PER_PAGE_CEILING = 274.0

#: The same for an extra reference that spilled: no table key.  Measured
#: 146.1 on CPython 3.11 and 3.12, 138.3 on 3.9 (322.0 with a dict per
#: shared page); the ceiling is the 3.11 figure + 15 %.
SHARED_SPILLED_BYTES_PER_PAGE_CEILING = 168.0

#: Transient host bytes per trimmed LPN: the tracemalloc peak of a TRIM
#: of a whole mapped range above what the TRIM leaves allocated.  The
#: slice of old L2P entries costs one list slot per LPN.  Measured 10.0
#: on CPython 3.9, 3.11 and 3.12; 66.0 when ``clear_range`` returned an
#: ``(lpn, old_ppn)`` pair per LPN.
TRIM_TRANSIENT_BYTES_PER_LPN_CEILING = 16.0

#: Host bytes a 3-shard quorum cluster keeps per acked overwrite once
#: replication is pumped: the log holds only what some replica still
#: lacks.  Measured 3.3 on CPython 3.11; 140.4 when the log kept every
#: record.
REPL_BYTES_PER_ACKED_WRITE_CEILING = 16.0

#: Host bytes per record of a map block filled with full 128-record
#: mapping pages: 40 packed bytes per record plus each page's share of
#: its ``bytes`` header, seal tuple and spare tag.  Measured 42.0 on
#: CPython 3.11.
MAP_LOG_BYTES_PER_RECORD_CEILING = 64.0


def traced(build):
    """(what ``build()`` returned, bytes it left allocated, GC-tracked
    objects it left behind)."""
    gc.collect()
    tracemalloc.start()
    try:
        objects = len(gc.get_objects())
        before = tracemalloc.get_traced_memory()[0]
        built = build()
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - before
        return built, grown, len(gc.get_objects()) - objects
    finally:
        tracemalloc.stop()


def test_fresh_nand_array_allocates_no_object_per_page():
    geometry = FlashGeometry(page_size=4096, pages_per_block=128,
                             block_count=512)
    assert geometry.total_pages == 64 * 1024
    __, grown, objects = traced(lambda: NandArray(geometry))
    assert grown / geometry.total_pages <= ERASED_BYTES_PER_PAGE_CEILING
    assert objects < 100


def test_aged_unshared_device_holds_no_reference_set():
    geometry = FlashGeometry(page_size=4096, pages_per_block=64,
                             block_count=256, channel_count=4)

    def build():
        ssd = Ssd(SimClock(), SsdConfig(geometry=geometry,
                                        timing=FAST_TIMING,
                                        ftl=FtlConfig(map_block_count=8)))
        ssd.age(0.85, 0.1)
        return ssd

    ssd, grown, __ = traced(build)
    assert ssd.ftl.rev._extras == {} and ssd.ftl.rev._table == {}
    assert ssd.ftl.rev.shared_pages() == 0
    per_page = grown / geometry.total_pages
    assert per_page <= AGED_BYTES_PER_PAGE_CEILING, (
        f"{per_page:.1f} bytes per physical page, ceiling "
        f"{AGED_BYTES_PER_PAGE_CEILING}")
    ssd.ftl.check_invariants()


def test_shared_page_costs_one_small_tuple():
    pages = 4096
    # Every extra in the table / every extra but the first spilled.
    for capacity, ceiling in ((pages, SHARED_IN_TABLE_BYTES_PER_PAGE_CEILING),
                              (1, SHARED_SPILLED_BYTES_PER_PAGE_CEILING)):
        rev = ReverseMap(capacity, pages)
        for ppn in range(pages):
            rev.set_primary(ppn, 10_000 + ppn)

        def share():
            # LPNs past the small-int cache, as on a real device.
            for ppn in range(pages):
                rev.add_extra(ppn, 20_000 + ppn)

        __, grown, __ = traced(share)
        assert rev.shared_pages() == pages
        assert rev.spilled_entries == (0 if capacity == pages
                                       else pages - 1)
        assert len(rev._table) == rev.extra_entries == min(capacity, pages)
        per_page = grown / pages
        assert per_page <= ceiling, (
            f"{per_page:.1f} bytes per shared page at capacity {capacity}, "
            f"ceiling {ceiling}")
        rev.check()


def test_trim_walks_the_old_entries_without_a_pair_per_lpn():
    geometry = FlashGeometry(page_size=4096, pages_per_block=128,
                             block_count=512)
    ftl = PageMappingFtl(NandArray(geometry), FtlConfig(map_block_count=8))
    first, lpns = 1000, 40_000
    ftl.write_run(first, [("trim", "probe")] * lpns)
    ftl.flush()
    gc.collect()
    tracemalloc.start()
    try:
        ftl.trim(first, lpns)
        gc.collect()
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ftl.stats.trim_pages == lpns and ftl.fwd.mapped_count == 0
    per_lpn = (peak - retained) / lpns
    assert per_lpn <= TRIM_TRANSIENT_BYTES_PER_LPN_CEILING, (
        f"{per_lpn:.1f} transient bytes per trimmed LPN, ceiling "
        f"{TRIM_TRANSIENT_BYTES_PER_LPN_CEILING}")
    ftl.check_invariants()


def test_mapping_pages_hold_packed_records():
    geometry = FlashGeometry(page_size=4096, pages_per_block=64,
                             block_count=16)
    nand = NandArray(geometry)
    per_page = 128
    log = MapLog(nand, geometry, [14, 15], records_per_page=per_page)

    def fill():
        # Field values past the small-int cache, as on a real device.
        for page in range(geometry.pages_per_block):
            base = 1000 + page * per_page
            log.append_atomic([(KIND_SHARE, base + i, 5000 + base + i,
                                90000 + base + i, base + i)
                               for i in range(per_page)])

    __, grown, __ = traced(fill)
    assert nand.programmed_pages_in_block(14) == geometry.pages_per_block
    assert log.checkpoints == 0
    per_record = grown / (geometry.pages_per_block * per_page)
    assert per_record <= MAP_LOG_BYTES_PER_RECORD_CEILING, (
        f"{per_record:.1f} bytes per mapping-log record, ceiling "
        f"{MAP_LOG_BYTES_PER_RECORD_CEILING}")
    assert len(MapLog.scan(nand, geometry, [14, 15])[0]) == \
        geometry.pages_per_block * per_page


def test_replication_log_keeps_only_the_lag():
    """Overwrites through a pumped 3 x (1 + 2) quorum-2 cluster: after
    each pump every record is on every replica, so the log is cut to
    nothing and the churn leaves (almost) no host bytes behind."""
    router = quorum_cluster(SimClock())
    groups = list(router.pairs.values())
    keys = [("node", n) for n in range(60)]
    for key in keys:
        router.put(key, 0)
    router.pump_replication()
    writes = 3000

    def churn():
        # Small ints as payloads: stale pages keep no object alive.
        for n in range(writes):
            router.put(keys[n % len(keys)], n % 200)
            if n % 16 == 15:
                router.pump_replication()
        router.pump_replication()

    __, grown, __ = traced(churn)
    assert sum(group.log.tip for group in groups) == len(keys) + writes
    assert [len(group.log) for group in groups] == [0, 0, 0]
    per_write = grown / writes
    assert per_write <= REPL_BYTES_PER_ACKED_WRITE_CEILING, (
        f"{per_write:.1f} host bytes kept per acked write, ceiling "
        f"{REPL_BYTES_PER_ACKED_WRITE_CEILING}")


def test_reference_sets_are_bounded_by_the_pages_ever_shared():
    """A GC-bound share/overwrite/trim churn: a page holds an extras tuple
    exactly while it is shared, and every shared page is one some
    ``share`` named as its source or a GC copy of one, so there are never
    more tuples than source pages seen; the share table never holds more
    keys than its 16 slots."""
    ssd = Ssd(SimClock(), SsdConfig(
        geometry=FlashGeometry.small(channel_count=2), timing=FAST_TIMING,
        ftl=FtlConfig(map_block_count=4, share_table_entries=16)))
    ftl = ssd.ftl
    rng = random.Random(21)
    span = int(ssd.logical_pages * 0.85)
    for lpn in range(span):
        ssd.write(lpn, ("fill", lpn))
    source_pages = set()
    shares = 0
    for step in range(6000):
        roll = rng.random()
        lpn, source = rng.randrange(span), rng.randrange(span)
        if roll < 0.30 and lpn != source and ftl.fwd.is_mapped(source):
            source_pages.add(ftl.fwd.lookup(source))
            ssd.share(lpn, source)
            shares += 1
        elif roll < 0.95:
            ssd.write(lpn, ("v", lpn, step))
        else:
            ssd.trim(lpn)
        assert len(ftl.rev._extras) == ftl.rev.shared_pages()
        assert len(ftl.rev._extras) <= len(source_pages)
        assert len(ftl.rev._table) == ftl.rev.extra_entries <= 16
    assert shares > 1000 and ftl.stats.gc_events > 20
    assert ftl.stats.share_log_spills > 0      # the table did overflow
    assert ftl.rev.shared_pages() > 0
    ftl.check_invariants()
