"""Host-memory gates for the per-physical-page structures.

The footprint twin of ``test_hot_path_budget.py``: a simulated device
must not cost a Python object per physical page.  ``NandArray`` keeps
page state in three PPN-indexed arrays and ``ReverseMap`` keeps the
primary reference in one, with a reference *set* only for a page that
has been shared in its current life — the paper's split between the
spare-area stamp and the bounded share table (§4.2.1).  ``tracemalloc``
byte counts repeat closely for a given interpreter, so the ceilings
below are the regression fence for "someone re-introduced an object per
page"; the object-per-page layout this replaced measured 112.8 bytes per
erased page and 566.8 per aged page on the same probes.
"""

import gc
import random
import tracemalloc

from repro.flash.geometry import FlashGeometry
from repro.flash.nand import NandArray
from repro.flash.timing import FAST_TIMING
from repro.ftl.config import FtlConfig
from repro.sim.clock import SimClock
from repro.ssd.device import Ssd, SsdConfig

#: Bytes per page of a fresh ``NandArray``: one state byte and two list
#: slots.  Measured 17.2 on CPython 3.9, 3.11 and 3.12.
ERASED_BYTES_PER_PAGE_CEILING = 24.0

#: Bytes per physical page of a whole ``Ssd`` aged with ``age(0.85,
#: 0.1)`` and never shared — dominated by what the run stored (payload
#: tuples, spare stamps ``((lpn, seq),)`` and their ints), which are not
#: per-page bookkeeping.  Measured 236.9 on CPython 3.9, 245.0 on 3.11,
#: 243.9 on 3.12; the ceiling is the largest + 15 %.
AGED_BYTES_PER_PAGE_CEILING = 282.0


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
    assert ssd.ftl.rev._refs == {}
    assert ssd.ftl.rev.shared_pages() == 0
    per_page = grown / geometry.total_pages
    assert per_page <= AGED_BYTES_PER_PAGE_CEILING, (
        f"{per_page:.1f} bytes per physical page, ceiling "
        f"{AGED_BYTES_PER_PAGE_CEILING}")
    ssd.ftl.check_invariants()


def test_reference_sets_are_bounded_by_the_pages_ever_shared():
    """A GC-bound share/overwrite/trim churn: every set is born at a
    page some ``share`` named as its source, or replaces one that GC
    moved, so there are never more sets than source pages seen."""
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
        assert len(ftl.rev._refs) <= len(source_pages)
    assert shares > 1000 and ftl.stats.gc_events > 20
    assert ftl.stats.share_log_spills > 0      # the table did overflow
    assert 0 < ftl.rev.shared_pages() <= len(ftl.rev._refs)
    ftl.check_invariants()
