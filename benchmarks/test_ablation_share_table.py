"""Ablation: the reverse-mapping share table (Section 4.2.1).

The paper sizes the DRAM share table at 250 entries and notes its size is
"empirically determined" by the frequency of SHARE operations and the
lifespan of shared pages.  This ablation runs a compaction-heavy workload
(hundreds of simultaneously shared pages) across table sizes.  Entries
that do not fit spill to the mapping log, where they stay resolvable (GC
pays a lookup read), so the write cost stays flat as the table shrinks.
"""

from conftest import run_once

from repro.bench.report import format_table
from repro.couchstore.compaction import compact
from repro.couchstore.engine import CommitMode, CouchConfig, CouchStore
from repro.flash.geometry import FlashGeometry
from repro.flash.timing import FAST_TIMING
from repro.ftl.config import FtlConfig
from repro.host.filesystem import FsConfig, HostFs
from repro.sim.clock import SimClock
from repro.ssd.device import Ssd, SsdConfig

DOCS = 1_500
TABLE_SIZES = (25, 250, 2_500)


def run_cell(table_entries: int) -> dict:
    clock = SimClock()
    geometry = FlashGeometry(page_size=4096, pages_per_block=128,
                             block_count=128, overprovision_ratio=0.08)
    ssd = Ssd(clock, SsdConfig(
        geometry=geometry, timing=FAST_TIMING,
        ftl=FtlConfig(share_table_entries=table_entries,
                      map_block_count=8)))
    fs = HostFs(ssd, FsConfig())
    store = CouchStore(fs, "/db", CommitMode.SHARE, CouchConfig())
    for key in range(DOCS):
        store.set(key, ("v", key))
        if key % 100 == 99:
            store.commit()
    store.commit()
    for key in range(DOCS):
        store.set(key, ("v2", key))
        if key % 16 == 15:
            store.commit()
    store.commit()
    ssd.reset_measurement()
    clock.reset()
    new_store, result = compact(store, clock)
    sample_ok = all(new_store.get(key) == ("v2", key)
                    for key in range(0, DOCS, 131))
    assert sample_ok
    return {
        "table": table_entries,
        "elapsed_s": result.elapsed_seconds,
        "written_pages": ssd.stats.host_write_pages,
        "log_spills": ssd.ftl.stats.share_log_spills,
    }


def test_share_table_size_ablation(benchmark, scale):
    rows = run_once(benchmark,
                    lambda: [run_cell(size) for size in TABLE_SIZES])
    print()
    print(format_table(
        ["table entries", "compaction s", "pages written", "log spills"],
        [[r["table"], r["elapsed_s"], r["written_pages"], r["log_spills"]]
         for r in rows],
        title="Ablation: share-table size"))
    # Write cost flat regardless of table size.
    costs = [r["written_pages"] for r in rows]
    assert max(costs) <= min(costs) * 1.05
