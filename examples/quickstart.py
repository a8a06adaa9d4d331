#!/usr/bin/env python3
"""Quickstart: the SHARE command in five minutes.

Builds a simulated SHARE-capable SSD, demonstrates the core remapping
semantics (two logical pages sharing one physical page), shows that a
SHARE batch is atomic across power failure, builds the journaling-free
atomic multi-page write on top of it, and finishes with a file copy that
copies no data (a filesystem "reflink").

Run:  python examples/quickstart.py
"""

from repro.core import AtomicWriter, ScratchArea
from repro.errors import PowerFailure
from repro.flash.geometry import FlashGeometry
from repro.host.filesystem import METADATA_PAGES_PER_COMMIT, HostFs
from repro.sim.clock import SimClock
from repro.sim.faults import FaultPlan, PowerFailAfter
from repro.ssd.device import Ssd, SsdConfig


def main() -> None:
    clock = SimClock()
    faults = FaultPlan()
    ssd = Ssd(clock, SsdConfig(geometry=FlashGeometry.small()), faults=faults)
    print(f"device: {ssd.logical_pages} logical pages x {ssd.page_size} B, "
          f"atomic SHARE batch limit {ssd.max_share_batch} pairs")

    # --- 1. the basic remap -------------------------------------------------
    ssd.write(100, "original content of LPN 100")
    ssd.write(200, "new version, staged at LPN 200")
    ssd.share(dst_lpn=100, src_lpn=200)
    print("\nafter share(100, 200):")
    print("  read(100) ->", ssd.read(100))
    print("  read(200) ->", ssd.read(200))
    print("  (one physical page, two logical addresses)")

    # Overwriting the source does NOT disturb the destination: the share
    # captured a snapshot of the mapping.
    ssd.write(200, "source moved on")
    print("\nafter overwriting LPN 200:")
    print("  read(100) ->", ssd.read(100))
    print("  read(200) ->", ssd.read(200))

    # --- 2. atomicity across power failure ---------------------------------
    ssd.write(300, "old A")
    ssd.write(301, "old B")
    ssd.write(400, "new A")
    ssd.write(401, "new B")
    faults.arm(PowerFailAfter("maplog.before_commit"))
    try:
        ssd.share(300, 400, length=2)
    except PowerFailure:
        print("\npower failed BEFORE the mapping-log commit...")
    ssd.power_cycle()
    print("  after reboot: read(300) ->", ssd.read(300), "(old mapping kept)")

    faults.disarm()
    ssd.share(300, 400, length=2)
    ssd.power_cycle()
    print("  after a completed share + reboot: read(300) ->", ssd.read(300))

    # --- 3. journaling-free atomic multi-page writes ------------------------
    scratch = ScratchArea(ssd, base_lpn=1000, size_pages=64)
    writer = AtomicWriter(ssd, scratch)
    for lpn, payload in [(500, "page-1/3"), (501, "page-2/3"),
                         (502, "page-3/3")]:
        writer.stage(lpn, payload)
    committed = writer.commit()
    print(f"\nAtomicWriter committed {committed} pages with zero redundant "
          "writes:")
    for lpn in (500, 501, 502):
        print(f"  read({lpn}) ->", ssd.read(lpn))

    stats = ssd.stats
    print(f"\ndevice counters: {stats.host_write_pages} host page writes, "
          f"{stats.share_pairs} share pairs, "
          f"WAF {stats.write_amplification:.2f}, "
          f"virtual time {clock.now_seconds * 1000:.1f} ms")

    # --- 4. a file copy that copies no data ---------------------------------
    # Section 1: with SHARE, "file copy operations can occur almost without
    # copying data".  A filesystem on its own device clones a file by
    # remapping the copy's blocks onto the original's pages.
    fs_ssd = Ssd(clock, SsdConfig(geometry=FlashGeometry.small()))
    fs = HostFs(fs_ssd)
    original = fs.create("/original")
    for index in range(8):
        original.append_block(f"block {index}")
    before = fs_ssd.stats.host_write_pages
    commands = fs.reflink_copy("/original", "/clone")
    data_pages = (fs_ssd.stats.host_write_pages - before
                  - METADATA_PAGES_PER_COMMIT)
    clone = fs.open("/clone")
    print(f"\nreflink_copy cloned {clone.block_count} blocks with "
          f"{commands} SHARE command(s) and {data_pages} data pages written")
    print("  clone block 7 ->", clone.pread_block(7))
    assert data_pages == 0


if __name__ == "__main__":
    main()
