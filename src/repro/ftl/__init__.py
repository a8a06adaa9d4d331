"""Flash Translation Layer with the paper's SHARE extension.

The FTL implements classic page mapping (Section 4.2 of the paper): a
DRAM-resident L2P table, greedy garbage collection over data blocks, and a
mapping delta log persisted to a reserved map region of the array.  The
SHARE extension adds:

* the ``share(pairs)`` command — atomic batched remapping of destination
  LPNs onto the physical pages of source LPNs,
* a bounded reverse-mapping ("share") table so physical pages referenced by
  more than one LPN stay reclaimable by GC,
* delta-log records ``(LPN, old PPN, new PPN)`` whose single-page program is
  the atomic commit point of a SHARE batch (Figure 4).
"""

from repro.ftl.config import FtlConfig
from repro.ftl.deltalog import DeltaRecord, MapLog
from repro.ftl.pagemap import FtlStats, PageMappingFtl
from repro.ftl.reverse import ReverseMap
from repro.ftl.share_ext import MAX_BATCH_UNLIMITED, SharePair, expand_range, validate_batch

__all__ = [
    "FtlConfig",
    "DeltaRecord",
    "MapLog",
    "FtlStats",
    "PageMappingFtl",
    "ReverseMap",
    "SharePair",
    "expand_range",
    "validate_batch",
    "MAX_BATCH_UNLIMITED",
]
