"""Experiment stack builders.

Every experiment assembles the same kind of stack the paper's testbed had:

* an OpenSSD stand-in (SHARE-capable simulated SSD, MLC timing) holding
  the database,
* for MySQL, a second plain SSD as the log device (the Samsung PM853T),
* a host filesystem with ordered metadata journaling,
* the engine under test.

The paper's absolute sizes (1.5 GB LinkBench database, 50–150 MB buffer
pool, 1 GB / 250 k-record YCSB store) are scaled down by a constant factor
so a full figure regenerates in minutes of wall time; every ratio the
figures depend on (buffer-to-database, over-provisioning, batch sizes) is
preserved.  ``Scale.FULL`` restores the paper's record counts for
overnight runs.

Every builder takes ``l2p_strategy`` (``"flat"`` or ``"delta"``, see
:mod:`repro.ftl.mapping`) and puts it in the ``FtlConfig`` of each device
it builds, so the backing is the stack's, not one device's.
"""

from __future__ import annotations

import dataclasses
import enum
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.flash.geometry import FlashGeometry
from repro.flash.timing import SATA_SSD_TIMING
from repro.ftl.config import FtlConfig
from repro.couchstore.engine import CommitMode, CouchConfig, CouchStore
from repro.host.filesystem import FsConfig, HostFs
from repro.innodb.engine import FlushMode, InnoDBConfig, InnoDBEngine
from repro.postgres.engine import PostgresConfig, PostgresEngine
from repro.sim.clock import SimClock
from repro.sim.events import EventScheduler
from repro.ssd.device import Ssd, SsdConfig
from repro.ssd.ncq import NativeCommandQueue

KIB = 1024
MIB = 1024 * KIB

#: The paper's database sizes.
PAPER_LINKBENCH_DB_BYTES = 1536 * MIB
PAPER_YCSB_RECORDS = 250_000


def _map_blocks_for(block_count: int) -> int:
    """Mapping-log region size: proportional to capacity (real FTLs
    reserve capacity-proportional metadata space) with a small floor."""
    return max(4, block_count // 24)


class Scale(enum.Enum):
    """Experiment scale: QUICK regenerates every figure in minutes; FULL
    uses the paper's record counts."""

    TINY = "tiny"      # CI-sized, seconds per cell
    QUICK = "quick"    # default, minutes per figure
    FULL = "full"      # paper-sized record counts


@dataclass(frozen=True)
class ScaleParams:
    linkbench_nodes: int
    linkbench_transactions: int
    ycsb_records: int
    ycsb_operations: int
    pgbench_scale: int
    pgbench_transactions: int


SCALES = {
    Scale.TINY: ScaleParams(
        linkbench_nodes=2_000, linkbench_transactions=3_000,
        ycsb_records=4_000, ycsb_operations=3_000,
        pgbench_scale=1, pgbench_transactions=2_000),
    Scale.QUICK: ScaleParams(
        linkbench_nodes=12_000, linkbench_transactions=16_000,
        ycsb_records=40_000, ycsb_operations=16_000,
        pgbench_scale=2, pgbench_transactions=8_000),
    Scale.FULL: ScaleParams(
        linkbench_nodes=120_000, linkbench_transactions=160_000,
        ycsb_records=PAPER_YCSB_RECORDS, ycsb_operations=100_000,
        pgbench_scale=10, pgbench_transactions=50_000),
}


# --------------------------------------------------------------------------
# InnoDB / LinkBench stack
# --------------------------------------------------------------------------

@dataclass
class InnoDbStack:
    """One assembled MySQL-style stack."""

    clock: SimClock
    data_ssd: Ssd
    log_ssd: Ssd
    engine: InnoDBEngine


def innodb_device_geometry(page_size: int, db_pages_estimate: int
                           ) -> FlashGeometry:
    """Size the OpenSSD stand-in with the paper's database-to-device
    ratio: the 1.5 GB LinkBench database lived on a 4 GB OpenSSD (~40 %
    utilization).  That ratio sets the steady-state block survival time,
    which is what makes SHARE's garbage-collection reductions (Figure 6 b
    and c) come out at the paper's magnitudes."""
    needed_logical = int(db_pages_estimate * 2.3) + 700
    pages_per_block = 128
    block_count = max(24, -(-needed_logical
                            // int(pages_per_block * 0.92)) + 4)
    return FlashGeometry(page_size=page_size,
                         pages_per_block=pages_per_block,
                         block_count=block_count,
                         overprovision_ratio=0.08)


def build_innodb_stack(mode: FlushMode, page_size: int,
                       buffer_pool_pages: int, db_pages_estimate: int,
                       age_device: bool = True,
                       trace_capacity: int = 0,
                       telemetry=None,
                       queue_depth: int = 1,
                       channel_count: Optional[int] = None,
                       interval_capacity: int = 0,
                       l2p_strategy: str = "flat") -> InnoDbStack:
    """Assemble data device + log device + engine for one experiment cell.

    The B-tree leaf capacity scales with the page size: bigger pages
    hold proportionally more rows, exactly why the paper's Figure 5(a)
    varies the page size.  ``age_device`` reproduces Section 5.1's aging
    pre-run so garbage collection is active in steady state.  Passing a
    :class:`repro.obs.Telemetry` instruments both devices (metric prefixes
    ``device.data`` and ``device.log``) and every layer above them.

    ``queue_depth``/``channel_count`` configure the event-driven
    execution core.  The defaults reproduce the serial model
    bit-for-bit.  At ``queue_depth=1`` both devices share one native
    command queue — the host issues synchronously, one command
    outstanding across the whole stack, exactly the old model; at
    higher depths each device gets its own queue and commands from
    different clients pipeline.

    ``trace_capacity`` / ``interval_capacity`` bound the data device's
    command trace and per-channel busy-interval capture (both rings keep
    the newest entries: the Chrome-trace exporter wants the run's tail).
    """
    clock = SimClock()
    events = EventScheduler(clock)
    shared_ncq = NativeCommandQueue(1) if queue_depth == 1 else None
    geometry = innodb_device_geometry(page_size, db_pages_estimate)
    if channel_count is not None:
        geometry = dataclasses.replace(geometry,
                                       channel_count=channel_count)
    data_ssd = Ssd(clock, SsdConfig(
        geometry=geometry,
        ftl=FtlConfig(map_block_count=_map_blocks_for(geometry.block_count),
                      l2p_strategy=l2p_strategy),
        trace_capacity=trace_capacity, queue_depth=queue_depth,
        interval_capacity=interval_capacity),
        telemetry=telemetry, name="data", events=events, ncq=shared_ncq)
    if age_device:
        # Light sequential pre-fill of the region the database will NOT
        # overwrite is pointless cold weight; the paper-faithful aging is
        # the workload warm-up the experiment driver performs, which
        # fragments exactly the blocks the benchmark churns.  A thin
        # pre-fill of the low LPNs seeds that fragmentation.
        data_ssd.age(fill_fraction=0.35, rewrite_fraction=0.2)
    log_geometry = FlashGeometry(page_size=page_size, pages_per_block=128,
                                 block_count=max(
                                     32, geometry.block_count // 2),
                                 overprovision_ratio=0.08,
                                 channel_count=geometry.channel_count)
    log_ssd = Ssd(clock, SsdConfig(geometry=log_geometry,
                                   timing=SATA_SSD_TIMING,
                                   share_enabled=False,
                                   # ``l2p_strategy`` selects the stack's
                                   # backing, not one device's (each
                                   # reports its own ftl.l2p.* gauges).
                                   ftl=FtlConfig(
                                       l2p_strategy=l2p_strategy),
                                   queue_depth=queue_depth),
                  telemetry=telemetry, name="log", events=events,
                  ncq=shared_ncq)
    leaf_capacity = max(8, 32 * (page_size // 4096))
    config = InnoDBConfig(
        buffer_pool_pages=buffer_pool_pages,
        flush_batch_pages=64,
        dwb_pages=128,
        leaf_capacity=leaf_capacity,
        internal_fanout=max(16, 2 * leaf_capacity))
    engine = InnoDBEngine(mode, data_ssd, log_ssd, config)
    return InnoDbStack(clock, data_ssd, log_ssd, engine)


def buffer_pages_for(paper_buffer_mib: int, db_pages: int,
                     page_size: int) -> int:
    """Translate the paper's buffer-pool size into the scaled stack.

    The paper pairs a 50–150 MiB pool with a 1.5 GiB database; keeping the
    pool-to-database *ratio* reproduces the same miss behaviour at any
    scale."""
    ratio = (paper_buffer_mib * MIB) / PAPER_LINKBENCH_DB_BYTES
    return max(64, int(db_pages * ratio))


# --------------------------------------------------------------------------
# Couchstore / YCSB stack
# --------------------------------------------------------------------------

@dataclass
class CouchStack:
    """One assembled Couchbase-style stack."""

    clock: SimClock
    ssd: Ssd
    fs: HostFs
    store: CouchStore


def build_couch_stack(mode: CommitMode, record_count: int,
                      operations_estimate: int,
                      config: Optional[CouchConfig] = None,
                      telemetry=None,
                      queue_depth: int = 1,
                      channel_count: Optional[int] = None,
                      l2p_strategy: str = "flat") -> CouchStack:
    """Assemble the device + filesystem + couchstore for one cell.

    The device is sized for the record set plus the append churn of the
    run so compaction pressure (stale ratio) builds as in the paper.
    ``telemetry`` instruments the device (prefix ``device.data``) and the
    store above it.  ``queue_depth``/``channel_count`` configure the
    event-driven core; the defaults reproduce the serial model
    bit-for-bit."""
    clock = SimClock()
    churn = operations_estimate * 6
    needed_logical = record_count * 2 + churn + 4096
    geometry = FlashGeometry(page_size=4 * KIB, pages_per_block=128,
                             block_count=max(
                                 64, -(-needed_logical // int(128 * 0.92))),
                             overprovision_ratio=0.08)
    if channel_count is not None:
        geometry = dataclasses.replace(geometry,
                                       channel_count=channel_count)
    ssd = Ssd(clock, SsdConfig(
        geometry=geometry,
        ftl=FtlConfig(map_block_count=_map_blocks_for(geometry.block_count),
                      l2p_strategy=l2p_strategy),
        queue_depth=queue_depth),
        telemetry=telemetry, name="data")
    fs = HostFs(ssd, FsConfig())
    store = CouchStore(fs, "/db.couch", mode, config or CouchConfig())
    return CouchStack(clock, ssd, fs, store)


# --------------------------------------------------------------------------
# PostgreSQL / pgbench stack
# --------------------------------------------------------------------------

def build_postgres_stack(full_page_writes: bool, scale: int,
                         l2p_strategy: str = "flat"
                         ) -> Tuple[SimClock, Ssd, Ssd, PostgresEngine]:
    """Assemble a heap device + WAL device + engine."""
    clock = SimClock()
    data_pages = scale * 10_000 // 32 + scale * 10_000 // 32 + 4096
    geometry = FlashGeometry(page_size=4 * KIB, pages_per_block=128,
                             block_count=max(
                                 64, -(-(data_pages * 2) // int(128 * 0.92))),
                             overprovision_ratio=0.08)
    ftl_config = FtlConfig(l2p_strategy=l2p_strategy)
    data_ssd = Ssd(clock, SsdConfig(geometry=geometry, share_enabled=False,
                                    ftl=ftl_config))
    wal_ssd = Ssd(clock, SsdConfig(geometry=geometry, share_enabled=False,
                                   ftl=ftl_config))
    # Frequent checkpoints (as with pgbench's default-sized WAL) keep the
    # full-page-image cost recurring — the regime the paper's in-text
    # experiment measured.
    engine = PostgresEngine(data_ssd, wal_ssd, PostgresConfig(
        full_page_writes=full_page_writes,
        checkpoint_interval_commits=300))
    return clock, data_ssd, wal_ssd, engine


# --------------------------------------------------------------------------
# Sharded cluster stack
# --------------------------------------------------------------------------

@dataclass
class ClusterStack:
    """One assembled sharded tier: M replicated groups behind a router."""

    clock: SimClock
    events: EventScheduler
    router: "ShardRouter"
    pairs: Tuple["ShardGroup", ...]
    #: Pre-built groups *not* in the ring — candidates for a live
    #: ``router.start_rebalance(add=...)`` join.
    spares: Tuple["ShardGroup", ...] = ()


def build_cluster_stack(shards: int = 3, keys_estimate: int = 4_000,
                        telemetry=None, faults=None,
                        queue_depth: int = 4, channel_count: int = 2,
                        replicas: int = 1,
                        write_quorum: int = 1,
                        spare_shards: int = 0,
                        l2p_strategy: str = "flat") -> ClusterStack:
    """Assemble ``shards`` shard groups (primary + ``replicas`` peer
    devices each) behind a :class:`~repro.cluster.router.ShardRouter`.

    All ``(1 + replicas) * shards`` devices share one clock and one
    event scheduler (completions from different shards interleave in
    global time), but each device has its own NCQ and channel set — a
    shard's queue filling up backpressures only that shard.  Per-device
    capacity is sized for the worst shard of the consistent-hash split
    (keys spread unevenly) plus overwrite churn headroom.
    ``write_quorum`` > 1 makes each group synchronously apply every
    write to ``write_quorum - 1`` replicas before acking.
    ``spare_shards`` builds that many extra groups on the same clock
    and scheduler but leaves them out of the ring — ready to join via
    ``router.start_rebalance(add=stack.spares[i])``.
    """
    from repro.cluster import ShardGroup, ShardRouter
    from repro.sim.faults import NO_FAULTS

    if shards < 1:
        raise ValueError(f"shards must be >= 1: {shards}")
    if replicas < 0:
        raise ValueError(f"replicas must be >= 0: {replicas}")
    clock = SimClock()
    events = EventScheduler(clock)
    # Hash imbalance headroom (~1.5x the even split) and overwrite
    # churn headroom so GC is active but the shard never fills.
    per_shard_keys = max(256, (keys_estimate * 3) // (2 * shards))
    needed_logical = int(per_shard_keys * 2.0) + 256
    pages_per_block = 64
    block_count = max(24, -(-needed_logical
                            // int(pages_per_block * 0.90)) + 4)
    geometry = FlashGeometry(page_size=4 * KIB,
                             pages_per_block=pages_per_block,
                             block_count=block_count,
                             overprovision_ratio=0.12,
                             channel_count=channel_count)

    def device(name: str) -> Ssd:
        return Ssd(clock, SsdConfig(
            geometry=geometry,
            ftl=FtlConfig(
                share_table_entries=max(64, per_shard_keys // 4),
                map_block_count=_map_blocks_for(block_count),
                l2p_strategy=l2p_strategy),
            queue_depth=queue_depth),
            telemetry=telemetry, name=name, events=events)

    def group(index: int) -> "ShardGroup":
        primary = device(f"s{index}p")
        if replicas == 1:
            reps = [device(f"s{index}r")]
        else:
            reps = [device(f"s{index}r{rep}") for rep in range(replicas)]
        return ShardGroup(f"shard{index}", primary, reps,
                          write_quorum=write_quorum)

    pairs = [group(index) for index in range(shards)]
    spares = [group(shards + extra) for extra in range(spare_shards)]
    router = ShardRouter(pairs, clock,
                         faults=faults if faults is not None else NO_FAULTS,
                         telemetry=telemetry)
    return ClusterStack(clock, events, router, tuple(pairs), tuple(spares))
