"""The four perfbench workloads.

Each class builds one stack through the public builders, loads it, and
exposes the same five steps to the runner: ``setup`` (build + load +
warm-up + measurement reset), ``run(ops)`` (the next ``ops`` operations
of the closed loop), ``counters`` (cumulative layer counters, read before
and after a region), ``trace_targets`` (what the span pass wraps besides
the fixed layer boundaries) and ``verify``.

Sizes are constants here.  An op count is ``rate x seconds`` with the
rate fixed per workload, so a given ``--seconds`` always runs exactly
the same operations: the virtual-clock metrics repeat bit for bit.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate
from time import perf_counter
from typing import Dict, List, NamedTuple

from repro.bench.harness import (buffer_pages_for, build_cluster_stack,
                                 build_couch_stack, build_innodb_stack)
from repro.couchstore.engine import CommitMode
from repro.errors import UnmappedPageError
from repro.flash.geometry import FlashGeometry
from repro.ftl.config import FtlConfig
from repro.innodb.engine import FlushMode
from repro.sim.clock import SimClock
from repro.sim.events import EventScheduler
from repro.sim.rng import ScrambledZipfian, make_rng
from repro.ssd.device import Ssd, SsdConfig
from repro.ssd.ncq import DeviceSession
from repro.workloads.linkbench import (READ_OPS, ClusterLinkBenchDriver,
                                       LinkBenchConfig, LinkBenchDriver)
from repro.workloads.ycsb import YcsbConfig, YcsbDriver, YcsbWorkload


class Region(NamedTuple):
    """What one ``run(ops)`` call observed on the virtual clock."""

    ops: int
    virtual_s: float
    all_ms: List[float]
    read_ms: List[float]
    write_ms: List[float]
    #: (virtual elapsed ms) of each compaction inside the region.
    compaction_ms: List[float]


def merge_regions(regions) -> Region:
    """Back-to-back regions as one."""
    merged = Region(sum(region.ops for region in regions),
                    sum(region.virtual_s for region in regions),
                    [], [], [], [])
    for region in regions:
        merged.all_ms.extend(region.all_ms)
        merged.read_ms.extend(region.read_ms)
        merged.write_ms.extend(region.write_ms)
        merged.compaction_ms.extend(region.compaction_ms)
    return merged


def _device_counters(devices) -> Dict[str, float]:
    """Device, FTL and NAND counters summed over ``devices``."""
    total: Dict[str, float] = {}

    def add(name: str, value: float) -> None:
        total[name] = total.get(name, 0) + value

    for ssd in devices:
        stats = ssd.stats
        for name in ("host_write_pages", "host_read_pages", "share_commands",
                     "share_pairs", "trim_commands", "flush_commands",
                     "gc_events", "copyback_pages", "block_erases",
                     "map_page_writes", "share_spill_pages",
                     "share_log_spills", "spill_lookups", "wear_level_moves"):
            add("ssd." + name, getattr(stats, name))
        add("ssd.nand_programs", stats.total_nand_programs)
        add("ssd.cache_hits", ssd.cache.hits)
        add("ssd.cache_misses", ssd.cache.misses)
        add("ftl.read_retries", ssd.ftl.stats.read_retries)
        add("ftl.program_fails", ssd.ftl.stats.program_fails)
        add("nand.reads", ssd.nand.total_reads)
        add("nand.programs", ssd.nand.total_programs)
        add("nand.erases", ssd.nand.total_erases)
    return total


def _guard_counters(guards) -> Dict[str, float]:
    out = {"guard.retries": 0, "guard.fallbacks": 0, "guard.fast_fails": 0}
    for guard in guards:
        out["guard.retries"] += guard.stats.retries
        out["guard.fallbacks"] += guard.stats.fallbacks
        out["guard.fast_fails"] += guard.stats.fast_fails
    return out


def _check_ftl(devices) -> List[str]:
    problems = []
    for ssd in devices:
        try:
            ssd.ftl.check_invariants()
        except AssertionError as exc:
            problems.append(f"{ssd.name}: FTL invariant: {exc!r}")
    return problems


def _split_latencies(recorder) -> tuple:
    """(all, read class, write class) samples of a LatencyRecorder."""
    everything, reads, writes = [], [], []
    for op in recorder.op_names():
        samples = recorder.histogram(op)._samples
        everything.extend(samples)
        (reads if op in READ_OPS else writes).extend(samples)
    return everything, reads, writes


class Workload:
    """Common shape; subclasses fill in the stack."""

    name = ""
    clients = 1
    #: Measured ops and warm-up ops per second of ``--seconds``.
    ops_per_second = 0
    warmup_per_second = 0

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def measured_ops(self, seconds: float) -> int:
        return max(100, int(self.ops_per_second * seconds))

    def warmup_ops(self, seconds: float) -> int:
        return max(100, int(self.warmup_per_second * seconds))

    def scheduler(self):
        """The one event scheduler every device of the stack shares."""
        return self.devices()[0].events

    def _reset_measurement(self) -> None:
        # The clock is left running: every virtual metric is a delta,
        # and the cluster's replication sessions keep absolute cursors
        # that a rewind would strand in the future.
        for ssd in self.devices():
            ssd.reset_measurement()

    def time_rare_calls(self) -> None:
        """Traced runs only: hook for timing calls too rare to distort
        the measured region (a compaction every few seconds)."""


# ------------------------------------------------------------ linkbench

class LinkbenchShare(Workload):
    name = "linkbench-share"
    clients = 16
    ops_per_second = 12_500
    warmup_per_second = 2_000
    nodes = 12_000
    page_size = 4096
    leaf_capacity = 32
    paper_buffer_mib = 100

    def setup(self, seconds: float) -> None:
        # ~8 rows per node (1 node + 5 links + 2 counts); random-order
        # inserts leave leaves about half full (the 2.1 factor).
        db_pages = max(256, int(self.nodes * 8 / self.leaf_capacity * 2.1))
        pool = buffer_pages_for(self.paper_buffer_mib, db_pages,
                                self.page_size)
        stack = build_innodb_stack(FlushMode.SHARE, self.page_size, pool,
                                   db_pages, queue_depth=4, channel_count=2)
        self.stack = stack
        self.engine = stack.engine
        self.driver = LinkBenchDriver(
            stack.engine, stack.clock,
            LinkBenchConfig(node_count=self.nodes, seed=self.seed))
        self.driver.load()
        self.driver.run(self.warmup_ops(seconds), concurrency=self.clients)
        self._reset_measurement()

    def devices(self):
        return [self.stack.data_ssd, self.stack.log_ssd]

    def run(self, ops: int) -> Region:
        result = self.driver.run(ops, concurrency=self.clients)
        everything, reads, writes = _split_latencies(result.latencies)
        return Region(ops, result.elapsed_seconds, everything, reads,
                      writes, [])

    def counters(self) -> Dict[str, float]:
        engine = self.engine
        out = _device_counters(self.devices())
        out.update(_guard_counters([engine.dwb.resilience]))
        data_stats = self.stack.data_ssd.stats
        out.update({
            "ioctl.calls": engine.dwb.resilience.stats.calls,
            "ioctl.pairs": data_stats.share_pairs,
            "pool.hits": engine.pool.hits,
            "pool.misses": engine.pool.misses,
            "pool.evictions": engine.pool.evictions,
            "innodb.flush_batches": engine.flush_batches,
            "innodb.redo_commits": engine.redo.commits,
            # Every page a SHARE flush stages is remapped exactly once.
            "innodb.flushed_pages": data_stats.share_pairs,
        })
        return out

    def trace_targets(self):
        handlers = [(self.driver._handlers, op, f"linkbench.{op}")
                    for op in self.driver._handlers]
        captured = [(tree, "_fetch", "BufferPool.fetch", "innodb")
                    for tree in self.engine.tables.values()]
        return handlers, captured

    def verify(self) -> List[str]:
        engine = self.engine
        engine.checkpoint()
        problems = _check_ftl(self.devices())
        with engine.transaction() as txn:
            for node_id in range(self.nodes):
                row = txn.get("node", node_id)
                if row is None or row[0] != "node" or row[1] != node_id:
                    problems.append(f"node {node_id} reads back {row!r}")
                    break
        for table, tree in engine.tables.items():
            previous = None
            for key, __ in tree.items():
                if previous is not None and not previous < key:
                    problems.append(
                        f"table {table}: {key!r} follows {previous!r}")
                    break
                previous = key
        return problems


# ----------------------------------------------------------------- ycsb

class YcsbFShare(Workload):
    name = "ycsb-f-share"
    clients = 1
    ops_per_second = 8_000
    warmup_per_second = 1_500
    records = 20_000
    batch_size = 16
    #: Sizes the device (6 append blocks of churn headroom per estimated
    #: op); small enough that the device garbage-collects during the run.
    operations_estimate = 7_000

    def setup(self, seconds: float) -> None:
        stack = build_couch_stack(CommitMode.SHARE, self.records,
                                  self.operations_estimate)
        self.stack = stack
        self.clock = stack.clock
        self.driver = YcsbDriver(
            stack.store, stack.clock,
            YcsbConfig(record_count=self.records, seed=self.seed))
        self.compaction_wall_s = 0.0
        self.driver.load()
        self._run(self.warmup_ops(seconds))
        self._reset_measurement()

    def devices(self):
        return [self.stack.ssd]

    def _run(self, ops: int):
        return self.driver.run(YcsbWorkload.F, ops, self.batch_size,
                               auto_compact=True, record_timeline=True,
                               concurrency=self.clients)

    def run(self, ops: int) -> Region:
        start_us = self.clock.now_us
        result = self._run(ops)
        # The driver's own histogram stops each op's clock before the
        # commit or compaction it triggers, which leaves one constant
        # (read + program) for nearly every op.  What the one closed-loop
        # client waits for is the time from one completion to the next,
        # stalls included, so that is the response time reported.  Every
        # op is a read-modify-write: read = write = all.
        samples = []
        previous = start_us
        for completed in result.completion_times_us:
            samples.append((completed - previous) / 1000.0)
            previous = completed
        return Region(ops, result.elapsed_seconds, samples, samples, samples,
                      [elapsed * 1000.0 for __, elapsed
                       in result.compactions])

    def counters(self) -> Dict[str, float]:
        store = self.driver.store      # replaced by every compaction
        out = _device_counters(self.devices())
        out.update(_guard_counters([store.resilience]))
        share_pairs = self.stack.ssd.stats.share_pairs
        out.update({"ioctl.calls": store.resilience.stats.calls,
                    "ioctl.pairs": share_pairs,
                    "couch.share_pairs": share_pairs,
                    "couch.data_blocks": store.data_blocks,
                    "couch.doc_count": store.doc_count,
                    "couch.compaction_wall_s": self.compaction_wall_s})
        return out

    def time_rare_calls(self) -> None:
        inline = self.driver._compact_inline

        def timed():
            begin = perf_counter()
            try:
                return inline()
            finally:
                self.compaction_wall_s += perf_counter() - begin
        self.driver._compact_inline = timed

    def trace_targets(self):
        return [(self.driver, "_one_op", "ycsb.read_modify_write")], []

    def verify(self) -> List[str]:
        store = self.driver.store
        problems = _check_ftl(self.devices())
        versions = set()
        newest = self.driver._versions
        for key in range(self.records):
            body = store.get(key)
            if body is None or body[1] != key:
                problems.append(f"key {key} reads back {body!r}")
                break
            version = body[2]
            if version > newest or (version and version in versions):
                problems.append(f"key {key} has impossible version "
                                f"{version} (newest {newest})")
                break
            versions.add(version)
        return problems


# --------------------------------------------------------- device-mixed

class DeviceMixed(Workload):
    """Raw device under perfbench's own generator: 55 % read, 32 % write,
    10 % share, 3 % trim, scrambled zipfian (theta 0.8) over a span
    filled to 85 % of the logical space."""

    name = "device-mixed"
    clients = 8
    ops_per_second = 24_000
    warmup_per_second = 6_000
    mix = (("read", 55.0), ("write", 32.0), ("share", 10.0), ("trim", 3.0))
    fill_fraction = 0.85
    zipf_theta = 0.8

    def setup(self, seconds: float) -> None:
        self.clock = SimClock()
        events = EventScheduler(self.clock)
        geometry = FlashGeometry(page_size=4096, pages_per_block=128,
                                 block_count=512, overprovision_ratio=0.08,
                                 channel_count=4)
        self.ssd = Ssd(self.clock, SsdConfig(
            geometry=geometry,
            ftl=FtlConfig(map_block_count=max(4, geometry.block_count // 24)),
            dram_cache_pages=1024, queue_depth=8),
            name="mixed", events=events)
        self.span = int(self.ssd.logical_pages * self.fill_fraction)
        self.shadow: Dict[int, tuple] = {}
        self._rng = make_rng(self.seed)
        self._lpns = ScrambledZipfian(self.span, theta=self.zipf_theta,
                                      seed=self.seed + 1)
        self._version = 0
        self._kinds = [kind for kind, __ in self.mix]
        self._cum_weights = list(accumulate(w for __, w in self.mix))
        self._handlers = {kind: getattr(self, "_op_" + kind)
                          for kind in self._kinds}
        for lpn in range(self.span):
            self._op_write(lpn)
        self.run(self.warmup_ops(seconds))
        self._reset_measurement()

    def devices(self):
        return [self.ssd]

    # Op handlers.  Each takes the zipfian-chosen LPN and returns true
    # when the op belongs to the read class; the shadow map mirrors
    # write/share/trim semantics for the verify step.

    def _op_read(self, lpn: int):
        if lpn not in self.shadow:      # trimmed earlier: nothing to read
            return self._op_write(lpn)
        self.ssd.read(lpn)
        return True

    def _op_write(self, lpn: int) -> None:
        self._version += 1
        payload = ("mixed", lpn, self._version)
        self.ssd.write(lpn, payload)
        self.shadow[lpn] = payload

    def _op_share(self, lpn: int) -> None:
        source = self._lpns.next()
        if source == lpn or source not in self.shadow:
            return self._op_write(lpn)
        self.ssd.share(lpn, source)
        self.shadow[lpn] = self.shadow[source]

    def _op_trim(self, lpn: int) -> None:
        self.ssd.trim(lpn)
        self.shadow.pop(lpn, None)

    def run(self, ops: int) -> Region:
        ssd = self.ssd
        start_us = self.clock.now_us
        sessions = [DeviceSession(client, start_us)
                    for client in range(self.clients)]
        kinds = self._kinds
        cum_weights = self._cum_weights
        total_weight = cum_weights[-1]
        hi = len(kinds) - 1
        random_ = self._rng.random
        next_lpn = self._lpns.next
        handlers = self._handlers
        reads: List[float] = []
        writes: List[float] = []
        try:
            for index in range(ops):
                kind = kinds[bisect_right(cum_weights,
                                          random_() * total_weight, 0, hi)]
                session = sessions[index % self.clients]
                arrival = session.now_us
                ssd.attach_session(session)
                was_read = handlers[kind](next_lpn())
                ssd.detach_session()
                latency = (session.now_us - arrival) / 1000.0
                (reads if was_read else writes).append(latency)
                ssd.poll(session.now_us)
        finally:
            ssd.detach_session()
        ssd.drain()
        return Region(ops, (self.clock.now_us - start_us) / 1e6,
                      reads + writes, reads, writes, [])

    def counters(self) -> Dict[str, float]:
        return _device_counters(self.devices())

    def trace_targets(self):
        return [(self._handlers, kind, f"mixed.{kind}")
                for kind in self._handlers], []

    def verify(self) -> List[str]:
        problems = _check_ftl(self.devices())
        ssd = self.ssd
        shadow = self.shadow
        for lpn in range(self.span):
            expected = shadow.get(lpn)
            try:
                found = ssd.read(lpn)
            except UnmappedPageError:
                found = None
            if found != expected:
                problems.append(
                    f"LPN {lpn} reads back {found!r}, shadow has "
                    f"{expected!r}")
                break
        return problems


# -------------------------------------------------------------- cluster

class ClusterQuorum(Workload):
    name = "cluster-quorum"
    clients = 4
    ops_per_second = 12_000
    warmup_per_second = 500
    nodes = 3_000
    shards = 3
    replicas = 2
    #: Keys the devices are sized for, per loaded node.  The load writes
    #: about 5 keys per node and the mix adds one key per 5 ops, so the
    #: fullest shard ends a run near 70 % of its capacity.
    keys_per_node = 8

    def setup(self, seconds: float) -> None:
        stack = build_cluster_stack(
            shards=self.shards, replicas=self.replicas, write_quorum=2,
            keys_estimate=self.nodes * self.keys_per_node, queue_depth=4,
            channel_count=2)
        # Devices this size would not garbage-collect before the run
        # ends; the paper's aging pre-run puts them in steady state.
        for ssd in stack.router.devices:
            ssd.age(fill_fraction=0.85, rewrite_fraction=0.1)
        self.stack = stack
        self.router = stack.router
        self.driver = ClusterLinkBenchDriver(
            stack.router, stack.clock,
            LinkBenchConfig(node_count=self.nodes, links_per_node=2,
                            seed=self.seed))
        self.driver.load()
        self.driver.run(self.warmup_ops(seconds), concurrency=self.clients)
        self._reset_measurement()

    def devices(self):
        return self.router.devices

    def run(self, ops: int) -> Region:
        result = self.driver.run(ops, concurrency=self.clients)
        everything, reads, writes = _split_latencies(result.latencies)
        return Region(ops, result.elapsed_seconds, everything, reads,
                      writes, [])

    def counters(self) -> Dict[str, float]:
        router = self.router
        groups = list(router.pairs.values())
        out = _device_counters(self.devices())
        out.update(_guard_counters([group.guard for group in groups]))
        stats = router.stats
        out.update({
            "cluster.kv_calls": stats.ops,
            "cluster.acked_writes": stats.acked_writes,
            "cluster.reads": stats.reads,
            "cluster.replica_reads": stats.replica_reads,
            "cluster.replica_read_fallbacks": stats.replica_read_fallbacks,
            "cluster.cross_shard_copies": stats.cross_shard_copies,
            "cluster.applied": sum(rep.applier.applied for group in groups
                                   for rep in group.replicas),
            "cluster.quorum_syncs": sum(g.quorum_syncs for g in groups),
            "cluster.quorum_degraded": sum(g.quorum_degraded
                                           for g in groups),
            "cluster.backpressure_waits": sum(g.backpressure_waits
                                              for g in groups),
            "cluster.log_records": sum(len(g.log) for g in groups),
        })
        return out

    def trace_targets(self):
        return [(self.driver._handlers, op, f"cluster.{op}")
                for op in self.driver._handlers], []

    def verify(self) -> List[str]:
        router = self.router
        router.pump_replication()
        router.drain()
        problems = _check_ftl(self.devices())
        for node_id in range(self.nodes):
            row = router.get(("node", node_id))
            if row is None or row[1] != node_id:
                problems.append(f"node {node_id} reads back {row!r}")
                break
        for group in router.pairs.values():
            if group.repl_lag:
                problems.append(f"{group.name}: replication lag "
                                f"{group.repl_lag} after a full pump")
            for key, lpn in group.directory.items():
                # FTL-level reads: content only, no command timing.
                expected = group.primary.ftl.read(lpn)
                for rep in group.live_replicas():
                    found = rep.ssd.ftl.read(lpn)
                    if found != expected:
                        problems.append(
                            f"{group.name}/{rep.ssd.name}: {key!r} holds "
                            f"{found!r}, primary has {expected!r}")
                        break
        return problems


WORKLOADS = {cls.name: cls for cls in (LinkbenchShare, YcsbFShare,
                                       DeviceMixed, ClusterQuorum)}
