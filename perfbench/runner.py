"""One workload run inside this process: set-up, measured region, count
pass, span pass, verify — and the metrics each phase yields.

End-to-end metrics come only from the measured region (nothing wrapped,
nothing profiled) and the set-up timer, except ``py_calls_per_op``,
which is the count pass's exact call total.  Per-layer metrics come from
three places, named in ``perfbench/README.md`` beside each metric:
counter deltas over the measured region, function call counts from the
count pass, and self times from the span pass.
"""

from __future__ import annotations

import cProfile
import gc
import os
import resource
import statistics
import sys
import traceback
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
SRC_ROOT = os.path.join(os.path.dirname(HERE), "src", "repro") + os.sep

# The benchmark measures the checkout it sits in, never an installed copy.
sys.path.insert(0, os.path.dirname(os.path.dirname(SRC_ROOT)))
import repro                                            # noqa: E402
if not os.path.abspath(repro.__file__).startswith(SRC_ROOT):
    raise ImportError(f"expected repro under {SRC_ROOT}, "
                      f"found {repro.__file__}")
from repro.sim.stats import percentile                  # noqa: E402

import layers                                           # noqa: E402
from workloads import WORKLOADS, merge_regions          # noqa: E402

#: Set-ups per end-to-end run; ``setup_s`` is their median.  The traced
#: run sets up once (it does not report ``setup_s``).
SETUPS = 3

#: The count and span passes each run this fraction of the measured ops.
PASS_FRACTION = 10

#: The measured region runs as this many equal slices of the op stream,
#: with one spin-kernel sample before each slice and after the last.
SEGMENTS = 40

#: Typical spin-kernel time on the box the benchmark was sized on.  The
#: value only fixes the scale of ``host_ops_per_s`` and ``setup_s``; what
#: matters is that it never changes.
SPIN_REFERENCE_S = 0.023


def spin_kernel() -> float:
    """Seconds for a fixed pure-Python kernel (dict, list and integer
    work).  The sandbox's speed drifts by 10-30 % over minutes; the
    mean of the samples taken through a measured region tracks that
    drift (r = 0.88 against the region's own wall time on identical
    work), so scaling by it halves the run-to-run spread of
    ``host_ops_per_s``."""
    begin = perf_counter()
    table = {}
    values = []
    total = 0
    for index in range(100_000):
        key = index & 1023
        table[key] = table.get(key, 0) + index
        values.append(index ^ total)
        total += values[-1] % 7
        if len(values) > 64:
            del values[:32]
    return perf_counter() - begin


def _ratio(numerator: float, denominator: float, scale: float = 1.0
           ) -> float:
    return numerator / denominator * scale if denominator else 0.0


def _mean(values) -> float:
    return sum(values) / len(values) if values else 0.0


def _set_up(cls, seed: int, seconds: float, repeats: int):
    """Build, load and warm the stack ``repeats`` times; the last one is
    the stack the run uses.  Returns (workload, median seconds), each
    time scaled to reference machine speed by the spin samples taken
    around it, like ``host_ops_per_s``."""
    times = []
    workload = None
    for __ in range(repeats):
        workload = None
        gc.collect()
        spins = [spin_kernel() for __ in range(3)]
        begin = perf_counter()
        workload = cls(seed)
        workload.setup(seconds)
        gc.collect()
        elapsed = perf_counter() - begin
        spins += [spin_kernel() for __ in range(3)]
        times.append(elapsed * SPIN_REFERENCE_S / statistics.mean(spins))
    return workload, statistics.median(times)


def _tail_mean(ordered, share: float) -> float:
    """Mean of the slowest ``share`` of an ascending sample list."""
    keep = max(1, int(len(ordered) * share))
    return sum(ordered[-keep:]) / keep


def _measure(workload, ops: int):
    """The measured region: telemetry off, nothing wrapped, nothing
    profiled.  Returns (region, wall seconds inside the slices, spin
    samples)."""
    base, extra = divmod(ops, SEGMENTS)
    spins = [spin_kernel()]
    regions = []
    wall_s = 0.0
    for index in range(SEGMENTS):
        count = base + (1 if index < extra else 0)
        begin = perf_counter()
        regions.append(workload.run(count))
        wall_s += perf_counter() - begin
        spins.append(spin_kernel())
    return merge_regions(regions), wall_s, spins


def _end_to_end(region, ordered, wall_s: float, spin_s: float,
                setup_s: float, rss_mib: float, total_calls: int,
                pass_ops: int, delta: dict) -> dict:
    """``ordered`` is ``region.all_ms`` ascending."""
    return {
        "setup_s": setup_s,
        # Wall-clock rate at reference machine speed: a run on a machine
        # in a slow spell (spin kernel slower than the reference) is
        # credited in proportion.
        "host_ops_per_s": region.ops / wall_s * (spin_s / SPIN_REFERENCE_S),
        "py_calls_per_op": total_calls / pass_ops,
        "peak_rss_mib": rss_mib,
        "virtual_ops_per_s": region.ops / region.virtual_s,
        "virtual_mean_ms": sum(ordered) / len(ordered),
        "virtual_tail1pct_ms": _tail_mean(ordered, 0.01),
        "virtual_tail01pct_ms": _tail_mean(ordered, 0.001),
        "virtual_read_tail1pct_ms": _tail_mean(sorted(region.read_ms), 0.01),
        "virtual_write_tail1pct_ms": _tail_mean(sorted(region.write_ms),
                                                0.01),
        "nand_programs_per_op": delta["ssd.nand_programs"] / region.ops,
    }


def _per_layer(workload, region, ordered, wall_s: float, delta: dict,
               end: dict, utilization, fired: int, pass_ops: int,
               count_pass, count_wall_s: float, span_pass,
               spin_s: float) -> dict:
    ops = region.ops
    __, calls_by_layer, calls_by_function, own_seconds = count_pass
    rec, summary, span_wall_s = span_pass
    self_ns = summary["self_ns_by_layer"]
    self_by_name = summary["self_ns_by_name"]
    count_by_name = summary["count_by_name"]

    def get(name: str) -> float:
        return delta.get(name, 0)

    def calls(path: str, *functions: str) -> int:
        return sum(calls_by_function.get((path, function), 0)
                   for function in functions)

    def self_us(*prefixes: str) -> float:
        return sum(ns for name, ns in self_by_name.items()
                   if name.startswith(prefixes)) / 1000.0 / pass_ops

    def spans(*prefixes: str) -> int:
        return sum(count for name, count in count_by_name.items()
                   if name.startswith(prefixes))

    out = {}
    for layer in layers.LAYERS:
        out[f"{layer}.self_us_per_op"] = self_ns[layer] / 1000.0 / pass_ops
        out[f"{layer}.calls_per_op"] = calls_by_layer[layer] / pass_ops
    # obs has no boundary to wrap from outside: its self time is the
    # profiler's tottime for functions defined in src/repro/obs.
    out["obs.self_us_per_op"] = own_seconds["obs"] * 1e6 / pass_ops

    out.update({
        "workloads.virtual_p50_ms": percentile(ordered, 50),
        "workloads.virtual_p99_ms": percentile(ordered, 99),
        "workloads.virtual_p999_ms": percentile(ordered, 99.9),
    })

    pool_reads = get("pool.hits") + get("pool.misses")
    out.update({
        "innodb.btree.self_us_per_op": self_us("BTree."),
        "innodb.btree.descents_per_op":
            calls("innodb/btree.py", "_descend") / pass_ops,
        "innodb.buffer_pool.self_us_per_op": self_us("BufferPool."),
        "innodb.buffer_pool.fetches_per_op":
            calls("innodb/buffer_pool.py", "fetch") / pass_ops,
        "innodb.buffer_pool.hit_ratio": _ratio(get("pool.hits"), pool_reads),
        "innodb.buffer_pool.evictions_per_kop":
            _ratio(get("pool.evictions"), ops, 1000),
        "innodb.doublewrite.flushes_per_kop":
            _ratio(get("innodb.flush_batches"), ops, 1000),
        "innodb.doublewrite.pages_per_flush":
            _ratio(get("innodb.flushed_pages"), get("innodb.flush_batches")),
        "innodb.doublewrite.virtual_flush_ms_mean":
            _mean(rec.virtual_ms("DoublewriteBuffer.flush_share")),
        "innodb.redo.commits_per_op": _ratio(get("innodb.redo_commits"), ops),
    })

    commits = calls("couchstore/engine.py", "commit")
    out.update({
        "couchstore.tree.self_us_per_op": self_us("AppendTree."),
        "couchstore.tree.nodes_written_per_commit":
            _ratio(calls("couchstore/tree.py", "_write"), commits),
        "couchstore.commits_per_kop": commits / pass_ops * 1000,
        "couchstore.share_pairs_per_op": _ratio(get("couch.share_pairs"),
                                                ops),
        "couchstore.compaction.count": len(region.compaction_ms),
        "couchstore.compaction.virtual_ms_mean":
            _mean(region.compaction_ms),
        "couchstore.compaction.wall_s": get("couch.compaction_wall_s"),
        "couchstore.file_blocks_per_record":
            _ratio(end.get("couch.data_blocks", 0),
                   end.get("couch.doc_count", 0)),
    })

    out.update({
        "host.file.block_io_per_op":
            calls("host/file.py", "pread_block", "pwrite_block",
                  "pwrite_blocks", "append_block") / pass_ops,
        "host.ioctl.share_calls_per_kop": _ratio(get("ioctl.calls"), ops,
                                                 1000),
        "host.ioctl.pairs_per_call": _ratio(get("ioctl.pairs"),
                                            get("ioctl.calls")),
        "host.resilience.retries": get("guard.retries"),
        "host.resilience.fallbacks": get("guard.fallbacks"),
        "host.resilience.fast_fails": get("guard.fast_fails"),
    })

    writes = get("cluster.acked_writes")
    out.update({
        "cluster.router.kv_calls_per_op": _ratio(get("cluster.kv_calls"),
                                                 ops),
        "cluster.replication.self_us_per_op":
            self_us("LogApplier.", "ShardGroup.pump_replication",
                    "ShardRouter.pump_replication"),
        "cluster.replication.applied_per_acked_write":
            _ratio(get("cluster.applied"), writes),
        "cluster.quorum_syncs_per_write":
            _ratio(get("cluster.quorum_syncs"), writes),
        "cluster.quorum_degraded": get("cluster.quorum_degraded"),
        "cluster.backpressure_waits_per_kop":
            _ratio(get("cluster.backpressure_waits"), ops, 1000),
        "cluster.replica_read_share":
            _ratio(get("cluster.replica_reads"), get("cluster.reads")),
        "cluster.replica_read_fallbacks":
            get("cluster.replica_read_fallbacks"),
        "cluster.cross_shard_copies_per_kop":
            _ratio(get("cluster.cross_shard_copies"), ops, 1000),
        "cluster.repl_log_records_end": end.get("cluster.log_records", 0),
    })

    command_spans = spans(*("Ssd." + kind for kind in layers.SSD_COMMANDS))
    cache_reads = get("ssd.cache_hits") + get("ssd.cache_misses")
    share_pairs = get("ssd.share_pairs")
    out.update({
        "ssd.self_us_per_cmd": _ratio(self_ns["ssd"] / 1000.0,
                                      command_spans),
        "ssd.read_cmds_per_op": _ratio(get("ssd.host_read_pages"), ops),
        "ssd.write_pages_per_op": _ratio(get("ssd.host_write_pages"), ops),
        "ssd.share_cmds_per_kop": _ratio(get("ssd.share_commands"), ops,
                                         1000),
        "ssd.share_pairs_per_cmd": _ratio(share_pairs,
                                          get("ssd.share_commands")),
        "ssd.trim_cmds_per_kop": _ratio(get("ssd.trim_commands"), ops, 1000),
        "ssd.flush_cmds_per_kop": _ratio(get("ssd.flush_commands"), ops,
                                         1000),
        "ssd.queue_wait_virtual_us_mean": _mean(rec.queue_wait_us()),
        "ssd.channel_util_mean": _mean(utilization),
        "ssd.channel_util_max": max(utilization),
        "ssd.cache_hit_ratio": _ratio(get("ssd.cache_hits"), cache_reads),
    })

    gc_events = get("ssd.gc_events")
    out.update({
        "ftl.waf": _ratio(get("ssd.nand_programs"),
                          get("ssd.host_write_pages")),
        "ftl.gc_events_per_kop": _ratio(gc_events, ops, 1000),
        "ftl.copyback_pages_per_op": _ratio(get("ssd.copyback_pages"), ops),
        "ftl.copyback_pages_per_gc": _ratio(get("ssd.copyback_pages"),
                                            gc_events),
        "ftl.block_erases_per_kop": _ratio(get("ssd.block_erases"), ops,
                                           1000),
        "ftl.map_page_writes_per_kop": _ratio(get("ssd.map_page_writes"),
                                              ops, 1000),
        "ftl.share_pairs_per_op": _ratio(share_pairs, ops),
        "ftl.share_spills_per_kpair":
            _ratio(get("ssd.share_spill_pages")
                   + get("ssd.share_log_spills"), share_pairs, 1000),
        "ftl.spill_lookups_per_gc": _ratio(get("ssd.spill_lookups"),
                                           gc_events),
        "ftl.wear_level_moves": get("ssd.wear_level_moves"),
        "ftl.l2p.footprint_bytes":
            sum(ssd.ftl.fwd.footprint_bytes() for ssd in workload.devices()),
        "ftl.free_blocks_end":
            min(ssd.ftl.free_block_count for ssd in workload.devices()),
        "ftl.read_retries": get("ftl.read_retries"),
        "ftl.program_fails": get("ftl.program_fails"),
    })

    out.update({
        "flash.nand.reads_per_op": _ratio(get("nand.reads"), ops),
        "flash.nand.programs_per_op": _ratio(get("nand.programs"), ops),
        "flash.nand.erases_per_kop": _ratio(get("nand.erases"), ops, 1000),
        "flash.nand.self_us_per_call":
            _ratio(self_us("NandArray.") * pass_ops, spans("NandArray.")),
        "flash.timing.acquires_per_op":
            calls("flash/timing.py", "acquire") / pass_ops,
        "flash.max_erase_count":
            max(ssd.nand.max_erase_count for ssd in workload.devices()),
    })

    host_rate = ops / wall_s
    out.update({
        "sim.events_per_op": fired / ops,
        "sim.run_until_calls_per_op":
            calls("sim/events.py", "run_until") / pass_ops,
        "sim.virtual_s": region.virtual_s,
        "sim.virtual_s_per_wall_s": region.virtual_s / wall_s,
        "trace.self_us_per_op":
            self_ns[layers.TRACE_LAYER] / 1000.0 / pass_ops,
        "trace.spans_per_op": summary["spans"] / pass_ops,
        "trace.overhead_pct":
            (host_rate / (pass_ops / span_wall_s) - 1.0) * 100.0,
        "trace.count_pass_overhead_pct":
            (host_rate / (pass_ops / count_wall_s) - 1.0) * 100.0,
        "trace.spin_kernel_s": spin_s,
    })
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 trace_path: str = "", setups: int = SETUPS) -> dict:
    """Run one workload.  Returns ``{"correct", "attempted", "failed",
    "end_to_end": {name: value}, "per_layer": {name: value}, "notes"}``;
    ``per_layer`` is filled only when ``trace`` is true, and the traced
    run sets up once, so its ``setup_s`` is a single sample."""
    cls = WORKLOADS[name]
    workload, setup_s = _set_up(cls, seed, seconds, 1 if trace else setups)
    ops = workload.measured_ops(seconds)
    pass_ops = max(10, ops // PASS_FRACTION)
    if trace:
        workload.time_rare_calls()
    result = {"correct": False, "attempted": ops, "failed": ops,
              "end_to_end": {}, "per_layer": {}, "notes": {}}

    scheduler = workload.scheduler()
    before = workload.counters()
    fired_before = scheduler.fired
    gc.collect()
    try:
        region, wall_s, spins = _measure(workload, ops)
    except Exception:
        # An op raised: it and every op after it count as failed.  The
        # drivers own the loop, so the whole region is written off.
        traceback.print_exc()
        return result
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    end = workload.counters()
    fired = scheduler.fired - fired_before
    utilization = [share for ssd in workload.devices()
                   for share in ssd.queue_report()["channel_utilization"]]
    delta = {key: end[key] - before.get(key, 0) for key in end}
    spin_s = statistics.mean(spins)

    # Count pass: the next ops under cProfile, builtins included.
    gc.collect()
    profile = cProfile.Profile(builtins=True)
    begin = perf_counter()
    profile.enable()
    try:
        workload.run(pass_ops)
    finally:
        profile.disable()
    count_wall_s = perf_counter() - begin
    count_pass = layers.attribute_calls(profile, SRC_ROOT, HERE + os.sep)

    ordered = sorted(region.all_ms)
    result["end_to_end"] = _end_to_end(region, ordered, wall_s, spin_s,
                                       setup_s, rss_mib, count_pass[0],
                                       pass_ops, delta)
    result["notes"] = {
        "ops": ops, "pass_ops": pass_ops, "clients": workload.clients,
        "latency_samples": len(region.all_ms),
        "read_samples": len(region.read_ms),
        "write_samples": len(region.write_ms),
        "measured_wall_s": wall_s,
        "raw_ops_per_s": ops / wall_s,
        "spin_mean_s": spin_s,
    }

    if trace:
        # Span pass: the next ops with every layer boundary wrapped.
        inner_ns, outer_ns = layers.calibrate()
        rec = layers.SpanRecorder(pass_ops * 64)
        handlers, captured = workload.trace_targets()
        run = rec.wrap(workload.run, f"{name}.run", "workloads")
        gc.collect()
        installed = layers.install(rec, handlers, captured)
        begin = perf_counter()
        try:
            run(pass_ops)
        finally:
            installed.remove()
        span_wall_s = perf_counter() - begin
        summary = rec.summarize(inner_ns, outer_ns)
        result["per_layer"] = _per_layer(
            workload, region, ordered, wall_s, delta, end, utilization,
            fired, pass_ops, count_pass, count_wall_s,
            (rec, summary, span_wall_s), spin_s)
        result["notes"].update({
            "span_pass_wall_s": span_wall_s,
            "span_overhead_inner_ns": inner_ns,
            "span_overhead_outer_ns": outer_ns,
            "trace_file": trace_path,
            "trace_file_events": rec.write_chrome_trace(trace_path),
        })

    problems = workload.verify()
    for problem in problems:
        print(f"verify: {problem}", file=sys.stderr)
    result["correct"] = not problems
    result["failed"] = 0
    return result
