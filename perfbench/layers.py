"""Outside-in layer instrumentation: span wrappers and call attribution.

Nothing under ``src/repro`` is edited.  The span pass swaps the public
entry points at each layer boundary for timing wrappers (class
attributes, three module functions, and the per-instance callables the
engines capture at construction) and restores them afterwards; the
count pass reads a ``cProfile`` run and books every call to the package
that made it.  Layers are the packages under ``src/repro``; perfbench's
own generator code counts as ``workloads``.
"""

from __future__ import annotations

import json
import os
from time import perf_counter_ns

from repro.cluster.replication import LogApplier
from repro.cluster.router import ShardRouter
from repro.cluster.shard import ShardGroup
from repro.couchstore import compaction as couch_compaction
from repro.couchstore.engine import CouchStore
from repro.couchstore.tree import AppendTree
from repro.flash.nand import NandArray
from repro.flash.timing import ChannelSet
from repro.ftl.pagemap import PageMappingFtl
from repro.host import ioctl as host_ioctl
from repro.host.file import File
from repro.host.resilience import ShareGuard
from repro.innodb.btree import BTree
from repro.innodb.buffer_pool import BufferPool
from repro.innodb.doublewrite import DoublewriteBuffer
from repro.innodb.engine import InnoDBEngine, Transaction
from repro.innodb.redo import RedoLog
from repro.sim.events import EventScheduler
from repro.ssd.device import Ssd

LAYERS = ("workloads", "innodb", "couchstore", "host", "cluster", "ssd",
          "ftl", "flash", "sim", "obs")

#: The harness's own cost inside the span pass (wrapper prologue and
#: epilogue), booked as a layer so the self times still sum to the wall.
TRACE_LAYER = "trace"

#: Ops whose spans are written to ``trace-<workload>.json``; the
#: aggregates always use every span of the pass.
TRACE_FILE_OPS = 2000

#: Device commands whose virtual response the ``ssd`` spans stamp.
SSD_COMMANDS = ("read", "write", "write_multi", "share", "share_batch",
                "trim", "flush")

#: (layer, owner, attributes): the public entry points wrapped in the
#: span pass.  ``owner`` is a class or a module.
BOUNDARIES = (
    ("innodb", InnoDBEngine, ("transaction",)),
    ("innodb", Transaction, ("get", "put", "delete", "range")),
    ("innodb", BTree, ("get", "range", "upsert", "pop")),
    ("innodb", BufferPool, ("fetch", "put", "flush_some")),
    ("innodb", DoublewriteBuffer, ("flush_share",)),
    ("innodb", RedoLog, ("commit",)),
    ("couchstore", CouchStore, ("get", "set", "commit")),
    ("couchstore", AppendTree, ("get", "apply_batch")),
    ("couchstore", couch_compaction, ("compact",)),
    ("host", File, ("pread_block", "pwrite_block", "pwrite_blocks",
                    "append_block", "fsync")),
    ("host", host_ioctl, ("share_ioctl", "share_file_ranges")),
    ("host", ShareGuard, ("call",)),
    ("cluster", ShardRouter, ("put", "get", "delete", "share",
                              "pump_replication")),
    ("cluster", ShardGroup, ("put", "get", "share", "delete",
                             "pump_replication")),
    ("cluster", LogApplier, ("apply",)),
    ("ssd", Ssd, SSD_COMMANDS + ("drain",)),
    ("ftl", PageMappingFtl, ("read", "write", "share_batch", "trim",
                             "flush")),
    ("flash", NandArray, ("read", "program", "erase")),
    ("flash", ChannelSet, ("acquire",)),
    ("sim", EventScheduler, ("run_until",)),
)


def _device_of(owner, attr):
    """For spans that also stamp virtual time: how to find the device
    whose cursor to read from the call's first argument."""
    if owner is Ssd and attr in SSD_COMMANDS:
        return lambda ssd: ssd
    if owner is DoublewriteBuffer:
        return lambda dwb: dwb.tablespace.fs.ssd
    if owner is couch_compaction:
        return lambda store: store.fs.ssd
    return None


class SpanRecorder:
    """Preallocated parallel lists, one slot per span.

    ``parent`` is the index of the enclosing span (-1 for a root) and
    ``op`` the index of the workload operation the span belongs to.
    ``v0``/``v1`` hold the issuing session's virtual cursor (the clock
    when the device is driven synchronously) before and after the call
    and ``busy`` the priced service time, for the spans that stamp them.
    """

    def __init__(self, capacity: int) -> None:
        self.names: list = []        # span name table; slot value = index
        self.layers: list = []       # layer of each name
        self.count = 0
        self.current = -1
        self.op = -1
        self.capacity = capacity
        self.name = [0] * capacity
        self.parent = [-1] * capacity
        self.op_of = [0] * capacity
        self.start = [0] * capacity
        self.end = [0] * capacity
        self.v0 = [-1] * capacity
        self.v1 = [-1] * capacity
        self.busy = [0.0] * capacity

    def grow(self) -> None:
        extra = self.capacity
        self.capacity += extra
        for column, fill in ((self.name, 0), (self.parent, -1),
                             (self.op_of, 0), (self.start, 0), (self.end, 0),
                             (self.v0, -1), (self.v1, -1), (self.busy, 0.0)):
            column.extend([fill] * extra)

    def name_id(self, name: str, layer: str) -> int:
        self.names.append(name)
        self.layers.append(layer)
        return len(self.names) - 1

    # ---------------------------------------------------------- wrappers

    def wrap(self, fn, name: str, layer: str, starts_op: bool = False,
             device_of=None):
        """Return ``fn`` wrapped in a span.  ``starts_op`` marks a
        workload op handler: every span until the next one shares its op
        index.  ``device_of`` makes the span stamp virtual time too."""
        rec = self
        ident = self.name_id(name, layer)
        now = perf_counter_ns
        # Two bodies, not one with branches: this code runs 6-22 times
        # per op and its own cost is what ``trace.overhead_pct`` reports.

        def span(*args, **kwargs):
            index = rec.count
            if index >= rec.capacity:
                rec.grow()
            rec.count = index + 1
            parent = rec.current
            rec.current = index
            if starts_op:
                rec.op += 1
            rec.name[index] = ident
            rec.parent[index] = parent
            rec.op_of[index] = rec.op
            rec.start[index] = now()
            try:
                return fn(*args, **kwargs)
            finally:
                rec.end[index] = now()
                rec.current = parent

        def virtual_span(*args, **kwargs):
            index = rec.count
            if index >= rec.capacity:
                rec.grow()
            rec.count = index + 1
            parent = rec.current
            rec.current = index
            rec.name[index] = ident
            rec.parent[index] = parent
            rec.op_of[index] = rec.op
            device = device_of(args[0])
            session = device._session
            rec.v0[index] = (session.now_us if session is not None
                             else device.clock.now_us)
            busy = device.stats.busy_us
            rec.start[index] = now()
            try:
                return fn(*args, **kwargs)
            finally:
                rec.end[index] = now()
                session = device._session
                rec.v1[index] = (session.now_us if session is not None
                                 else device.clock.now_us)
                rec.busy[index] = device.stats.busy_us - busy
                rec.current = parent

        return span if device_of is None else virtual_span

    # --------------------------------------------------------- analysis

    def summarize(self, overhead_inner_ns: float,
                  overhead_outer_ns: float) -> dict:
        """Self time per layer and per span name, in nanoseconds.

        A span's self time is its duration minus its children's.  The
        recorder's own cost is taken out with the two calibrated
        constants — ``inner`` sits inside a span's own timestamps,
        ``outer`` lands in its parent — and booked under ``trace``, so
        the layer totals still sum to the root spans' wall time."""
        count = self.count
        child_ns = [0] * count
        children = [0] * count
        start, end, parent = self.start, self.end, self.parent
        for index in range(count):
            above = parent[index]
            if above >= 0:
                child_ns[above] += end[index] - start[index]
                children[above] += 1
        self_by_name = [0.0] * len(self.names)
        count_by_name = [0] * len(self.names)
        trace_ns = 0.0
        name = self.name
        for index in range(count):
            duration = end[index] - start[index]
            overhead = (overhead_inner_ns
                        + children[index] * overhead_outer_ns)
            trace_ns += overhead
            self_by_name[name[index]] += duration - child_ns[index] - overhead
            count_by_name[name[index]] += 1
        by_layer = {layer: 0.0 for layer in LAYERS}
        by_layer[TRACE_LAYER] = trace_ns
        for ident, self_ns in enumerate(self_by_name):
            by_layer[self.layers[ident]] += self_ns
        return {
            "spans": count,
            "self_ns_by_layer": by_layer,
            "self_ns_by_name": dict(zip(self.names, self_by_name)),
            "count_by_name": dict(zip(self.names, count_by_name)),
        }

    def queue_wait_us(self) -> list:
        """Virtual queue wait of every stamped device command: response
        (cursor after - before) minus the priced service time."""
        waits = []
        for index in range(self.count):
            if (self.v0[index] >= 0
                    and self.layers[self.name[index]] == "ssd"):
                response = self.v1[index] - self.v0[index]
                waits.append(max(0, response - int(round(self.busy[index]))))
        return waits

    def virtual_ms(self, name: str) -> list:
        """Virtual durations (ms) of the stamped spans called ``name``."""
        if name not in self.names:
            return []
        ident = self.names.index(name)
        return [(self.v1[i] - self.v0[i]) / 1000.0
                for i in range(self.count) if self.name[i] == ident]

    def write_chrome_trace(self, path: str, max_ops: int = TRACE_FILE_OPS
                           ) -> int:
        """Write the spans of the first ``max_ops`` ops as Chrome-trace
        complete events; returns how many were written."""
        events = []
        origin = self.start[0] if self.count else 0
        for index in range(self.count):
            if self.op_of[index] >= max_ops:
                break
            ident = self.name[index]
            args = {"id": index, "parent": self.parent[index],
                    "op": self.op_of[index]}
            if self.v0[index] >= 0:
                args["virtual_start_us"] = self.v0[index]
                args["virtual_end_us"] = self.v1[index]
                args["service_us"] = self.busy[index]
            events.append({
                "name": self.names[ident], "cat": self.layers[ident],
                "ph": "X", "pid": 1, "tid": 1,
                "ts": (self.start[index] - origin) / 1000.0,
                "dur": (self.end[index] - self.start[index]) / 1000.0,
                "args": args})
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ns"},
                      handle)
        return len(events)


def calibrate(rounds: int = 20000):
    """Cost of one span in nanoseconds, split into the part inside its
    own timestamps and the part that lands in the parent."""
    def nothing():
        return None

    rec = SpanRecorder(rounds)
    wrapped = rec.wrap(nothing, "calibrate", TRACE_LAYER)
    begin = perf_counter_ns()
    for __ in range(rounds):
        nothing()
    bare = perf_counter_ns() - begin
    begin = perf_counter_ns()
    for __ in range(rounds):
        wrapped()
    total = perf_counter_ns() - begin
    inner = sum(rec.end[i] - rec.start[i] for i in range(rounds)) / rounds
    outer = max(0.0, (total - bare) / rounds - inner)
    return inner, outer


class Installed:
    """The set of live patches; ``remove()`` restores every original."""

    def __init__(self) -> None:
        self._undo = []

    def attr(self, owner, name: str, replacement) -> None:
        original = getattr(owner, name)
        if name in vars(owner):
            self._undo.append(lambda: setattr(owner, name, original))
        else:       # a class method shadowed on one instance
            self._undo.append(lambda: delattr(owner, name))
        setattr(owner, name, replacement)

    def item(self, mapping: dict, key, replacement) -> None:
        original = mapping[key]
        self._undo.append(lambda: mapping.__setitem__(key, original))
        mapping[key] = replacement

    def remove(self) -> None:
        while self._undo:
            self._undo.pop()()


def install(rec: SpanRecorder, op_handlers, captured=()) -> Installed:
    """Wrap every layer boundary.

    ``op_handlers`` is ``[(owner, attr-or-key, name)]`` for the
    workload's op handlers (a dict entry or an instance attribute);
    ``captured`` is ``[(instance, attr, name, layer)]`` for bound methods
    an engine stored at construction (``BTree._fetch`` is the buffer
    pool's ``fetch``), which a class-level patch cannot reach."""
    installed = Installed()
    for layer, owner, attrs in BOUNDARIES:
        prefix = owner.__name__.rsplit(".", 1)[-1]
        for attr in attrs:
            installed.attr(owner, attr, rec.wrap(
                vars(owner)[attr], f"{prefix}.{attr}", layer,
                device_of=_device_of(owner, attr)))
    for instance, attr, name, layer in captured:
        installed.attr(instance, attr, rec.wrap(
            getattr(instance, attr), name, layer))
    for owner, key, name in op_handlers:
        if isinstance(owner, dict):
            installed.item(owner, key, rec.wrap(
                owner[key], name, "workloads", starts_op=True))
        else:
            installed.attr(owner, key, rec.wrap(
                getattr(owner, key), name, "workloads", starts_op=True))
    return installed


# ----------------------------------------------------------- call counts

def _layer_of(func, src_root: str, bench_root: str):
    """Layer that defines ``func`` (a code object, or a string for a
    builtin), or None when its caller should be charged."""
    filename = getattr(func, "co_filename", "")
    if filename.startswith(src_root):
        package = filename[len(src_root):].split(os.sep)[0]
        return package if package in LAYERS else None
    if filename.startswith(bench_root):
        return "workloads"
    return None


def attribute_calls(profile, src_root: str, bench_root: str):
    """Book every call of a ``cProfile`` run to a layer.

    A function defined under ``src/repro/<package>`` belongs to that
    package.  Builtins, generated code and the standard library belong
    to whoever called them, split in proportion to the callers' counts
    when several layers share one helper.  Calls nothing in ``repro``
    accounts for (the profiler's own ``disable``) go to ``workloads``,
    so the layers always sum to the total.

    Works on the profiler's raw entries, one per code object:
    ``pstats`` keys functions by (file, line, name) and lets every
    dataclass ``__init__`` (``<string>:2``) overwrite the last, which
    makes its totals depend on memory layout.

    Returns ``(total_calls, {layer: calls}, {(file, func): calls},
    {layer: seconds})``; the last two cover only functions defined under
    ``repro`` (the seconds are the profiler's own-time, inflated by it).
    """
    calls = {}
    own_time = {}
    callers = {}
    for entry in profile.getstats():
        func = entry.code
        calls[func] = calls.get(func, 0) + entry.callcount
        own_time[func] = own_time.get(func, 0.0) + entry.inlinetime
        for sub in entry.calls or ():
            into = callers.setdefault(sub.code, {})
            into[func] = into.get(func, 0) + sub.callcount
    shares = {}

    def share_of(func, trail=()):
        known = shares.get(func)
        if known is not None:
            return known
        layer = _layer_of(func, src_root, bench_root)
        if layer is not None:
            result = {layer: 1.0}
        else:
            made_by = callers.get(func, {})
            total = sum(made_by.values())
            result = {}
            if total and func not in trail:
                for caller, count in made_by.items():
                    for name, part in share_of(
                            caller, trail + (func,)).items():
                        result[name] = (result.get(name, 0.0)
                                        + count / total * part)
            if not result:
                result = {"workloads": 1.0}
        if func not in trail:
            shares[func] = result
        return result

    by_layer = {layer: 0.0 for layer in LAYERS}
    by_function = {}
    own_seconds = {layer: 0.0 for layer in LAYERS}
    for func, count in calls.items():
        for layer, part in share_of(func).items():
            by_layer[layer] += count * part
        filename = getattr(func, "co_filename", "")
        if filename.startswith(src_root):
            key = (os.path.relpath(filename, src_root), func.co_name)
            by_function[key] = by_function.get(key, 0) + count
            layer = _layer_of(func, src_root, bench_root)
            if layer is not None:
                own_seconds[layer] += own_time[func]
    return sum(calls.values()), by_layer, by_function, own_seconds
