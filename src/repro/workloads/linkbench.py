"""LinkBench-style social-graph workload over the InnoDB engine.

LinkBench (Armstrong et al., SIGMOD'13) models Facebook's social graph:
nodes, typed directed links, and per-(node, type) link counts, driven by a
read-mostly mix (~70/30) of ten operation types.  This driver reproduces
the operation mix, the zipfian access skew, and — the part Table 1 needs —
per-operation latency recording with the paper's exact operation names.

The graph lives in three InnoDB tables:

* ``node``  — id -> payload,
* ``link``  — (id1, link_type, id2) -> payload,
* ``count`` — (id1, link_type) -> link count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.innodb.engine import InnoDBEngine
from repro.sim.clock import SimClock
from repro.sim.rng import ZipfianGenerator, make_rng
from repro.sim.stats import LatencyRecorder

#: Operation mix in percent — LinkBench's default workload distribution.
DEFAULT_MIX: Tuple[Tuple[str, float], ...] = (
    ("Get_Node", 12.9),
    ("Update_Node", 7.4),
    ("Delete_Node", 1.0),
    ("ADD_Node", 2.6),
    ("Get_Link_List", 51.2),
    ("Count_Link", 4.9),
    ("Multiget_Link", 0.5),
    ("Add_Link", 9.0),
    ("Delete_Link", 3.0),
    ("Update_Link", 8.0),
)

READ_OPS = frozenset({"Get_Node", "Get_Link_List", "Count_Link",
                      "Multiget_Link"})
WRITE_OPS = frozenset({"Update_Node", "Delete_Node", "ADD_Node", "Add_Link",
                       "Delete_Link", "Update_Link"})

MAX_ID2 = 1 << 62
LINK_TYPES = 2

#: Skew of the zipfian node-id chooser.
ZIPF_THETA = 0.8
#: Most links one Get_Link_List returns.
LINK_LIST_LIMIT = 20
#: Links one Multiget_Link reads.
MULTIGET_SIZE = 4


@dataclass(frozen=True)
class LinkBenchConfig:
    """Workload shape.

    ``node_count`` scales the database (the paper used a 1.5 GB database;
    the reproduction scales the page counts down, keeping the
    buffer-pool-to-database ratio).  ``links_per_node`` is the mean
    out-degree seeded at load time.
    """

    node_count: int = 10_000
    links_per_node: int = 5
    seed: int = 42


@dataclass
class LinkBenchResult:
    """One benchmark run's outcome."""

    transactions: int
    elapsed_seconds: float
    latencies: LatencyRecorder
    op_counts: Dict[str, int] = field(default_factory=dict)

    @property
    def throughput_tps(self) -> float:
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.transactions / self.elapsed_seconds


class LinkBenchDriver:
    """Loads the graph and runs the timed operation stream."""

    def __init__(self, engine: InnoDBEngine, clock: SimClock,
                 config: LinkBenchConfig = LinkBenchConfig()) -> None:
        self.engine = engine
        self.clock = clock
        self.config = config
        self._rng = make_rng(config.seed)
        self._id_chooser = ZipfianGenerator(
            config.node_count, theta=ZIPF_THETA,
            rng=make_rng(config.seed + 1))
        self._pick_id = self._id_chooser.next
        self._next_node_id = config.node_count
        self._ops: List[str] = [name for name, __ in DEFAULT_MIX]
        self._weights: List[float] = [weight for __, weight in DEFAULT_MIX]
        # Cumulative weights for the op draw: the run loop inlines what
        # random.choices(cum_weights=...) does — one random() scaled by
        # the total, then a bisect — so the drawn op sequence is
        # unchanged while the per-op choices() call (and its one-element
        # list) disappears.
        from itertools import accumulate
        self._cum_weights: List[float] = list(accumulate(self._weights))
        self._handlers = {name: getattr(self, "_op_" + name.lower())
                          for name in self._ops}

    # ---------------------------------------------------------------- load

    def load(self) -> None:
        """Populate the graph (excluded from measurement by the caller)."""
        engine = self.engine
        for table in ("node", "link", "count"):
            engine.create_table(table)
        config = self.config
        load_rng = make_rng(config.seed + 2)
        for node_id in range(config.node_count):
            with engine.transaction() as txn:
                txn.put("node", node_id, self._node_payload(node_id, 0))
                degree = load_rng.randrange(2 * config.links_per_node + 1)
                for __ in range(degree):
                    link_type = load_rng.randrange(LINK_TYPES)
                    id2 = load_rng.randrange(config.node_count)
                    txn.put("link", (node_id, link_type, id2),
                            self._link_payload(node_id, id2, 0))
                    key = (node_id, link_type)
                    current = txn.get("count", key) or 0
                    txn.put("count", key, current + 1)
        engine.checkpoint()

    @staticmethod
    def _node_payload(node_id: int, version: int) -> tuple:
        return ("node", node_id, version)

    @staticmethod
    def _link_payload(id1: int, id2: int, version: int) -> tuple:
        return ("link", id1, id2, version)

    # ----------------------------------------------------------------- run

    def run(self, transactions: int,
            concurrency: int = 1) -> LinkBenchResult:
        """Execute ``transactions`` operations, timing each one.

        With ``concurrency`` > 1 (the paper used 16 client threads), the
        stream is issued by that many closed-loop clients through the
        devices' real command queues: each client carries a
        :class:`~repro.ssd.ncq.DeviceSession` whose cursor is the time
        its next operation starts, so recorded latencies include the
        wait behind other clients' commands — the effect that makes
        SHARE's faster writes shorten read tails (Section 5.3.1,
        Table 1).  At the default device configuration (queue depth 1,
        one channel, a queue shared across the stack) admission fully
        serialises commands, and the recorded responses equal the old
        analytic ``ClosedLoopQueue`` replay exactly —
        ``tests/test_sim_queueing.py`` defines that model and holds the
        two to each other.  Deeper queues and more channels let commands
        overlap, which only this path can express.
        """
        from bisect import bisect_right
        from repro.ssd.ncq import DeviceSession
        recorder = LatencyRecorder()
        op_counts: Dict[str, int] = {}
        start_us = self.clock.now_us
        # Inline of random.choices(ops, cum_weights=..., k=1): one
        # random() scaled by the total, bisected against the cumulative
        # weights — bit-identical draw sequence, no per-op call.
        ops = self._ops
        cum_weights = self._cum_weights
        total_weight = cum_weights[-1] + 0.0
        hi = len(ops) - 1
        random_ = self._rng.random
        handlers = self._handlers
        record = recorder.record
        counts_get = op_counts.get
        clock = self.clock
        caller = clock.issuer
        # Each operation runs on its client's issuer: a session per client,
        # or the caller's own issuer (the clock) for one synchronous client.
        issuers = ([DeviceSession(client, start_us)
                    for client in range(concurrency)]
                   if concurrency > 1 else [caller])
        clients = len(issuers)
        devices = self.engine.devices()
        # All of a stack's devices share one EventScheduler, so one
        # run_until per operation polls every device's completions;
        # keep a list in case a custom engine wires separate ones.
        schedulers = []
        for device in devices:
            if all(device.events is not ev for ev in schedulers):
                schedulers.append(device.events)
        try:
            for index in range(transactions):
                op = ops[bisect_right(cum_weights,
                                      random_() * total_weight, 0, hi)]
                issuer = issuers[index % clients]
                arrival = issuer.now_us
                clock.issuer = issuer
                handlers[op](index)
                record(op, (issuer.now_us - arrival) / 1000.0)
                op_counts[op] = counts_get(op, 0) + 1
                now = issuer.now_us
                for scheduler in schedulers:
                    scheduler.run_until(now)
        finally:
            clock.issuer = caller
        for device in devices:
            device.drain()
        elapsed = (self.clock.now_us - start_us) / 1e6
        return LinkBenchResult(transactions=transactions,
                               elapsed_seconds=elapsed,
                               latencies=recorder,
                               op_counts=op_counts)

    # ------------------------------------------------------------- op impl

    def _op_get_node(self, index: int) -> None:
        with self.engine.transaction() as txn:
            txn.get("node", self._pick_id())

    def _op_update_node(self, index: int) -> None:
        node_id = self._pick_id()
        with self.engine.transaction() as txn:
            txn.put("node", node_id, self._node_payload(node_id, index))

    def _op_delete_node(self, index: int) -> None:
        node_id = self._pick_id()
        with self.engine.transaction() as txn:
            txn.delete("node", node_id)
            # LinkBench re-creates deleted ids lazily; keep the graph from
            # draining by reinserting a fresh shell row.
            txn.put("node", node_id, self._node_payload(node_id, -index))

    def _op_add_node(self, index: int) -> None:
        node_id = self._next_node_id
        self._next_node_id += 1
        with self.engine.transaction() as txn:
            txn.put("node", node_id, self._node_payload(node_id, index))

    def _op_get_link_list(self, index: int) -> None:
        id1 = self._pick_id()
        link_type = self._rng.randrange(LINK_TYPES)
        with self.engine.transaction() as txn:
            txn.range("link", (id1, link_type, -1),
                      (id1, link_type, MAX_ID2),
                      limit=LINK_LIST_LIMIT)

    def _op_count_link(self, index: int) -> None:
        with self.engine.transaction() as txn:
            txn.get("count", (self._pick_id(), self._rng.randrange(LINK_TYPES)))

    def _op_multiget_link(self, index: int) -> None:
        id1 = self._pick_id()
        link_type = self._rng.randrange(LINK_TYPES)
        with self.engine.transaction() as txn:
            for __ in range(MULTIGET_SIZE):
                id2 = self._rng.randrange(self.config.node_count)
                txn.get("link", (id1, link_type, id2))

    def _op_add_link(self, index: int) -> None:
        id1 = self._pick_id()
        id2 = self._rng.randrange(self.config.node_count)
        link_type = self._rng.randrange(LINK_TYPES)
        with self.engine.transaction() as txn:
            was_new = txn.put("link", (id1, link_type, id2),
                              self._link_payload(id1, id2, index))
            if was_new:
                key = (id1, link_type)
                txn.put("count", key, (txn.get("count", key) or 0) + 1)

    def _op_delete_link(self, index: int) -> None:
        id1 = self._pick_id()
        link_type = self._rng.randrange(LINK_TYPES)
        with self.engine.transaction() as txn:
            links = txn.range("link", (id1, link_type, -1),
                              (id1, link_type, MAX_ID2), limit=1)
            if links:
                key = links[0][0]
                txn.delete("link", key)
                count_key = (id1, link_type)
                current = txn.get("count", count_key) or 1
                txn.put("count", count_key, max(0, current - 1))

    def _op_update_link(self, index: int) -> None:
        id1 = self._pick_id()
        link_type = self._rng.randrange(LINK_TYPES)
        with self.engine.transaction() as txn:
            links = txn.range("link", (id1, link_type, -1),
                              (id1, link_type, MAX_ID2), limit=1)
            if links:
                key = links[0][0]
                txn.put("link", key, self._link_payload(key[0], key[2], index))
            else:
                id2 = self._rng.randrange(self.config.node_count)
                txn.put("link", (id1, link_type, id2),
                        self._link_payload(id1, id2, index))

class ClusterLinkBenchDriver:
    """The LinkBench mix as a key-value stream over a sharded tier.

    Same ten-operation distribution, zipfian skew, and per-operation
    latency recording as :class:`LinkBenchDriver`, but issued against a
    :class:`~repro.cluster.router.ShardRouter` instead of one engine:
    nodes, links, and counts become KV pairs spread over the shards by
    consistent hashing, ``Get_Link_List``/``Multiget_Link`` become
    bounded multigets (a KV tier has no ordered range scan), and
    ``Update_Node`` periodically snapshots the node through the router's
    SHARE path so replication carries real remap records.

    ``concurrency`` closed-loop clients each carry a
    :class:`~repro.ssd.ncq.DeviceSession`; ops from different clients
    overlap in device time, and a shard's bounded queue backpressures
    only the clients that hash onto it.  Replication to the peer devices
    is pumped every :attr:`PUMP_EVERY` operations (and once at the end), so
    the replicas trail the primaries by a bounded delta-log lag — the
    window failover replay has to cover.
    """

    #: Every this many Update_Node ops, refresh the node's SHARE snapshot.
    SNAPSHOT_EVERY = 4
    #: Replication is pumped every this many operations.
    PUMP_EVERY = 16

    def __init__(self, router, clock: SimClock,
                 config: LinkBenchConfig = LinkBenchConfig()) -> None:
        self.router = router
        self.clock = clock
        self.config = config
        self._rng = make_rng(config.seed)
        self._id_chooser = ZipfianGenerator(
            config.node_count, theta=ZIPF_THETA,
            rng=make_rng(config.seed + 1))
        self._pick_id = self._id_chooser.next
        self._next_node_id = config.node_count
        self._updates = 0
        self._ops: List[str] = [name for name, __ in DEFAULT_MIX]
        from itertools import accumulate
        self._cum_weights: List[float] = list(
            accumulate(weight for __, weight in DEFAULT_MIX))
        self._handlers = {name: getattr(self, "_op_" + name.lower())
                          for name in self._ops}

    # ---------------------------------------------------------------- load

    def load(self) -> None:
        """Seed nodes, links, and counts (excluded from measurement)."""
        router = self.router
        config = self.config
        load_rng = make_rng(config.seed + 2)
        for node_id in range(config.node_count):
            router.put(("node", node_id),
                       ("node", node_id, 0))
            degree = load_rng.randrange(2 * config.links_per_node + 1)
            counts: Dict[Tuple[int, int], int] = {}
            for __ in range(degree):
                link_type = load_rng.randrange(LINK_TYPES)
                id2 = load_rng.randrange(config.node_count)
                router.put(("link", node_id, link_type, id2),
                           ("link", node_id, id2, 0))
                key = (node_id, link_type)
                counts[key] = counts.get(key, 0) + 1
            for (id1, link_type), count in counts.items():
                router.put(("count", id1, link_type), count)
        router.pump_replication()
        router.drain()

    # ----------------------------------------------------------------- run

    def run(self, operations: int,
            concurrency: int = 1) -> LinkBenchResult:
        """Execute ``operations`` KV transactions, timing each one."""
        from bisect import bisect_right
        from repro.ssd.ncq import DeviceSession
        router = self.router
        recorder = LatencyRecorder()
        op_counts: Dict[str, int] = {}
        start_us = self.clock.now_us
        ops = self._ops
        cum_weights = self._cum_weights
        total_weight = cum_weights[-1] + 0.0
        hi = len(ops) - 1
        random_ = self._rng.random
        handlers = self._handlers
        record = recorder.record
        counts_get = op_counts.get
        pump_every = self.PUMP_EVERY
        sessions = [DeviceSession(client, start_us)
                    for client in range(max(1, concurrency))]
        schedulers = []
        for device in router.devices:
            if all(device.events is not ev for ev in schedulers):
                schedulers.append(device.events)
        # Each operation runs with its client's session as the stack's
        # issuer, the pumps with the caller's.
        clock = self.clock
        caller = clock.issuer
        try:
            for index in range(operations):
                op = ops[bisect_right(cum_weights,
                                      random_() * total_weight, 0, hi)]
                session = sessions[index % len(sessions)]
                arrival = session.now_us
                clock.issuer = session
                handlers[op](index)
                record(op, (session.now_us - arrival) / 1000.0)
                op_counts[op] = counts_get(op, 0) + 1
                now = session.now_us
                for scheduler in schedulers:
                    scheduler.run_until(now)
                if (index + 1) % pump_every == 0:
                    clock.issuer = caller
                    router.pump_replication()
        finally:
            clock.issuer = caller
        router.pump_replication()
        router.drain()
        elapsed = (self.clock.now_us - start_us) / 1e6
        return LinkBenchResult(transactions=operations,
                               elapsed_seconds=elapsed,
                               latencies=recorder,
                               op_counts=op_counts)

    # ------------------------------------------------------------- op impl

    def _op_get_node(self, index: int) -> None:
        self.router.get(("node", self._pick_id()))

    def _op_update_node(self, index: int) -> None:
        node_id = self._pick_id()
        router = self.router
        router.put(("node", node_id), ("node", node_id, index))
        self._updates += 1
        if self._updates % self.SNAPSHOT_EVERY == 0:
            # Snapshot-by-remap: the couchstore trick at the KV tier.
            router.share(("snap", node_id), ("node", node_id))

    def _op_delete_node(self, index: int) -> None:
        node_id = self._pick_id()
        router = self.router
        router.delete(("node", node_id))
        router.put(("node", node_id), ("node", node_id, -index))

    def _op_add_node(self, index: int) -> None:
        node_id = self._next_node_id
        self._next_node_id += 1
        self.router.put(("node", node_id), ("node", node_id, index))

    def _op_get_link_list(self, index: int) -> None:
        id1 = self._pick_id()
        link_type = self._rng.randrange(LINK_TYPES)
        router = self.router
        router.get(("count", id1, link_type))
        for __ in range(min(4, LINK_LIST_LIMIT)):
            id2 = self._rng.randrange(self.config.node_count)
            router.get(("link", id1, link_type, id2))

    def _op_count_link(self, index: int) -> None:
        self.router.get(("count", self._pick_id(),
                         self._rng.randrange(LINK_TYPES)))

    def _op_multiget_link(self, index: int) -> None:
        id1 = self._pick_id()
        link_type = self._rng.randrange(LINK_TYPES)
        for __ in range(MULTIGET_SIZE):
            id2 = self._rng.randrange(self.config.node_count)
            self.router.get(("link", id1, link_type, id2))

    def _op_add_link(self, index: int) -> None:
        id1 = self._pick_id()
        id2 = self._rng.randrange(self.config.node_count)
        link_type = self._rng.randrange(LINK_TYPES)
        router = self.router
        key = ("link", id1, link_type, id2)
        was_new = router.get(key) is None
        router.put(key, ("link", id1, id2, index))
        if was_new:
            count_key = ("count", id1, link_type)
            router.put(count_key, (router.get(count_key) or 0) + 1)

    def _op_delete_link(self, index: int) -> None:
        id1 = self._pick_id()
        id2 = self._rng.randrange(self.config.node_count)
        link_type = self._rng.randrange(LINK_TYPES)
        router = self.router
        if router.delete(("link", id1, link_type, id2)) is not None:
            count_key = ("count", id1, link_type)
            current = router.get(count_key) or 1
            router.put(count_key, max(0, current - 1))

    def _op_update_link(self, index: int) -> None:
        id1 = self._pick_id()
        id2 = self._rng.randrange(self.config.node_count)
        link_type = self._rng.randrange(LINK_TYPES)
        self.router.put(("link", id1, link_type, id2),
                        ("link", id1, id2, index))
