"""YCSB workloads A and F over the couchstore engine.

Section 5.3.2's setup: a database of key-value records (the paper used
250,000 x 4 KiB = 1 GB), a scrambled-zipfian key chooser, and two
workloads —

* **Workload A**: 50 % reads, 50 % updates,
* **Workload F**: 100 % read-modify-write.

The driver batches commits by ``batch_size`` (the engine's fsync
frequency knob the paper sweeps from 1 to 256 in Figures 7 and 8).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Tuple

from repro.couchstore.engine import CouchStore
from repro.sim.clock import SimClock
from repro.sim.rng import ScrambledZipfian, ZipfianGenerator, make_rng
from repro.sim.stats import Histogram

#: Skew of the key choosers (YCSB's default request distribution).
ZIPF_THETA = 0.99


class YcsbWorkload(Enum):
    """The full YCSB core workload suite.

    The paper evaluates only A and F ("all the workloads except for
    workload-A and workload-F are read-intensive"); B–E are implemented
    for completeness so the reproduction doubles as a general YCSB
    harness over the couch engine.
    """

    A = "workload-a"   # 50 % read / 50 % update
    B = "workload-b"   # 95 % read /  5 % update
    C = "workload-c"   # 100 % read
    D = "workload-d"   # 95 % read (latest) / 5 % insert
    E = "workload-e"   # 95 % scan / 5 % insert
    F = "workload-f"   # 100 % read-modify-write


@dataclass(frozen=True)
class YcsbConfig:
    """Workload shape.  ``record_count`` scales the database; the body
    filler makes each record one file block, matching the paper's 4 KiB
    average record."""

    record_count: int = 50_000
    seed: int = 7


@dataclass
class YcsbResult:
    """One run's outcome for one (workload, batch size, mode) cell.

    ``completion_times_us`` (one entry per operation, virtual time at
    completion) supports throughput-over-time analysis; ``compactions``
    records each mid-run compaction as (start_us, elapsed_seconds).
    """

    workload: str
    batch_size: int
    operations: int
    elapsed_seconds: float
    reads: int
    writes: int
    commit_count: int
    latency_ms: Histogram
    completion_times_us: list = None
    compactions: list = None

    @property
    def throughput_ops(self) -> float:
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.operations / self.elapsed_seconds

    def windowed_throughput(self, window_seconds: float) -> list:
        """Operations per second in consecutive windows of virtual time —
        the jitter view (stalls show up as low-throughput windows)."""
        if not self.completion_times_us:
            raise ValueError("run was executed without a timeline")
        window_us = window_seconds * 1e6
        if window_us <= 0:
            raise ValueError("window must be positive")
        end = self.completion_times_us[-1]
        counts = []
        boundary = self.completion_times_us[0] + window_us
        count = 0
        for t in self.completion_times_us:
            while t > boundary:
                counts.append(count / window_seconds)
                count = 0
                boundary += window_us
            count += 1
        counts.append(count / window_seconds)
        return counts


class YcsbDriver:
    """Loads the record set and runs a workload with commit batching."""

    #: Scan length for workload E (uniform in [1, MAX_SCAN]).
    MAX_SCAN = 50

    def __init__(self, store: CouchStore, clock: SimClock,
                 config: YcsbConfig = YcsbConfig()) -> None:
        self.store = store
        self.clock = clock
        self.config = config
        self._chooser = ScrambledZipfian(config.record_count,
                                         theta=ZIPF_THETA,
                                         seed=config.seed)
        self._rng = make_rng(config.seed + 1)
        # Workload D's "latest" distribution needs an UNscrambled zipfian:
        # small draws must mean small offsets from the newest key.
        self._offset_chooser = ZipfianGenerator(
            config.record_count, theta=ZIPF_THETA,
            rng=make_rng(config.seed + 2))
        self._versions = 0
        self._next_insert_key = config.record_count

    # ---------------------------------------------------------------- load

    def load(self, commit_every: int = 1000) -> None:
        """Insert every record (excluded from measurement by callers)."""
        for key in range(self.config.record_count):
            self.store.set(key, self._body(key, 0))
            if (key + 1) % commit_every == 0:
                self.store.commit()
        self.store.commit()

    @staticmethod
    def _body(key: int, version: int) -> tuple:
        return ("ycsb-record", key, version)

    # ----------------------------------------------------------------- run

    def run(self, workload: YcsbWorkload, operations: int,
            batch_size: int, auto_compact: bool = False,
            record_timeline: bool = False,
            concurrency: int = 1) -> YcsbResult:
        """Execute the workload; one "operation" is one YCSB op (a
        read-modify-write counts as one op, as YCSB reports it).

        With ``auto_compact``, the store compacts whenever its stale
        ratio crosses the configured threshold — mid-run, stalling the
        foreground operations exactly as Couchbase's background
        compaction stalls write transactions (Section 3.3's motivation
        for finishing compaction fast).  ``record_timeline`` captures
        per-op completion times for throughput-over-time analysis.

        With ``concurrency`` > 1, that many closed-loop clients issue
        operations through the device's real command queue (each client
        carries a :class:`~repro.ssd.ncq.DeviceSession`), so recorded
        latencies include queueing behind other clients.  Commits and
        compactions are shared barriers: the device drains and they run
        synchronously, stalling every client — matching the store's
        single-writer commit model.
        """
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1: {batch_size}")
        from repro.ssd.ncq import DeviceSession
        reads = writes = 0
        latency = Histogram()
        start_us = self.clock.now_us
        pending = 0
        timeline = [] if record_timeline else None
        compactions = []
        device = self.store.fs.ssd   # survives mid-run compaction
        sessions = ([DeviceSession(client, start_us)
                     for client in range(concurrency)]
                    if concurrency > 1 else None)
        clock = self.clock
        caller = clock.issuer
        for index in range(operations):
            if sessions is not None:
                session = sessions[index % concurrency]
                # A shared barrier may have advanced the clock past this
                # client's cursor; it cannot issue into the past.
                if session.now_us < clock.now_us:
                    session.now_us = clock.now_us
                op_start = session.now_us
                clock.issuer = session
                try:
                    reads_delta, writes_delta = self._one_op(workload)
                finally:
                    clock.issuer = caller
                op_end = session.now_us
                device.poll(session.now_us)
            else:
                op_start = self.clock.now_us
                reads_delta, writes_delta = self._one_op(workload)
                op_end = self.clock.now_us
            reads += reads_delta
            writes += writes_delta
            pending += writes_delta
            if pending >= batch_size:
                if sessions is not None:
                    device.drain()
                self.store.commit()
                pending = 0
                if auto_compact and self.store.needs_compaction():
                    compactions.append(self._compact_inline())
            latency.record((op_end - op_start) / 1000.0)
            if timeline is not None:
                timeline.append(op_end)
        if sessions is not None:
            device.drain()
        if pending:
            self.store.commit()
        elapsed = (self.clock.now_us - start_us) / 1e6
        return YcsbResult(workload=workload.value, batch_size=batch_size,
                          operations=operations, elapsed_seconds=elapsed,
                          reads=reads, writes=writes,
                          commit_count=self.store.stats.commits,
                          latency_ms=latency,
                          completion_times_us=timeline,
                          compactions=compactions)

    def _compact_inline(self):
        from repro.couchstore.compaction import compact
        start_us = self.clock.now_us
        self.store, result = compact(self.store, self.clock)
        return (start_us, result.elapsed_seconds)

    # --------------------------------------------------------- op mixes

    def _one_op(self, workload: YcsbWorkload) -> Tuple[int, int]:
        """Execute one operation of the mix; returns (reads, writes)."""
        if workload is YcsbWorkload.F:
            key = self._chooser.next()
            self.store.get(key)
            self._versions += 1     # ``_update`` / ``_body``, in line
            self.store.set(key, ("ycsb-record", key, self._versions))
            return (1, 1)  # a read-modify-write does both
        if workload is YcsbWorkload.A:
            return self._read_or_update(update_fraction=0.5)
        if workload is YcsbWorkload.B:
            return self._read_or_update(update_fraction=0.05)
        if workload is YcsbWorkload.C:
            self.store.get(self._chooser.next())
            return (1, 0)
        if workload is YcsbWorkload.D:
            if self._rng.random() < 0.05:
                self._insert()
                return (0, 1)
            self.store.get(self._latest_key())
            return (1, 0)
        if workload is YcsbWorkload.E:
            if self._rng.random() < 0.05:
                self._insert()
                return (0, 1)
            start = self._chooser.next()
            self.store.scan(start, 1 + self._rng.randrange(self.MAX_SCAN))
            return (1, 0)
        raise ValueError(f"unknown workload: {workload}")

    def _read_or_update(self, update_fraction: float) -> Tuple[int, int]:
        key = self._chooser.next()
        if self._rng.random() < update_fraction:
            self._update(key)
            return (0, 1)
        self.store.get(key)
        return (1, 0)

    def _update(self, key: int) -> None:
        self._versions += 1
        self.store.set(key, self._body(key, self._versions))

    def _insert(self) -> None:
        key = self._next_insert_key
        self._next_insert_key += 1
        self._versions += 1
        self.store.set(key, self._body(key, self._versions))

    def _latest_key(self) -> int:
        """Workload D's 'latest' distribution: reads skew toward the most
        recently inserted keys."""
        span = self._next_insert_key
        offset = self._offset_chooser.next() % span
        return span - 1 - offset
