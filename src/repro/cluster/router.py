"""Front-end router over M shard groups: the cluster's client API.

The :class:`ShardRouter` consistent-hash-partitions the key space over
its groups, forwards each KV operation to the owning group, and handles
the tier-level concerns no single shard can: promoting a group whose
breaker opened (via the :class:`FailoverController`), re-issuing the
failed operation on the new primary, degrading cross-shard SHARE to
read+copy, scoring primary media health after acks (proactive failover
before a device dies), consulting the fault plan's cluster set after
every ack so crashcheck sweeps can kill a shard — or storm its media —
at any ack boundary, and coordinating live ring rebalancing.

Ack contract: :meth:`put` / :meth:`share` / :meth:`delete` return only
once the mutation is durable on the owning primary, appended to the
group's replication log, *and* applied on a write quorum of replicas —
the ``no_lost_acked_write`` invariant the cluster crashcheck sweep
enforces is exactly "anything those methods returned for is readable
after any single-shard kill + power cycle".

Read routing: reads may be served by a replica when it has applied both
the calling client's last acked sequence on that shard (read-your-writes,
tracked per ``(client, shard)``) and the sequence that created the
key's directory entry; otherwise the primary serves them.  During a
rebalance, reads of still-pending keys dual-read: new owner first, old
owner as fallback.  A get or delete of a key no live group holds is
answered before placement — no ring lookup, no shard op — with the
routed miss's own effects (the op and read counts, a 0 µs latency
sample).  It is routed instead when a migration is active (dual-read
and settling need the owner), when any group awaits promotion (the
routed op would promote its owner even on a miss), or when any group
holds a key ``==`` to it: equal keys that print differently may have
different owners, so only the ring decides where such a key lives.

Telemetry (``cluster.*``): op/ack counters, per-shard op-latency
histograms (p99 per shard), ``repl_lag.<shard>`` and ``epoch.<shard>``
gauges, a ``replica_lag`` distribution sampled at every pump, failover
count/duration plus a ``convergence_us`` histogram (promotion to
fully-caught-up group), replica-read and media-health counters,
backpressure waits, replayed records.  The counters are the router's
plain :class:`ClusterStats` — what the crash sweeps read directly under
``NULL_TELEMETRY`` and what the telemetry rows read at snapshot time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cluster.failover import FailoverController, FailoverEvent
from repro.cluster.hashring import HashRing
from repro.cluster.health import MediaHealthMonitor
from repro.cluster.rebalance import MigrationState, Rebalancer
from repro.cluster.shard import ShardGroup
from repro.errors import ClusterError, ResilienceError, ShardUnavailableError
from repro.obs import COUNTER, GAUGE, NULL_TELEMETRY
from repro.sim.faults import NO_FAULTS, ShardMediaStorm
from repro.ssd.ncq import DeviceSession

__all__ = ["ShardRouter", "ClusterStats"]


@dataclass
class ClusterStats:
    """The counters the router accumulates (:data:`ROUTER_ROWS` reports
    them as ``cluster.*``)."""

    ops: int = 0
    acked_writes: int = 0
    reads: int = 0
    kills: int = 0
    failovers: int = 0
    failover_duration_us: int = 0
    replayed_records: int = 0
    repl_applied: int = 0
    cross_shard_copies: int = 0
    last_failover_us: Optional[int] = field(default=None)
    replica_reads: int = 0
    replica_read_fallbacks: int = 0
    media_trips: int = 0
    media_storms: int = 0
    proactive_promotions: int = 0
    migrated_keys: int = 0
    shared_migrations: int = 0
    rebalances: int = 0
    convergences: int = 0
    convergence_us: int = 0


def _backpressure_waits(router: "ShardRouter") -> int:
    return sum(group.backpressure_waits
               for group in (*router.pairs.values(),
                             *router.retired.values()))


def group_rows(shard: str) -> tuple:
    """The ``cluster.*`` gauges a shard group adds when it joins the
    ring, read off the group."""
    return ((f"repl_lag.{shard}", GAUGE, attrgetter("repl_lag")),
            (f"epoch.{shard}", GAUGE, attrgetter("log.epoch")))


#: ``cluster.*`` telemetry rows, read off the router's
#: :class:`ClusterStats`.
ROUTER_ROWS = tuple(
    (name, COUNTER, attrgetter("stats." + name)) for name in (
        "ops", "acked_writes", "reads", "failovers", "failover_duration_us",
        "replayed_records", "repl_applied", "cross_shard_copies",
        "replica_reads", "replica_read_fallbacks", "media_trips",
        "media_storms", "proactive_promotions", "migrated_keys",
        "shared_migrations", "rebalances")) + (
    ("shard_kills", COUNTER, attrgetter("stats.kills")),
    ("repl_snapshot_catchups", COUNTER, attrgetter("snapshot_catchups")),
    ("backpressure_waits", COUNTER, _backpressure_waits))


class ShardRouter:
    """Consistent-hash router over shard groups with failover."""

    def __init__(self, pairs: Sequence[ShardGroup], clock,
                 faults=NO_FAULTS, telemetry=None) -> None:
        if not pairs:
            raise ValueError("router needs at least one shard group")
        self.clock = clock
        self.faults = faults
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self.pairs: Dict[str, ShardGroup] = {p.name: p for p in pairs}
        if len(self.pairs) != len(pairs):
            raise ValueError("duplicate shard group names")
        self.ring = HashRing([p.name for p in pairs])
        self.stats = ClusterStats()
        self.health = MediaHealthMonitor()
        self._session: Optional[DeviceSession] = None
        #: Per-(client, shard) last acked sequence — the read-your-writes
        #: watermark replica reads must reach.
        self._client_seq: Dict[Tuple[Optional[int], str], int] = {}
        #: Shards promoted but not yet fully re-converged, with the
        #: promotion timestamp (feeds the convergence_us histogram).
        self._pending_convergence: Dict[str, int] = {}
        self._pump_cursor = 0
        #: Groups that left the ring after a completed rebalance.
        self.retired: Dict[str, ShardGroup] = {}
        self._migration: Optional[MigrationState] = None
        self.migration_epoch = 0
        telemetry = self.telemetry
        telemetry.collect("cluster", ROUTER_ROWS, self)
        self._m_replica_lag = telemetry.histogram("cluster.replica_lag")
        self._m_convergence = telemetry.histogram("cluster.convergence_us")
        self._m_latency: Dict[str, object] = {}
        self.controller = FailoverController(clock,
                                             on_promoted=self._on_promoted)
        for pair in pairs:
            self._register_group(pair)

    def _register_group(self, group: ShardGroup) -> None:
        """Metrics + breaker listener for one group (init or ring add)."""
        self.pairs[group.name] = group
        if group.name not in self._m_latency:
            self._m_latency[group.name] = self.telemetry.histogram(
                f"cluster.latency_us.{group.name}")
            self.telemetry.collect("cluster", group_rows(group.name),
                                   group)
        self.controller.attach(group)

    # --------------------------------------------------------- sessions

    def use_session(self, session: Optional[DeviceSession]) -> None:
        """Issue subsequent ops on ``session``'s cursor (None = sync)."""
        self._session = session

    @property
    def devices(self) -> List:
        """Every live device, primaries first (for drain/power-cycle)."""
        groups = list(self.pairs.values())
        return ([g.primary for g in groups]
                + [rep.ssd for g in groups for rep in g.replicas])

    @property
    def snapshot_catchups(self) -> int:
        """Replicas caught up from a snapshot of their primary because
        they rejoined below the replication log's cut, over every group
        (retired ones included)."""
        return sum(group.log.snapshot_catchups
                   for group in (*self.pairs.values(),
                                 *self.retired.values()))

    def _group(self, name: str) -> ShardGroup:
        group = self.pairs.get(name)
        if group is None:
            group = self.retired[name]
        return group

    # -------------------------------------------------------- internals

    def _on_promoted(self, event: FailoverEvent) -> None:
        self.stats.failovers += 1
        self.stats.failover_duration_us += event.duration_us
        self.stats.replayed_records += event.replayed
        self.stats.last_failover_us = event.at_us
        self._pending_convergence[event.shard] = event.at_us
        if event.proactive:
            self.stats.proactive_promotions += 1
        if event.old_primary in self.health.tripped:
            # The demoted device is media-sick: keep replication off it
            # so applies stop burning its remaining spares.
            group = self.pairs.get(event.shard) \
                or self.retired.get(event.shard)
            if group is not None:
                group.mark_replica_failed(event.old_primary)

    def _shard_op(self, group: ShardGroup, op, *args, **kwargs):
        """Run ``op(*args, **kwargs)``, a method of ``group``, with
        promote-and-retry on resilience failure.

        The first failure may be the breaker tripping (or already open)
        for a dead primary: promote a replica and re-issue once on the
        new primary.  A second failure means the shard is genuinely
        unavailable."""
        self.stats.ops += 1
        if group.primary_down or group.needs_promotion:
            self.controller.promote(group)
        start_us = self._session.now_us if self._session is not None \
            else self.clock.now_us
        try:
            result = op(*args, **kwargs)
        except ResilienceError as exc:
            if not (group.needs_promotion or group.primary_down):
                raise ShardUnavailableError(
                    f"shard {group.name!r} failed without tripping its "
                    f"breaker: {exc}") from exc
            self.controller.promote(group)
            result = op(*args, **kwargs)
        if self.telemetry.enabled:
            end_us = self._session.now_us if self._session is not None \
                else self.clock.now_us
            self._m_latency[group.name].record(max(0, end_us - start_us))
        return result

    def _ack(self, group: ShardGroup, record=None) -> None:
        """Post-ack bookkeeping: read-your-writes watermark, media
        health scoring, and the crashcheck kill/storm hook."""
        self.stats.acked_writes += 1
        if record is not None:
            session = self._session
            client = session.client if session is not None else None
            self._client_seq[(client, group.name)] = record.seq
        if self.health.observe(group):
            self.stats.media_trips += 1
        faults = self.faults
        if faults.cluster.active:
            fault = faults.cluster.on_ack(group.name)
            if fault is not None:
                if isinstance(fault, ShardMediaStorm):
                    self._inject_storm(fault)
                else:
                    self.kill_shard(fault.victim)

    def _inject_storm(self, fault: ShardMediaStorm) -> None:
        """Arm the storm's NAND faults on the victim's primary — the
        device keeps serving; the health monitor watches it degrade."""
        group = self._group(fault.victim)
        fault.inject(group.primary)
        self.stats.media_storms += 1

    # ---------------------------------------------------- read routing

    def _read_owner(self, key, group: ShardGroup) -> ShardGroup:
        """The group that serves a read of ``key`` whose ring owner is
        ``group`` while a migration is active (dual-read): a pending key
        missing from the new owner is still served by its old owner."""
        if key not in group.directory:
            src_name = self._migration.pending.get(key)
            if src_name is not None:
                return self._group(src_name)
        return group

    # ------------------------------------------------------- client API

    def put(self, key, value):
        pair = self.pairs[self.ring.lookup(key)]
        record = self._shard_op(pair, pair.put, key, value, self._session)
        self._ack(pair, record)
        if self._migration is not None:
            self._settle_migration(key, pair)
        return record

    def _absent(self, key) -> bool:
        """Answer a get or delete of a key no live group holds, with
        the routed miss's effects (the op count and, with telemetry on,
        its 0 µs sample); False when the op must be routed (see "Read
        routing" above for when)."""
        if self._migration is not None:
            return False
        for group in self.pairs.values():
            if group.primary_down or group.needs_promotion \
                    or key in group.directory:
                return False
        self.stats.ops += 1
        if self.telemetry.enabled:
            self._m_latency[self.ring.lookup(key)].record(0)
        return True

    def get(self, key):
        if self._absent(key):
            self.stats.reads += 1
            return None
        pair = self.pairs[self.ring.lookup(key)]
        if self._migration is not None:
            pair = self._read_owner(key, pair)
        session = self._session
        client = session.client if session is not None else None
        min_seq = self._client_seq.get((client, pair.name), 0)
        before_reads = pair.replica_reads
        before_falls = pair.replica_read_fallbacks
        value = self._shard_op(pair, pair.get, key, session, min_seq)
        if pair.replica_reads != before_reads:
            self.stats.replica_reads += 1
        if pair.replica_read_fallbacks != before_falls:
            self.stats.replica_read_fallbacks += 1
        self.stats.reads += 1
        return value

    def share(self, dst_key, src_key):
        """Remap ``dst_key`` onto ``src_key``'s data.

        Same shard: a true SHARE command on that group's primary.
        Different shards (or a source still mid-migration): the remap
        cannot cross devices, so degrade to read-on-source +
        put-on-destination (counted, so reports show how often the hash
        layout defeats the mapping-only copy).  An absent source raises
        :class:`ClusterError` either way, before anything is written."""
        src_pair = self.pairs[self.ring.lookup(src_key)]
        if self._migration is not None:
            src_pair = self._read_owner(src_key, src_pair)
        dst_pair = self.pairs[self.ring.lookup(dst_key)]
        session = self._session
        if src_pair is dst_pair:
            record = self._shard_op(dst_pair, dst_pair.share, dst_key,
                                    src_key, session)
        else:
            if src_key not in src_pair.directory:
                raise ClusterError(
                    f"share source {src_key!r} not present on shard "
                    f"{src_pair.name!r}")
            client = session.client if session is not None else None
            min_seq = self._client_seq.get((client, src_pair.name), 0)
            value = self._shard_op(src_pair, src_pair.get, src_key, session,
                                   min_seq)
            self.stats.cross_shard_copies += 1
            record = self._shard_op(dst_pair, dst_pair.put, dst_key, value,
                                    session)
        self._ack(dst_pair, record)
        if self._migration is not None:
            self._settle_migration(dst_key, dst_pair)
        return record

    def delete(self, key):
        if self._absent(key):
            return None
        pair = self.pairs[self.ring.lookup(key)]
        record = self._shard_op(pair, pair.delete, key, self._session)
        if record is not None:
            self._ack(pair, record)
        if self._migration is None:
            return record
        settled = self._settle_migration(key, pair)
        return record if record is not None else settled

    # ------------------------------------------------------ rebalancing

    def start_rebalance(self, add: Optional[ShardGroup] = None,
                        remove: Optional[str] = None) -> Rebalancer:
        """Resize the ring and return the migration driver.

        The ring swaps immediately — new writes route to new owners —
        while reads of not-yet-moved keys dual-read through the old
        owner.  The returned :class:`Rebalancer` drains the ownership
        diff; client writes settle pending keys early.  One rebalance
        at a time; each bumps the migration epoch, fencing any stale
        rebalancer."""
        if self._migration is not None:
            raise ClusterError("a rebalance is already in progress")
        if add is None and remove is None:
            raise ValueError("rebalance needs add= and/or remove=")
        adds: List[str] = []
        removes: List[str] = []
        if add is not None:
            if add.name in self.pairs or add.name in self.retired:
                raise ValueError(f"shard name in use: {add.name!r}")
            adds.append(add.name)
        if remove is not None:
            if remove not in self.pairs:
                raise ValueError(f"unknown shard: {remove!r}")
            removes.append(remove)
        new_ring = self.ring.rebalance(add=adds, remove=removes)
        if add is not None:
            self._register_group(add)
        pending: Dict[object, str] = {}
        for group in self.pairs.values():
            name = group.name
            for key in group.directory:
                if new_ring.lookup(key) != name:
                    pending[key] = name
        self.migration_epoch += 1
        self.ring = new_ring
        state = MigrationState(self.migration_epoch, pending,
                               tuple(adds), tuple(removes))
        rebalancer = Rebalancer(self, state)
        state.rebalancer = rebalancer
        self._migration = state
        self.stats.rebalances += 1
        if not pending:
            # Nothing changes owner: the migration is over already.
            self._finish_migration(state)
        return rebalancer

    def _settle_migration(self, key, written: ShardGroup):
        """A client write/delete to a pending key supersedes the old
        copy: retire it from the old owner and unpend the key.  When the
        op itself went to the old owner (an equal key whose ``repr``
        routes there), that copy *is* the op's result and stays.
        Callers test for an active migration first."""
        state = self._migration
        src_name = state.pending.pop(key, None)
        if src_name is None:
            return None
        record = None
        if src_name != written.name:
            src = self._group(src_name)
            record = self._shard_op(src, src.delete, key, self._session)
            if record is not None:
                self._ack(src, record)
        if not state.pending:
            self._finish_migration(state)
        return record

    def _finish_migration(self, state: MigrationState) -> None:
        if self._migration is not state:
            return
        self._migration = None
        for name in state.removed:
            self.retired[name] = self.pairs.pop(name)

    def finish_rebalance(self) -> int:
        """Drain the active migration to completion (recovery path)."""
        state = self._migration
        if state is None or state.rebalancer is None:
            return 0
        return state.rebalancer.run()

    @property
    def migration_pending(self) -> int:
        state = self._migration
        return len(state.pending) if state is not None else 0

    # ------------------------------------------------------ maintenance

    def kill_shard(self, name: str) -> None:
        """Kill ``name``'s primary: power-cycle the device and latch the
        group's breaker open (the health monitor declaring it dead), so
        the next operation — or :meth:`ensure_healthy` — promotes a
        replica."""
        group = self._group(name)
        group.primary.power_cycle()
        group.primary_down = True
        self.stats.kills += 1
        # force_open -> BREAKER_OPEN transition -> controller listener
        # marks needs_promotion; promotion happens at an op boundary.
        group.guard.breaker.force_open()

    def ensure_healthy(self) -> int:
        """Promote every group marked for promotion; returns how many."""
        promoted = 0
        for group in list(self.pairs.values()):
            if group.primary_down or group.needs_promotion:
                self.controller.promote(group)
                promoted += 1
        return promoted

    def pump_replication(self, limit: Optional[int] = None) -> int:
        """Apply pending log records across every group's replicas.

        ``limit`` is a *total* budget for the call, spent round-robin
        one record per group per turn (starting from a cursor that
        rotates across calls), so one hot shard's backlog can't starve
        the others' replication lag.  Unlimited calls drain each group
        fully."""
        pairs = list(self.pairs.values())
        if not pairs:
            return 0
        count = len(pairs)
        start = self._pump_cursor % count
        applied = 0
        if limit is None:
            for offset in range(count):
                applied += pairs[(start + offset) % count].pump_replication()
            self._pump_cursor = (start + 1) % count
        else:
            remaining = limit
            progressed = True
            while remaining > 0 and progressed:
                progressed = False
                for offset in range(count):
                    if remaining <= 0:
                        break
                    group = pairs[(start + offset) % count]
                    got = group.pump_replication(1)
                    if got:
                        progressed = True
                        applied += got
                        remaining -= got
                start = (start + 1) % count
            self._pump_cursor = start
        enabled = self.telemetry.enabled
        # Lag is only read for the histogram or to close a convergence.
        if enabled or self._pending_convergence:
            for group in pairs:
                lag = group.repl_lag
                if enabled:
                    self._m_replica_lag.record(lag)
                if lag == 0 and self._pending_convergence:
                    started = self._pending_convergence.pop(group.name,
                                                            None)
                    if started is not None:
                        duration = max(0, self.clock.now_us - started)
                        self.stats.convergences += 1
                        self.stats.convergence_us += duration
                        if enabled:
                            self._m_convergence.record(duration)
        self.stats.repl_applied += applied
        return applied

    def drain(self) -> None:
        """Complete all in-flight work on every device."""
        for device in self.devices:
            device.drain()
