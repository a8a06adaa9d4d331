"""One shard of the cluster: a primary plus R replica devices.

A :class:`ShardGroup` owns ``1 + R`` event-driven
:class:`~repro.ssd.device.Ssd` devices plus the host-side state that
makes them one shard: the key->LPN directory (the tier's metadata
service — it survives device kills), an LPN allocator over the
primary's logical space, the group's
:class:`~repro.cluster.replication.ReplicationLog`, one
:class:`~repro.cluster.replication.LogApplier` per replica, and a
:class:`~repro.host.resilience.ShareGuard` wrapping every primary
command in the PR 4 retry/breaker policy.

Write path: reserve an LPN, write the primary through the guard, commit
the directory entry, append the mutation to the replication log, then
synchronously drive the ``write_quorum - 1`` most-caught-up replicas to
the record's sequence — *then* ack.  With ``write_quorum=1`` (the PR 8
shape) replicas lag behind on purpose and :meth:`pump_replication`
applies the backlog in batches on dedicated replication sessions, so
background applies never advance foreground client cursors.

Log cut: after each pump the log drops every record that all replicas
at or above the previous cut have applied — failed ones included, since
promotion falls back to them — so it holds only the replication lag.
A replica below the cut (a rejoined old primary) catches up from a
snapshot of the primary instead of a replay from seq 1.

Read path: a replica may serve a read when its applied watermark covers
both the *reader's* last acked sequence on this shard (read-your-writes,
enforced by the router's per-client watermark) and the sequence that
*created* the key's current directory entry.  The entry fence matters
because LPNs are recycled: without it a lagging replica could return a
deleted key's stale payload for a fresh key that re-used its LPN.

Backpressure: before each command the group bounds the target device's
in-flight queue at :data:`QUEUE_LIMIT` tickets, blocking (advancing virtual
time to the next completion) until a slot frees up.
"""

from __future__ import annotations

from typing import Any, Dict, List, NamedTuple, Optional, Sequence

from repro.cluster.replication import (REPL_SHARE, REPL_TRIM, REPL_WRITE,
                                       LogApplier, ReplicationLog)
from repro.errors import (ClusterError, DeviceError, MediaError,
                          OutOfSpaceError, ShareError)
from repro.host.resilience import ShareGuard
from repro.ssd.ncq import DeviceSession

__all__ = ["ShardGroup", "Replica", "PairStats"]

#: Session id reserved for the first replica's apply loop (never a
#: client); further replicas count down from here.
REPL_CLIENT = -1

#: In-flight tickets a device may hold before the group blocks for one.
QUEUE_LIMIT = 8


class Replica:
    """One replica device with its applier and replication session."""

    __slots__ = ("ssd", "applier", "session", "failed")

    def __init__(self, ssd, client: int = REPL_CLIENT) -> None:
        self.ssd = ssd
        self.applier = LogApplier()
        self.session = DeviceSession(client=client)
        #: Dropped from quorum, reads, and pumping after an unrecoverable
        #: device error during apply (or a health-monitor trip).
        self.failed = False

    def __repr__(self) -> str:
        return (f"Replica({self.ssd.name!r}, "
                f"watermark={self.applier.watermark}, "
                f"failed={self.failed})")


class PairStats(NamedTuple):
    """Snapshot of one group's counters (for reports and tests)."""

    writes: int
    reads: int
    shares: int
    deletes: int
    share_fallbacks: int
    backpressure_waits: int
    failovers: int
    repl_lag: int
    epoch: int
    replica_reads: int = 0
    replica_read_fallbacks: int = 0
    quorum_syncs: int = 0
    quorum_degraded: int = 0
    replica_drops: int = 0
    replicas: int = 0
    write_quorum: int = 1


class ShardGroup:
    """Primary + R replica devices serving one consistent-hash shard."""

    def __init__(self, name: str, primary, replicas: Sequence = (),
                 write_quorum: int = 1) -> None:
        if write_quorum < 1:
            raise ValueError(f"write_quorum must be >= 1: {write_quorum}")
        if write_quorum > 1 + len(replicas):
            raise ValueError(
                f"write_quorum {write_quorum} exceeds group size "
                f"{1 + len(replicas)}")
        self.name = name
        self.primary = primary
        self._next_repl_client = REPL_CLIENT
        self.replicas: List[Replica] = []
        for device in replicas:
            self._add_replica(device)
        self.write_quorum = write_quorum
        self.log = ReplicationLog()
        self.directory: Dict[Any, int] = {}
        #: Sequence of the record that created each live directory entry
        #: (the replica-read fence against LPN recycling).
        self._entry_seq: Dict[Any, int] = {}
        #: SHARE provenance: dst_key -> src_key for entries created by a
        #: same-shard SHARE whose source is still live.  Rebalancing uses
        #: it to move snapshot records as remaps instead of full copies.
        self._share_src: Dict[Any, Any] = {}
        devices = [primary] + [rep.ssd for rep in self.replicas]
        self.capacity = min(device.logical_pages for device in devices)
        self._next_lpn = 0
        self._free_lpns: List[int] = []
        self.guard = ShareGuard(primary, engine=f"shard.{name}")
        # Role/health flags the router and failover controller maintain.
        self.primary_down = False
        self.needs_promotion = False
        self.failovers = 0
        # Plain counters (readable under NULL_TELEMETRY).
        self.writes = 0
        self.reads = 0
        self.shares = 0
        self.deletes = 0
        self.share_fallbacks = 0
        self.backpressure_waits = 0
        self.replica_reads = 0
        self.replica_read_fallbacks = 0
        self.quorum_syncs = 0
        self.quorum_degraded = 0
        self.replica_drops = 0
        self._read_rr = 0
        # That makes 29 instance attributes.  A 30th stops CPython 3.11
        # sharing the instance dict's keys across groups, and every
        # attribute read on a group gets slower — enough to show in
        # cluster-quorum's host_ops_per_s — so a new per-group counter
        # goes on ``self.log`` (as ``snapshot_catchups`` does).

    def _add_replica(self, device) -> Replica:
        rep = Replica(device, client=self._next_repl_client)
        self._next_repl_client -= 1
        self.replicas.append(rep)
        return rep

    def rejoin(self, device) -> Replica:
        """Re-admit a demoted (or repaired) device as a fresh replica.

        The new replica starts from watermark 0.  Once the log has been
        cut, its first apply catches it up from a snapshot of the
        primary (:meth:`_snapshot_to`); before that it replays the log
        from seq 1, which is idempotent on its media.  Either way any
        post-kill gap closes."""
        return self._add_replica(device)

    # ---------------------------------------------------------- metadata

    def live_replicas(self) -> List[Replica]:
        return [rep for rep in self.replicas if not rep.failed]

    @property
    def repl_lag(self) -> int:
        """Records acked by the primary but missing on the most-lagged
        live replica (0 with no live replicas: nothing left to drain)."""
        live = self.live_replicas()
        if not live:
            return 0
        tip = self.log.tip
        return tip - min(rep.applier.watermark for rep in live)

    def stats(self) -> PairStats:
        return PairStats(self.writes, self.reads, self.shares, self.deletes,
                         self.share_fallbacks, self.backpressure_waits,
                         self.failovers, self.repl_lag, self.log.epoch,
                         self.replica_reads, self.replica_read_fallbacks,
                         self.quorum_syncs, self.quorum_degraded,
                         self.replica_drops, len(self.replicas),
                         self.write_quorum)

    def mark_replica_failed(self, device_name: str) -> bool:
        """Drop the named replica from quorum/read/pump rotation."""
        for rep in self.replicas:
            if rep.ssd.name == device_name and not rep.failed:
                rep.failed = True
                self.replica_drops += 1
                return True
        return False

    def _reserve_lpn(self, key):
        """Pick an LPN for ``key`` without committing it yet."""
        lpn = self.directory.get(key)
        if lpn is not None:
            return lpn, False
        if self._free_lpns:
            return self._free_lpns[-1], True
        if self._next_lpn >= self.capacity:
            raise ClusterError(
                f"shard {self.name!r} is full ({self.capacity} keys)")
        return self._next_lpn, True

    def _commit_lpn(self, key, lpn: int, fresh: bool) -> None:
        """Commit a reservation once the device write succeeded."""
        if not fresh:
            return
        if self._free_lpns and self._free_lpns[-1] == lpn:
            self._free_lpns.pop()
        else:
            self._next_lpn += 1
        self.directory[key] = lpn

    # ------------------------------------------------------- client ops

    def _backpressure(self, ssd) -> None:
        if ssd.inflight >= QUEUE_LIMIT:
            self.backpressure_waits += ssd.drain(leave=QUEUE_LIMIT - 1)

    def put(self, key, value):
        """Durably write ``key`` and append the replication record.

        Returns the appended :class:`ReplRecord`; its return *is* the
        ack — the write is on the primary's media, in the durable log,
        and (with ``write_quorum`` > 1) applied on a write quorum of
        replicas, so a single-device kill at any later instant cannot
        lose it."""
        ssd = self.primary
        self._backpressure(ssd)
        lpn, fresh = self._reserve_lpn(key)
        self.guard.call("cluster.put", ssd.write, lpn, value)
        self._commit_lpn(key, lpn, fresh)
        record = self.log.append(REPL_WRITE, key, lpn, value)
        if fresh:
            self._entry_seq[key] = record.seq
        self._share_src.pop(key, None)
        self._await_quorum(record.seq)
        self.writes += 1
        return record

    def get(self, key, min_seq: int = 0, allow_replica: bool = True):
        """Read ``key`` (None when absent).

        A replica serves the read when one has applied both ``min_seq``
        (the caller's read-your-writes watermark) and the sequence that
        created the key's directory entry; otherwise — or when the
        replica read itself fails at the device — the primary serves it
        through the guard."""
        lpn = self.directory.get(key)
        if lpn is None:
            return None
        if allow_replica and self.replicas:
            rep = self._pick_replica(key, min_seq)
            if rep is not None:
                ssd = rep.ssd
                self._backpressure(ssd)
                try:
                    value = ssd.read(lpn)
                except DeviceError:
                    self.replica_read_fallbacks += 1
                else:
                    self.replica_reads += 1
                    self.reads += 1
                    return value
        ssd = self.primary
        self._backpressure(ssd)
        value = self.guard.call("cluster.get", ssd.read, lpn)
        self.reads += 1
        return value

    def _pick_replica(self, key, min_seq: int) -> Optional[Replica]:
        """Round-robin over replicas eligible to serve ``key``."""
        need = min_seq
        entry = self._entry_seq.get(key, 0)
        if entry > need:
            need = entry
        count = len(self.replicas)
        for offset in range(count):
            rep = self.replicas[(self._read_rr + offset) % count]
            if rep.failed or rep.applier.watermark < need:
                continue
            self._read_rr = (self._read_rr + offset + 1) % count
            return rep
        return None

    def share(self, dst_key, src_key):
        """SHARE-remap ``dst_key`` onto ``src_key``'s physical page.

        The mapping-only copy from the paper, lifted to the KV tier.
        Degrades to read+write when the primary's reverse map refuses
        the remap; either way the replication record carries the source
        payload so the replica can make the same choice independently.
        Returns the appended record."""
        src_lpn = self.directory.get(src_key)
        if src_lpn is None:
            raise ClusterError(
                f"share source {src_key!r} not present on shard "
                f"{self.name!r}")
        ssd = self.primary
        self._backpressure(ssd)
        value = self.guard.call("cluster.share.read", ssd.read, src_lpn)
        lpn, fresh = self._reserve_lpn(dst_key)

        def do_share():
            try:
                ssd.share(lpn, src_lpn)
            except ShareError:
                self.share_fallbacks += 1
                ssd.write(lpn, value)
        self.guard.call("cluster.share", do_share)
        self._commit_lpn(dst_key, lpn, fresh)
        record = self.log.append(REPL_SHARE, dst_key, lpn, value,
                                 src_lpn=src_lpn)
        if fresh:
            self._entry_seq[dst_key] = record.seq
        self._share_src[dst_key] = src_key
        self._await_quorum(record.seq)
        self.shares += 1
        return record

    def delete(self, key):
        """Trim ``key``; returns the record, or None when absent."""
        lpn = self.directory.get(key)
        if lpn is None:
            return None
        ssd = self.primary
        self._backpressure(ssd)
        self.guard.call("cluster.delete", ssd.trim, lpn)
        del self.directory[key]
        self._entry_seq.pop(key, None)
        self._share_src.pop(key, None)
        self._free_lpns.append(lpn)
        record = self.log.append(REPL_TRIM, key, lpn)
        self._await_quorum(record.seq)
        self.deletes += 1
        return record

    # ------------------------------------------------------- replication

    def _apply_to(self, rep: Replica, upto: Optional[int] = None,
                  budget: Optional[int] = None) -> int:
        """Apply pending records to one replica, strictly in order.

        ``upto`` bounds the target sequence (defaults to the log tip),
        ``budget`` bounds how many records this call applies.  A device
        error mid-apply marks the replica failed and drops it from the
        rotation — the applier watermark stays truthful, so a later
        repair could resume exactly where it stopped.  The I/O runs on
        the replica's replication session (the caller's issuer after)."""
        log = self.log
        tip = log.tip
        if upto is not None and upto < tip:
            tip = upto
        applied = 0
        ssd = rep.ssd
        session = rep.session
        clock = ssd.clock
        if session.now_us < clock.now_us:
            session.now_us = clock.now_us
        applier = rep.applier
        caller = clock.issuer
        clock.issuer = session
        try:
            if applier.watermark < log.base:
                self._snapshot_to(rep)
                return 0
            while applier.watermark < tip:
                if budget is not None and applied >= budget:
                    break
                record = log.record_at(applier.watermark + 1)
                try:
                    done = applier.apply(ssd, record)
                except (MediaError, OutOfSpaceError):
                    # The replica's media is giving out: drop it from
                    # the rotation rather than burn its remaining spares.
                    rep.failed = True
                    self.replica_drops += 1
                    break
                except DeviceError:
                    # Transient (busy/timeout): stop this batch, retry
                    # at the next pump with the replica still in rotation.
                    break
                if done:
                    applied += 1
        finally:
            clock.issuer = caller
        return applied

    def _snapshot_to(self, rep: Replica) -> None:
        """Catch a replica below the log's cut up from the primary.

        The records it would replay are gone, so it copies the state they
        built instead, on its replication session (:meth:`_apply_to`
        binds it): every live directory entry is read from the primary
        and written at its LPN, every LPN the group has freed is trimmed,
        and the applier jumps to the log's tip and epoch.  A device error leaves the watermark where it was
        (the next apply starts the copy over); a dead primary serves no
        snapshot until a promotion replaces it."""
        if self.primary_down:
            return
        primary = self.primary
        ssd = rep.ssd
        try:
            for lpn in self.directory.values():
                try:
                    value = primary.read(lpn)
                except DeviceError:
                    return      # the source stumbled, not the replica
                ssd.write(lpn, value)
            for lpn in self._free_lpns:
                ssd.trim(lpn)
        except (MediaError, OutOfSpaceError):
            rep.failed = True
            self.replica_drops += 1
            return
        except DeviceError:
            return
        log = self.log
        rep.applier.watermark = log.tip
        rep.applier.epoch = log.epoch
        log.snapshot_catchups += 1

    def _await_quorum(self, seq: int) -> None:
        """Block the ack until ``write_quorum`` group members hold the
        record (the primary is vote one).  With too few live replicas
        the group degrades to primary-only acks — availability over
        quorum — and counts the episode."""
        need = self.write_quorum - 1
        if need <= 0:
            return
        satisfied = 0
        # Most-caught-up first, ties in replica order (a stable sort by
        # descending watermark, taken one pick at a time: only the
        # picked replica's watermark moves).
        live = [rep for rep in self.replicas if not rep.failed]
        while live and satisfied < need:
            rep = live[0]
            for other in live:
                if other.applier.watermark > rep.applier.watermark:
                    rep = other
            live.remove(rep)
            if rep.applier.watermark < seq:
                self.quorum_syncs += 1
                self._apply_to(rep, upto=seq)
            if rep.applier.watermark >= seq:
                satisfied += 1
        if satisfied < need:
            self.quorum_degraded += 1

    def pump_replication(self, limit: Optional[int] = None) -> int:
        """Apply up to ``limit`` pending log records across replicas.

        Runs on each replica's dedicated replication session so the
        apply I/O queues behind the replica's other work without
        dragging any client cursor forward.  The most-lagged replica
        drains first.  Afterwards the log drops every record at or below
        the lowest watermark of *all* replicas — a failed one may still
        be promoted (when no live replica is left) and must find its
        tail — except those already below the cut, which catch up from a
        snapshot and need no record.  Returns the number of records
        applied (a snapshot applies none)."""
        live = self.live_replicas()
        live.sort(key=lambda rep: rep.applier.watermark)
        applied = 0
        remaining = limit
        for rep in live:
            count = self._apply_to(rep, budget=remaining)
            applied += count
            if remaining is not None:
                remaining -= count
                if remaining <= 0:
                    break
        log = self.log
        base = log.base
        floor = log.tip
        for rep in self.replicas:
            mark = rep.applier.watermark
            if base <= mark < floor:
                floor = mark
        log.truncate(floor)
        return applied
