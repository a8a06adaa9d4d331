"""Live key migration for ring resize: add or remove a shard safely.

``ShardRouter.start_rebalance`` swaps the ring *first* (so new writes
immediately route to the new owners) and hands back a
:class:`Rebalancer` that drains the ownership diff — every key whose
clockwise successor vnode changed — in deterministic per-vnode batches.
Until a key's record lands on its new owner, the router *dual-reads*:
the new owner's directory is consulted first, and a miss for a
still-pending key falls back to the old owner, which keeps serving it.
A client write to a pending key settles it immediately (write to the
new owner, retire the old copy), so the migration never overwrites
fresher data.

Each migrated record is re-published through the normal acked write
path on the destination group — primary write, replication-log append,
write-quorum wait — so a kill at *any* boundary mid-migration leaves
the key readable from one side of the handoff or the other: the source
copy is only deleted after the destination ack returned.

SHARE-remap awareness: a key created by a same-shard SHARE carries its
source key as provenance.  When the provenance key already lives on the
destination group with an identical payload, the transfer is a SHARE
remap on the destination device — the paper's mapping-only copy —
instead of a full data copy; the payload comparison guards against
provenance that went stale (source overwritten since the snapshot).

Epoch fencing: every ``start_rebalance`` bumps the router's migration
epoch and each :class:`Rebalancer` is pinned to the epoch it was
created under.  A rebalancer resumed after a newer rebalance started
(the stale-coordinator shape) is refused with
:class:`~repro.errors.StaleEpochError` instead of migrating keys under
an outdated ring.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.errors import StaleEpochError

__all__ = ["Rebalancer", "MigrationState"]


class MigrationState:
    """The router's view of one in-flight migration."""

    __slots__ = ("epoch", "pending", "rebalancer", "added", "removed")

    def __init__(self, epoch: int, pending: Dict[Any, str],
                 added: Tuple[str, ...], removed: Tuple[str, ...]) -> None:
        self.epoch = epoch
        #: key -> old-owner group name; a key leaves the map the moment
        #: its record is durable on the new owner (migration step or a
        #: client write settling it early).
        self.pending = pending
        self.rebalancer: Optional["Rebalancer"] = None
        self.added = added
        self.removed = removed


class Rebalancer:
    """Drains one migration's ownership diff, one vnode at a time."""

    def __init__(self, router, state: MigrationState) -> None:
        self.router = router
        self.epoch = state.epoch
        self._state = state
        # Deterministic per-vnode batches: group pending keys by the
        # destination vnode point that now owns them, migrate batches in
        # ascending point order, keys in repr order within a batch.
        batches: Dict[int, List[Any]] = {}
        for key in state.pending:
            point, _owner = router.ring.lookup_point(key)
            batches.setdefault(point, []).append(key)
        self._units: List[Tuple[int, List[Any]]] = [
            (point, sorted(keys, key=repr))
            for point, keys in sorted(batches.items())]
        self.cursor = 0
        self.moved = 0
        self.shared = 0
        self.skipped = 0

    @property
    def total_units(self) -> int:
        return len(self._units)

    @property
    def done(self) -> bool:
        return self.cursor >= len(self._units)

    def _check_epoch(self) -> None:
        if self.router.migration_epoch != self.epoch:
            raise StaleEpochError(
                f"rebalancer epoch {self.epoch} superseded by migration "
                f"epoch {self.router.migration_epoch}")

    def step(self) -> int:
        """Migrate the next vnode batch; returns keys moved.

        Safe to interleave with client traffic and shard kills: every
        per-key transfer is an independently acked handoff."""
        self._check_epoch()
        if self.done:
            return 0
        _point, keys = self._units[self.cursor]
        self.cursor += 1
        migrated = 0
        for key in keys:
            if self._move_key(key):
                migrated += 1
        if self.done:
            self.router._finish_migration(self._state)
        return migrated

    def run(self) -> int:
        """Drain every remaining vnode batch."""
        migrated = 0
        while not self.done:
            migrated += self.step()
        return migrated

    def _move_key(self, key) -> bool:
        router = self.router
        state = self._state
        src_name = state.pending.get(key)
        if src_name is None:
            # A client write or delete already settled this key on the
            # new owner (or removed it); nothing left to move.
            self.skipped += 1
            return False
        src = router.pairs[src_name]
        value = router._shard_op(src, src.get, key, allow_replica=False)
        if value is None:
            # Deleted on the source since the plan was computed.
            state.pending.pop(key, None)
            self.skipped += 1
            return False
        dst = router.pairs[router.ring.lookup(key)]
        record = None
        src_key = src._share_src.get(key)
        if src_key is not None and src_key in dst.directory:
            src_val = router._shard_op(dst, dst.get, src_key,
                                       allow_replica=False)
            if repr(src_val) == repr(value):
                record = router._shard_op(dst, dst.share, key, src_key)
                self.shared += 1
                router.stats.shared_migrations += 1
        if record is None:
            record = router._shard_op(dst, dst.put, key, value)
        router._ack(dst, record)
        # The destination ack is durable: only now retire the old copy.
        state.pending.pop(key, None)
        retired = router._shard_op(src, src.delete, key)
        if retired is not None:
            router._ack(src, retired)
        self.moved += 1
        router.stats.migrated_keys += 1
        return True
