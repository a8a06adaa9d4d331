"""Delta-log replication between the devices of a shard group.

The unit of replication is the same thing the FTL journals in its delta
log: a small record describing one logical mutation — a write, a
SHARE remap, or a trim.  The primary acks a client write as soon as the
mutation is durable locally *and* appended to the group's
:class:`ReplicationLog`; each replica applies records strictly in
sequence later (asynchronously, pumped in batches by the driver).

Epoch fencing makes failover safe: every promotion bumps the log's
epoch, and :meth:`LogApplier.apply` refuses records from a superseded
epoch with :class:`~repro.errors.StaleEpochError`, so a lagging replica
can never replay a stale remap over post-failover state.

The log is bounded the way the FTL bounds its mapping log (§4.2.2):
it keeps only the records some replica may still need.
:meth:`ReplicationLog.truncate` drops every record at or below a
sequence — the shard group cuts below its slowest replica, failed ones
included — and ``base`` names the newest dropped one.  A replica that
rejoins below the cut catches up from a snapshot of the primary instead
(:meth:`~repro.cluster.shard.ShardGroup.pump_replication`).

The log models the durable replicated-log service of a production tier
(it survives any single device kill); the devices under it hold the
actual pages.
"""

from __future__ import annotations

from typing import Any, List, NamedTuple, Optional

from repro.errors import ClusterError, ShareError, StaleEpochError

__all__ = [
    "REPL_WRITE",
    "REPL_SHARE",
    "REPL_TRIM",
    "ReplRecord",
    "ReplicationLog",
    "LogApplier",
]

REPL_WRITE = "write"
REPL_SHARE = "share"
REPL_TRIM = "trim"

_KINDS = (REPL_WRITE, REPL_SHARE, REPL_TRIM)


class ReplRecord(NamedTuple):
    """One replicated mutation, in delta-log shape."""

    epoch: int
    seq: int
    kind: str
    key: Any
    lpn: int
    #: Payload for writes; for SHARE records the *source* payload so an
    #: applier can degrade to read-modify-write when the replica's
    #: reverse-map refuses the remap.
    value: Any = None
    src_lpn: Optional[int] = None


class ReplicationLog:
    """Ordered, epoch-fenced mutation log of one shard pair."""

    def __init__(self) -> None:
        self._records: List[ReplRecord] = []
        self.epoch = 0
        #: Sequence number of the newest record (0 when empty).
        self.tip = 0
        #: Sequence number of the newest dropped record: the log holds
        #: exactly ``base + 1 .. tip``.
        self.base = 0
        #: Replicas that fell below ``base`` and were caught up from a
        #: snapshot of the primary instead (``ShardGroup._snapshot_to``).
        self.snapshot_catchups = 0

    def __len__(self) -> int:
        """Records still held (``tip - base``)."""
        return len(self._records)

    def append(self, kind: str, key, lpn: int, value=None,
               src_lpn: Optional[int] = None) -> ReplRecord:
        """Append a mutation under the current epoch and return it."""
        if kind not in _KINDS:
            raise ValueError(f"unknown replication kind: {kind!r}")
        seq = self.tip + 1
        record = ReplRecord(self.epoch, seq, kind, key, lpn, value, src_lpn)
        self._records.append(record)
        self.tip = seq
        return record

    def bump_epoch(self) -> int:
        """Fence the old primary at promotion; returns the new epoch."""
        self.epoch += 1
        return self.epoch

    def truncate(self, seq: int) -> None:
        """Drop every record with sequence <= ``seq`` (a no-op at or
        below ``base``)."""
        cut = seq - self.base
        if cut > 0:
            del self._records[:cut]
            self.base = seq

    def record_at(self, seq: int) -> ReplRecord:
        """The record with sequence ``seq`` — O(1), no tail copy.

        Only ``base < seq <= tip`` is held; a record at or below the
        cut is gone and raises :class:`ValueError`."""
        base = self.base
        if not base < seq <= self.tip:
            raise ValueError(f"seq {seq} outside log ({base}, {self.tip}]")
        return self._records[seq - base - 1]


class LogApplier:
    """Applies a pair's log onto one device, strictly in order.

    Tracks ``(epoch, watermark)``: every record with ``seq <=
    watermark`` has been applied.  Both the replica's background apply
    loop and the promotion-time tail replay go through here, so the
    in-order / no-stale-epoch discipline is enforced on every path.
    """

    def __init__(self) -> None:
        self.epoch = 0
        self.watermark = 0
        self.applied = 0
        #: SHARE remaps the replica had to degrade to plain writes
        #: (reverse-map refusal on the replica device).
        self.share_fallbacks = 0

    def apply(self, ssd, record: ReplRecord) -> bool:
        """Apply one record to ``ssd``.

        Returns False for an already-applied record (idempotent skip),
        True once applied.  Raises :class:`StaleEpochError` for a record
        from a superseded epoch and :class:`ClusterError` for a sequence
        gap — an applier never guesses around missing records."""
        if record.epoch < self.epoch:
            raise StaleEpochError(
                f"stale record epoch {record.epoch} < applier epoch "
                f"{self.epoch} (seq {record.seq})")
        if record.seq <= self.watermark:
            return False
        if record.seq != self.watermark + 1:
            raise ClusterError(
                f"apply gap: record seq {record.seq}, watermark "
                f"{self.watermark}")
        if record.kind == REPL_WRITE:
            ssd.write(record.lpn, record.value)
        elif record.kind == REPL_SHARE:
            try:
                ssd.share(record.lpn, record.src_lpn)
            except ShareError:
                # The replica's reverse-map may be shaped differently
                # (independent GC history); the record carries the
                # source payload exactly for this degradation.
                self.share_fallbacks += 1
                ssd.write(record.lpn, record.value)
        elif record.kind == REPL_TRIM:
            ssd.trim(record.lpn)
        else:
            raise ClusterError(f"unknown record kind: {record.kind!r}")
        self.epoch = record.epoch
        self.watermark = record.seq
        self.applied += 1
        return True
