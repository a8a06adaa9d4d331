"""Delta-log replication between the two devices of a shard pair.

The unit of replication is the same thing the FTL journals in its delta
log (PR 2): a small record describing one logical mutation — a write, a
SHARE remap, or a trim.  The primary acks a client write as soon as the
mutation is durable locally *and* appended to the pair's
:class:`ReplicationLog`; the replica applies records strictly in
sequence later (asynchronously, pumped in batches by the driver).

Epoch fencing makes failover safe: every promotion bumps the log's
epoch, and both :meth:`ReplicationLog.append_record` and
:meth:`LogApplier.apply` refuse records from a superseded epoch with
:class:`~repro.errors.StaleEpochError`.  A demoted primary that wakes up
holding pre-failover records cannot push them into the log, and a
lagging replica can never replay a stale remap over post-failover state.

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

    def __len__(self) -> int:
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

    def append_record(self, record: ReplRecord) -> None:
        """Append a pre-built record, fencing stale writers.

        A record stamped with a superseded epoch is refused with
        :class:`StaleEpochError`; a sequence gap is a programming error
        and raises :class:`ClusterError`."""
        if record.epoch != self.epoch:
            raise StaleEpochError(
                f"record epoch {record.epoch} != log epoch {self.epoch} "
                f"(seq {record.seq}): writer was demoted")
        if record.seq != self.tip + 1:
            raise ClusterError(
                f"non-contiguous append: seq {record.seq}, expected "
                f"{self.tip + 1}")
        self._records.append(record)
        self.tip = record.seq

    def bump_epoch(self) -> int:
        """Fence the old primary at promotion; returns the new epoch."""
        self.epoch += 1
        return self.epoch

    def records_from(self, seq: int) -> List[ReplRecord]:
        """All records with sequence >= ``seq`` (1-based, contiguous)."""
        if seq < 1:
            raise ValueError(f"seq must be >= 1: {seq}")
        return self._records[seq - 1:]

    def record_at(self, seq: int) -> ReplRecord:
        """The record with sequence ``seq`` — O(1), no tail copy.

        Appliers stepping one record at a time (quorum waits, budgeted
        round-robin pumping) use this instead of slicing the tail."""
        if not 1 <= seq <= self.tip:
            raise ValueError(f"seq {seq} outside log [1, {self.tip}]")
        return self._records[seq - 1]


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
