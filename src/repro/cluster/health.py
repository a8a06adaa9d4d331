"""Media-health scoring: proactive failover before a device dies.

A flash device rarely fails all at once — it *degrades*: program
failures retire blocks, retirements burn spares, worn pages need
read-retry, and eventually reads go uncorrectable.  All of that is
visible in the PR 3 ``media.*`` counters long before a command actually
errors back to the host.  The :class:`MediaHealthMonitor` watches each
shard primary's :meth:`~repro.ssd.device.Ssd.media_report` deltas,
folds them into a weighted health score, and when the score crosses the
trip threshold latches the group's :class:`CircuitBreaker` open via
``force_open`` — the same edge a kill produces — so the existing
breaker listener marks the group for promotion and the router promotes
a healthy replica at the next operation boundary.

The promotion this produces is *proactive*: the sick primary is still
serving (``primary_down`` is False), no client has seen an error, and
the :class:`~repro.cluster.failover.FailoverEvent` records
``proactive=True``.  The demoted device rejoins as a replica; the
router marks it failed so replication stops burning its remaining
spares (a real tier would re-replicate onto a fresh device).

Scores are computed from *deltas against the first observation* of each
device, so a device with historical wear is not punished for its past —
only for degradation that happens on this monitor's watch.
"""

from __future__ import annotations

from typing import Dict, Set

__all__ = ["MediaHealthMonitor", "WEIGHTS"]

#: Weight per media_report counter delta.  Program/erase failures and
#: grown-bad blocks dominate: they are the irreversible escalation.
#: Read-retry noise contributes but cannot trip the breaker alone.
WEIGHTS: Dict[str, int] = {
    "program_fails": 3,
    "erase_fails": 3,
    "uncorrectable_reads": 2,
    "grown_bad_blocks": 4,
    "read_relocations": 1,
}

#: A score at or above this trips the breaker.
TRIP_THRESHOLD = 8

#: A group's primary is scored on every this-many acknowledged writes.
CHECK_EVERY = 4


class MediaHealthMonitor:
    """Per-shard media health scores with breaker-trip escalation.

    ``observe(group)`` is called by the router once per acknowledged
    write; every :data:`CHECK_EVERY`-th call per group it snapshots the
    primary's media report and scores the delta.  Reaching
    :data:`TRIP_THRESHOLD` — or exhausting a spare pool that existed at
    baseline — latches the group's breaker open exactly once per device.
    """

    def __init__(self) -> None:
        self.trips = 0
        #: Device names whose degradation tripped a breaker.  A tripped
        #: device never re-trips (it was already demoted once; the
        #: router keeps it out of the replica rotation).
        self.tripped: Set[str] = set()
        self._acks: Dict[str, int] = {}
        self._baseline: Dict[str, Dict[str, int]] = {}

    def score(self, ssd) -> int:
        """Weighted degradation since this device's first observation."""
        report = ssd.media_report()
        base = self._baseline.setdefault(ssd.name, dict(report))
        total = 0
        for counter, weight in WEIGHTS.items():
            delta = report.get(counter, 0) - base.get(counter, 0)
            if delta > 0:
                total += weight * delta
        # Spare exhaustion is terminal regardless of how gently the
        # device got there: the next retirement has nowhere to go.
        if base.get("spare_pool", 0) > 0 and report.get("spare_pool", 0) == 0:
            total += TRIP_THRESHOLD
        return total

    def observe(self, group) -> bool:
        """Score ``group``'s primary; returns True when this call
        tripped the breaker (the router counts the trip and the
        promotion happens at the next op boundary)."""
        primary = group.primary
        if primary.name in self.tripped:
            return False
        if group.primary_down or group.needs_promotion:
            return False
        count = self._acks.get(group.name, 0) + 1
        self._acks[group.name] = count
        if count % CHECK_EVERY:
            return False
        if self.score(primary) < TRIP_THRESHOLD:
            return False
        self.tripped.add(primary.name)
        self.trips += 1
        # force_open -> BREAKER_OPEN -> controller listener marks
        # needs_promotion; the router promotes at an op boundary.
        group.guard.breaker.force_open()
        return True
