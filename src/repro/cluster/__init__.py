"""Sharded multi-device tier: router, replication, failover, rebalance.

Composes the PR 4 resilience primitives (retry, breaker, guard) and the
PR 5 event-driven devices into a front-end over M shard groups —
consistent-hash placement, bounded per-shard queues, delta-log
replication to R peer devices with configurable write quorums,
read-your-writes replica reads, breaker-driven promotion with epoch
fencing (kill-driven or proactive via media-health scoring), and live
ring rebalancing.  The crashcheck side (``repro.crashcheck.cluster``)
verifies the tier's promises: no acked write is ever lost to a
single-shard kill or media storm, reads honor read-your-writes, and
replicas converge after quiescence.
"""

from repro.cluster.failover import FailoverController, FailoverEvent
from repro.cluster.hashring import HashRing, fnv1a64
from repro.cluster.health import MediaHealthMonitor
from repro.cluster.rebalance import MigrationState, Rebalancer
from repro.cluster.replication import (REPL_SHARE, REPL_TRIM, REPL_WRITE,
                                       LogApplier, ReplicationLog,
                                       ReplRecord)
from repro.cluster.router import ClusterStats, ShardRouter
from repro.cluster.shard import PairStats, Replica, ShardGroup

__all__ = [
    "HashRing",
    "fnv1a64",
    "ReplRecord",
    "ReplicationLog",
    "LogApplier",
    "REPL_WRITE",
    "REPL_SHARE",
    "REPL_TRIM",
    "ShardGroup",
    "Replica",
    "PairStats",
    "FailoverController",
    "FailoverEvent",
    "MediaHealthMonitor",
    "MigrationState",
    "Rebalancer",
    "ShardRouter",
    "ClusterStats",
]
