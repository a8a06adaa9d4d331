"""Extension: sharded-tier failover and rebalance under LinkBench load.

The robustness tentpole put a replicated, breaker-guarded shard tier in
front of the event-driven devices: a consistent-hash router over three
primary/replica pairs, an epoch-fenced delta log replicating every
mutation (including SHARE remaps), and breaker-driven promotion when a
primary dies.  This benchmark measures what that machinery costs when it
actually fires: a healthy phase establishes the baseline client latency,
a mid-phase :class:`~repro.sim.faults.ShardKill` power-cycles one
primary between replication pumps (so the replica is behind and the
promotion must replay the delta-log tail), and a final phase measures
the tier after the failover settled on the promoted replica.

A second experiment raises the stakes on write durability: an R=2,
write-quorum-2 tier (every ack is on two devices) absorbs an
add-one-shard ring resize while LinkBench clients keep issuing traffic.
Migration batches interleave with operation chunks, so the dual-read
handoff, migration-epoch fencing, and SHARE-aware key transfer all run
against live load; afterwards every acked node key must read back
through the grown ring.

Rows land in ``results/cluster_failover.jsonl``: one per phase (p50 /
p99 / max client latency, throughput), one for the failover event
(victim, replay size, promotion duration, new epoch), one for the
rebalance (keys migrated, SHARE-remap transfers, migration epoch), and
final ``cluster.*`` / ``resilience.breaker_state.*`` telemetry
snapshots where the breaker trip and the promoted shard's epoch bump
are visible.

Shape asserted: exactly one kill and one failover; every node key acked
before the kill reads back afterwards (no lost acked writes); the
promoted shard runs at epoch 1; the post-failover phase still completes
the full operation count; and the quorum tier finishes its rebalance
with zero lost acked keys and a nonzero migrated-key count.
"""

import json
from pathlib import Path

from conftest import run_once

from repro.bench.harness import SCALES, build_cluster_stack
from repro.obs import Telemetry
from repro.obs.sinks import MemorySink
from repro.sim.faults import FaultPlan, ShardKill
from repro.workloads.linkbench import ClusterLinkBenchDriver, LinkBenchConfig

SHARDS = 3
CLIENTS = 4


def _phase_row(phase, result):
    merged = result.latencies.merged()
    summary = merged.summary()
    return {
        "type": "cluster_phase",
        "phase": phase,
        "transactions": result.transactions,
        "throughput_tps": result.throughput_tps,
        "samples": len(merged),
        "p50_ms": summary["p50"],
        "p99_ms": summary["p99"],
        "max_ms": summary["max"],
    }


def test_cluster_failover(benchmark, scale):
    params = SCALES[scale]
    nodes = max(300, params.linkbench_nodes // 4)
    phase_ops = max(600, params.linkbench_transactions // 2)

    def experiment():
        sink = MemorySink()
        telemetry = Telemetry(sink=sink, mode="sampled")
        faults = FaultPlan()
        stack = build_cluster_stack(shards=SHARDS, keys_estimate=nodes * 6,
                                    telemetry=telemetry, faults=faults)
        driver = ClusterLinkBenchDriver(
            stack.router, stack.clock,
            LinkBenchConfig(node_count=nodes, links_per_node=2))
        driver.load()

        healthy = driver.run(phase_ops, concurrency=CLIENTS)

        # Ack counting starts when the plan arms, so the kill lands a
        # quarter of the way into the degraded phase — between pumps,
        # leaving delta-log lag the promotion has to replay.
        faults.cluster.arm(ShardKill(nth=max(8, phase_ops // 4)))
        degraded = driver.run(phase_ops, concurrency=CLIENTS)

        post = driver.run(phase_ops, concurrency=CLIENTS)
        stack.router.ensure_healthy()
        stack.router.pump_replication()
        stack.router.drain()
        snapshot = telemetry.snapshot(stack.clock.now_us)["metrics"]

        # No lost acked writes: every node key was acked (at load or by
        # a later update) and delete_node re-puts, so each must read
        # back non-None through the post-failover tier.
        lost = [node_id for node_id in range(nodes)
                if stack.router.get(("node", node_id)) is None]

        return {
            "stack": stack,
            "faults": faults,
            "rows": {"healthy": healthy, "degraded": degraded,
                     "post_failover": post},
            "snapshot": snapshot,
            "lost": lost,
        }

    outcome = run_once(benchmark, experiment)
    stack = outcome["stack"]
    stats = stack.router.stats
    events = stack.router.controller.events
    fired = outcome["faults"].cluster.fired_faults()

    assert len(fired) == 1, "the armed shard kill never fired"
    assert stats.kills == 1
    assert stats.failovers == 1, (
        f"expected exactly one failover, saw {stats.failovers}")
    assert len(events) == 1
    event = events[0]
    assert event.epoch == 1
    assert event.duration_us > 0
    assert outcome["lost"] == [], (
        f"{len(outcome['lost'])} acked node keys lost after failover")
    out = Path(__file__).resolve().parent.parent / "results" \
        / "cluster_failover.jsonl"
    out.parent.mkdir(parents=True, exist_ok=True)
    snapshot = outcome["snapshot"]
    telemetry_row = {
        "type": "cluster_telemetry",
        "metrics": {name: value for name, value in sorted(snapshot.items())
                    if name.startswith(("cluster.",
                                        "resilience.breaker_state."))},
    }
    with out.open("w") as fh:
        for phase in ("healthy", "degraded", "post_failover"):
            fh.write(json.dumps(
                _phase_row(phase, outcome["rows"][phase])) + "\n")
        fh.write(json.dumps({
            "type": "failover_event",
            "shard": event.shard,
            "victim": fired[0].victim,
            "at_us": event.at_us,
            "duration_us": event.duration_us,
            "replayed": event.replayed,
            "epoch": event.epoch,
            "old_primary": event.old_primary,
            "new_primary": event.new_primary,
        }) + "\n")
        fh.write(json.dumps(telemetry_row) + "\n")

    healthy_row = _phase_row("healthy", outcome["rows"]["healthy"])
    post_row = _phase_row("post_failover", outcome["rows"]["post_failover"])
    print()
    print(f"healthy:       {healthy_row['throughput_tps']:8.1f} tx/s, "
          f"p99 {healthy_row['p99_ms']:.3f} ms")
    print(f"post-failover: {post_row['throughput_tps']:8.1f} tx/s, "
          f"p99 {post_row['p99_ms']:.3f} ms")
    print(f"failover: shard {event.shard} ({event.old_primary} -> "
          f"{event.new_primary}), {event.replayed} record(s) replayed, "
          f"{event.duration_us} us, epoch {event.epoch}")

    # The tier still serves after promotion: the post phase completed
    # every operation and recorded real latencies.
    assert post_row["transactions"] == phase_ops
    assert post_row["p99_ms"] > 0


def test_cluster_rebalance_quorum(benchmark, scale):
    """R=2 / write-quorum-2 tier grows by one shard under live traffic.

    Every ack lands on two devices before the client sees it; the ring
    resize interleaves migration batches with LinkBench operation
    chunks, so reads hit the dual-read handoff window and writes settle
    pending keys early.  Afterwards every acked node key must still
    read back through the grown ring."""
    params = SCALES[scale]
    nodes = max(240, params.linkbench_nodes // 5)
    phase_ops = max(400, params.linkbench_transactions // 3)

    def experiment():
        sink = MemorySink()
        telemetry = Telemetry(sink=sink, mode="sampled")
        stack = build_cluster_stack(shards=SHARDS, keys_estimate=nodes * 6,
                                    telemetry=telemetry,
                                    replicas=2, write_quorum=2,
                                    spare_shards=1)
        driver = ClusterLinkBenchDriver(
            stack.router, stack.clock,
            LinkBenchConfig(node_count=nodes, links_per_node=2))
        driver.load()

        healthy = driver.run(phase_ops, concurrency=CLIENTS)

        # Join the spare shard, then alternate traffic chunks with
        # migration batches: clients run *during* the resize, not
        # around it.
        rebalancer = stack.router.start_rebalance(add=stack.spares[0])
        chunk = max(40, phase_ops // 8)
        during_chunks = []
        while not rebalancer.done:
            during_chunks.append(driver.run(chunk, concurrency=CLIENTS))
            rebalancer.step()
        pending_after = stack.router.migration_pending

        post = driver.run(phase_ops, concurrency=CLIENTS)
        stack.router.pump_replication()
        stack.router.drain()
        snapshot = telemetry.snapshot(stack.clock.now_us)["metrics"]

        lost = [node_id for node_id in range(nodes)
                if stack.router.get(("node", node_id)) is None]

        return {
            "stack": stack,
            "rows": {"quorum_healthy": healthy,
                     "quorum_post_rebalance": post},
            "during_chunks": during_chunks,
            "pending_after": pending_after,
            "snapshot": snapshot,
            "lost": lost,
        }

    outcome = run_once(benchmark, experiment)
    stack = outcome["stack"]
    stats = stack.router.stats

    assert stats.rebalances == 1
    assert outcome["pending_after"] == 0, (
        f"{outcome['pending_after']} keys still pending after rebalance")
    assert stack.router.migration_pending == 0
    assert "shard3" in stack.router.pairs, "joined shard missing from ring"
    assert stats.migrated_keys > 0, "ring resize moved no keys"
    assert outcome["during_chunks"], "rebalance finished before any traffic"
    assert outcome["lost"] == [], (
        f"{len(outcome['lost'])} acked node keys unreadable after rebalance")
    # Quorum acks actually engaged: every write synced a replica.
    quorum_syncs = sum(pair.stats().quorum_syncs
                       for pair in stack.router.pairs.values())
    assert quorum_syncs > 0

    during_tx = sum(r.transactions for r in outcome["during_chunks"])
    during_p99 = max(_phase_row("x", r)["p99_ms"]
                     for r in outcome["during_chunks"])
    out = Path(__file__).resolve().parent.parent / "results" \
        / "cluster_failover.jsonl"
    out.parent.mkdir(parents=True, exist_ok=True)
    snapshot = outcome["snapshot"]
    with out.open("a") as fh:
        for phase in ("quorum_healthy", "quorum_post_rebalance"):
            fh.write(json.dumps(
                _phase_row(phase, outcome["rows"][phase])) + "\n")
        fh.write(json.dumps({
            "type": "rebalance_event",
            "added": "shard3",
            "migrated_keys": stats.migrated_keys,
            "shared_migrations": stats.shared_migrations,
            "migration_epoch": stack.router.migration_epoch,
            "transactions_during_migration": during_tx,
            "p99_ms_during_migration": during_p99,
        }) + "\n")
        fh.write(json.dumps({
            "type": "cluster_telemetry",
            "experiment": "quorum_rebalance",
            "metrics": {name: value
                        for name, value in sorted(snapshot.items())
                        if name.startswith(("cluster.",
                                            "resilience.breaker_state."))},
        }) + "\n")

    healthy_row = _phase_row("quorum_healthy",
                             outcome["rows"]["quorum_healthy"])
    post_row = _phase_row("quorum_post_rebalance",
                          outcome["rows"]["quorum_post_rebalance"])
    print()
    print(f"quorum healthy:  {healthy_row['throughput_tps']:8.1f} tx/s, "
          f"p99 {healthy_row['p99_ms']:.3f} ms")
    print(f"during resize:   {during_tx} tx, p99 {during_p99:.3f} ms")
    print(f"post rebalance:  {post_row['throughput_tps']:8.1f} tx/s, "
          f"p99 {post_row['p99_ms']:.3f} ms")
    print(f"rebalance: {stats.migrated_keys} key(s) moved "
          f"({stats.shared_migrations} via SHARE remap), "
          f"epoch {stack.router.migration_epoch}")

    assert post_row["transactions"] == phase_ops
    assert post_row["p99_ms"] > 0
