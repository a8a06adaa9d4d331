"""Cluster-tier harnesses: the sharded tier under kills, storms and chaos.

The device-level harnesses kill the whole world mid-operation; these
keep the world running and take out one shard at a time.  They follow
the same protocol as :mod:`repro.crashcheck.workloads` and are swept by
the three cluster rows of :mod:`repro.crashcheck.families`:

* :class:`ClusterHarness` — three shard pairs under a deterministic
  linkbench-small KV mix from one synchronous client.  The ``cluster-kill``
  family kills the acking shard's primary — power-cycle plus a latched
  breaker — *after* an acknowledged write, at every ack boundary; the
  tier must carry the run through breaker-driven failover.  Because an
  ack boundary has nothing in flight, zero ``no_lost_acked_write``
  violations is the expected result and any nonzero count is a real bug
  in replication, promotion replay or epoch fencing.
* :func:`media_cluster_harness` — the same tier with per-device fault
  plans and spare pools, for the ``cluster-media`` family: a
  :class:`~repro.sim.faults.ShardMediaStorm` at each ack boundary makes
  the victim's NAND degrade instead of die, the FTL absorbs each failure
  onto a spare block, and the media-health monitor must trip a
  *proactive* promotion before the device gives out.
* :class:`ClusterChaosHarness` — the seeded chaos scheduler of the
  ``cluster-chaos`` family: one :func:`~repro.sim.rng.make_rng` stream
  interleaves multi-client traffic with shard kills, media storms,
  transient device-busy faults and a mid-run ring resize (with a kill
  during the migration), holding ``no_lost_acked_write``,
  ``read_your_writes`` and ``replica_convergence``.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple

from repro.cluster import ShardGroup, ShardRouter
from repro.crashcheck.invariants import (no_lost_acked_write,
                                         replica_convergence)
from repro.crashcheck.workloads import DeviceState, _small_ssd
from repro.sim.clock import SimClock
from repro.sim.events import EventScheduler
from repro.sim.faults import (NO_FAULTS, DeviceBusy, FaultPlan,
                              ShardMediaStorm)
from repro.sim.rng import make_rng
from repro.ssd.ncq import DeviceSession

#: Shard pairs in the verification tier (>= 3 per the acceptance bar).
CLUSTER_SHARDS = 3

#: Workload steps; roughly two thirds ack a write, so the full sweep
#: explores on the order of a hundred kill sites.
CLUSTER_STEPS = 150

#: Distinct node keys the run churns over.
CLUSTER_NODES = 30

#: Replication is pumped every this many steps (the replica lag a kill
#: must be able to replay through).
PUMP_EVERY = 12


class ClusterHarness:
    """Three shard pairs under a deterministic linkbench-small KV mix.

    Node-update heavy with gets, SHARE snapshots, and deletes — the
    LinkBench shape reduced to the router's KV verbs.  The oracle maps
    every key ever touched to its last *acknowledged* value (``None``
    after delete); ``check_engine`` replays it through the router after
    recovery."""

    name = "cluster-small"

    def __init__(self, faults: FaultPlan, l2p: str = "flat",
                 media: bool = False) -> None:
        self.l2p = l2p
        self.clock = SimClock()
        self.events = EventScheduler(self.clock)
        self.media = media
        #: device name -> its own plan (media mode only): a storm's NAND
        #: faults must land on one victim device, while the sweep's plan
        #: stays a router-level concern.
        self.device_plans: Dict[str, FaultPlan] = {}
        pairs = []
        for index in range(CLUSTER_SHARDS):
            primary = self._device(f"s{index}p")
            pairs.append(ShardGroup(f"shard{index}", primary,
                                    [self._device(f"s{index}r")]))
        self.pairs = pairs
        # In the kill sweep devices run fault-free (the kill is a
        # router-level event); only the router consults the sweep's plan.
        self.router = ShardRouter(pairs, self.clock, faults=faults)
        self.durable: Dict[object, object] = {}
        self.crashed = False

    def _device(self, name: str):
        # All devices on one scheduler — completions interleave in
        # global time exactly as they would on one host.  Media mode
        # gives each device its own plan plus a spare-block pool for the
        # FTL to retire storm-failed blocks into.
        plan = NO_FAULTS
        spares = 0
        if self.media:
            plan = self.device_plans.setdefault(name, FaultPlan())
            spares = 4
        return _small_ssd(plan, self.clock, self.l2p, block_count=24,
                          pages_per_block=8, overprovision=0.25,
                          share_entries=32, spare_blocks=spares,
                          name=name, events=self.events)

    def run(self) -> None:
        rng = random.Random(0xC10C)
        router = self.router
        durable = self.durable
        for step in range(CLUSTER_STEPS):
            node = rng.randrange(CLUSTER_NODES)
            key = ("node", node)
            draw = rng.random()
            if draw < 0.50:
                value = ("v", node, step)
                router.put(key, value)
                durable[key] = value
            elif draw < 0.64:
                router.get(key)
            elif draw < 0.76 and durable.get(key) is not None:
                snap = ("snap", node)
                router.share(snap, key)
                durable[snap] = durable[key]
            elif draw < 0.86:
                if router.delete(key) is not None:
                    durable[key] = None
            else:
                router.get(("snap", node))
            if (step + 1) % PUMP_EVERY == 0:
                router.pump_replication()
        router.pump_replication()
        router.drain()

    def recover(self) -> List[DeviceState]:
        """Finish any pending failover, catch replication up, then
        power-cycle every device and recover from media."""
        router = self.router
        router.ensure_healthy()
        router.pump_replication()
        router.drain()
        states = []
        for pair in self.pairs:
            devices = [pair.primary] + [rep.ssd for rep in pair.replicas]
            for ssd in devices:
                ssd.power_cycle()
                states.append(DeviceState(ssd.name, ssd, 4))
        return states

    def check_engine(self) -> List[str]:
        violations = no_lost_acked_write(self.router, self.durable)
        for pair in self.pairs:
            for rep in pair.replicas:
                if rep.applier.watermark > pair.log.tip:
                    violations.append(
                        f"cluster: shard {pair.name!r} replica "
                        f"{rep.ssd.name!r} watermark "
                        f"{rep.applier.watermark} past log tip "
                        f"{pair.log.tip}")
        return violations

    def guards(self):
        return [pair.guard for pair in self.pairs]


def media_cluster_harness(faults: FaultPlan,
                          l2p: str = "flat") -> ClusterHarness:
    """Factory for the media sweep: per-device fault plans plus spare
    pools, so a storm degrades — not kills — its victim."""
    return ClusterHarness(faults, l2p, media=True)


# ------------------------------------------------------------ chaos schedule

#: Chaos cluster shape: R=2 groups acking at a write quorum of two.
CHAOS_SHARDS = 3
CHAOS_REPLICAS = 2
CHAOS_QUORUM = 2

#: Concurrent closed-loop clients (each owns a device session, so the
#: read-your-writes invariant is checked per client, not globally).
CHAOS_CLIENTS = 3

CHAOS_STEPS = 240
CHAOS_KEYS = 24
CHAOS_PUMP_EVERY = 10


class ClusterChaosHarness:
    """Seeded randomized interleaving of faults under live traffic.

    One :func:`~repro.sim.rng.make_rng` stream drives everything — the
    per-client op mix, shard kills, media storms, transient device-busy
    command faults, the mid-run ring resize (one shard added, with a
    kill injected while the migration is in flight), and the
    replication pump cadence — so a seed is a complete, replayable
    schedule.

    Three invariants, the first two collected into ``violations`` while
    the run is live (the cluster-chaos family reports them), the third
    checked by ``check_engine`` after recovery:

    * ``read_your_writes`` — checked inline: every read by client C must
      return a value acked at or after C's last acked mutation of that
      key (older acked values are legal for clients that never wrote
      it; the tier promises RYW, not linearizability).
    * ``replica_convergence`` — at the end of ``run()``, once quiesced:
      every live replica's watermark equals its group's log tip and
      every directory entry reads back identically on the primary and
      each replica.
    * ``no_lost_acked_write`` — after every device is power-cycled, each
      key reads back as its last acked value.
    """

    name = "cluster-chaos"
    steps = CHAOS_STEPS
    clients = CHAOS_CLIENTS
    #: Caps on the kills, media storms and device-busy faults of a seed.
    max_kills = 2
    max_storms = 2
    max_busy = 3

    def __init__(self, seed: int, l2p: str = "flat") -> None:
        self.seed = seed
        self.l2p = l2p
        self.rng = make_rng(seed)
        self.clock = SimClock()
        self.events = EventScheduler(self.clock)
        self.device_plans: Dict[str, FaultPlan] = {}
        groups = [self._build_group(f"shard{index}")
                  for index in range(CHAOS_SHARDS)]
        self.groups = groups
        # Chaos is injected directly below (kills, storms, busy faults),
        # not through an armed plan, so the router runs with the null one.
        self.router = ShardRouter(groups, self.clock, faults=NO_FAULTS)
        #: The shard the mid-run rebalance adds to the ring.
        self.spare_group = self._build_group(f"shard{CHAOS_SHARDS}")
        self.rebalance_at = self.steps // 2
        # Invariant bookkeeping.
        self.version = 0
        #: key -> [(version, repr-or-None)] for every acked mutation.
        self.key_states: Dict[object, List[Tuple[int, Optional[str]]]] = {}
        #: (client, key) -> version of the client's last acked mutation.
        self.client_floor: Dict[Tuple[int, object], int] = {}
        #: key -> last acked value (the no-lost-acked-write oracle).
        self.durable: Dict[object, object] = {}
        self.violations: List[str] = []
        self.kills = 0
        self.storms = 0
        self.busy_faults = 0
        self.ryw_checks = 0
        self.rebalanced = False
        self.mid_rebalance_kill = False

    def _build_group(self, name: str) -> ShardGroup:
        primary = self._device(f"{name}p")
        reps = [self._device(f"{name}r{index}")
                for index in range(CHAOS_REPLICAS)]
        return ShardGroup(name, primary, reps, write_quorum=CHAOS_QUORUM)

    def _device(self, name: str):
        # Every device owns a plan (storms and busy faults target one
        # victim) and a spare pool to absorb storm-failed blocks.
        plan = self.device_plans.setdefault(name, FaultPlan())
        return _small_ssd(plan, self.clock, self.l2p, block_count=24,
                          pages_per_block=8, overprovision=0.25,
                          share_entries=32, spare_blocks=4,
                          name=name, events=self.events)

    # -------------------------------------------------------- bookkeeping

    def _record_write(self, client: int, key, value) -> None:
        self.version += 1
        self.key_states.setdefault(key, []).append(
            (self.version, None if value is None else repr(value)))
        self.client_floor[(client, key)] = self.version
        self.durable[key] = value

    def _check_read(self, client: int, key, result) -> None:
        self.ryw_checks += 1
        observed = None if result is None else repr(result)
        floor = self.client_floor.get((client, key), 0)
        states = self.key_states.get(key, [])
        legal = {value for version, value in states if version >= floor}
        if not states:
            legal.add(None)  # never acked: absence is the only truth
        if observed not in legal:
            self.violations.append(
                f"read_your_writes: client {client} read {observed!r} for "
                f"key {key!r}; legal values at floor {floor}: "
                f"{sorted(repr(value) for value in legal)}")

    # --------------------------------------------------------------- run

    def run(self) -> None:
        rng = self.rng
        router = self.router
        sessions = [DeviceSession(client, 0)
                    for client in range(self.clients)]
        rebalancer = None
        clock = router.clock
        caller = clock.issuer
        for step in range(self.steps):
            client = rng.randrange(self.clients)
            session = sessions[client]
            clock.issuer = session
            try:
                self._client_op(rng, router, client)
            finally:
                clock.issuer = caller
            self.events.run_until(session.now_us)
            rebalancer = self._chaos(rng, router, step, rebalancer)
            if (step + 1) % CHAOS_PUMP_EVERY == 0:
                router.pump_replication(limit=rng.randrange(4, 13))
        self._quiesce()

    def _client_op(self, rng, router, client: int) -> None:
        node = rng.randrange(CHAOS_KEYS)
        key = ("node", node)
        draw = rng.random()
        if draw < 0.40:
            value = ("v", node, self.version + 1)
            router.put(key, value)
            self._record_write(client, key, value)
        elif draw < 0.55:
            self._check_read(client, key, router.get(key))
        elif draw < 0.70:
            # Write-then-snapshot by one client: the put pins the source
            # version the SHARE must copy (read-your-writes makes the
            # snapshot's payload unambiguous even off a replica).
            value = ("v", node, self.version + 1)
            router.put(key, value)
            self._record_write(client, key, value)
            snap = ("snap", node)
            router.share(snap, key)
            self._record_write(client, snap, value)
        elif draw < 0.82:
            record = router.delete(key)
            if record is not None:
                self._record_write(client, key, None)
            else:
                # Absence observed: must be legal for this client.
                self._check_read(client, key, None)
        else:
            snap = ("snap", node)
            self._check_read(client, snap, router.get(snap))

    def _chaos(self, rng, router, step: int, rebalancer):
        names = sorted(router.pairs)
        if self.kills < self.max_kills and rng.random() < 0.04:
            router.kill_shard(names[rng.randrange(len(names))])
            self.kills += 1
        if self.storms < self.max_storms and rng.random() < 0.03:
            victim = names[rng.randrange(len(names))]
            storm = ShardMediaStorm(nth=1, shard=victim,
                                    program_fails=3, erase_fails=0)
            storm.fired = True
            storm.victim = victim
            router._inject_storm(storm)
            self.storms += 1
        if self.busy_faults < self.max_busy and rng.random() < 0.05:
            plans = sorted(self.device_plans)
            plan = self.device_plans[plans[rng.randrange(len(plans))]]
            kind = "write" if rng.random() < 0.6 else "read"
            plan.commands.arm(DeviceBusy(
                kind, nth=plan.commands.op_counts[kind] + 1,
                clears_after=rng.randrange(1, 3)))
            self.busy_faults += 1
        if step == self.rebalance_at:
            rebalancer = router.start_rebalance(add=self.spare_group)
            self.rebalanced = True
        if rebalancer is not None and not rebalancer.done:
            if not self.mid_rebalance_kill:
                # Guaranteed kill-mid-migration: the handoff must not
                # lose keys when a shard dies between batches.
                live = sorted(router.pairs)
                router.kill_shard(live[rng.randrange(len(live))])
                self.kills += 1
                self.mid_rebalance_kill = True
            rebalancer.step()
        return rebalancer

    def _quiesce(self) -> None:
        router = self.router
        # The storm passed: disarm leftover transient faults so recovery
        # verifies the steady state, not an ever-degrading device.
        for plan in self.device_plans.values():
            plan.commands.disarm()
            plan.media.disarm()
        router.ensure_healthy()
        router.finish_rebalance()
        while router.pump_replication():
            pass
        router.drain()
        # Quiesced and not yet power-cycled: the moment convergence is
        # promised.
        self.violations += replica_convergence(router)

    def recover(self) -> List[DeviceState]:
        """Power-cycle every live device and recover from media."""
        states = []
        for ssd in self.router.devices:
            ssd.power_cycle()
            states.append(DeviceState(ssd.name, ssd, 4))
        return states

    def check_engine(self) -> List[str]:
        """``no_lost_acked_write`` over every key ever acked."""
        return no_lost_acked_write(self.router, self.durable)
