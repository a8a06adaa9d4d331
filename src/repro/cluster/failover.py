"""Breaker-driven promotion of a shard group's best replica.

The controller is a listener on each group's :class:`ShareGuard` breaker
(via the PR 8 ``add_listener`` hook): the moment a shard's media or
command faults push its breaker open — or the router latches it open
after a device kill, or the media-health monitor latches it open on an
escalating-degradation score — the group is marked for promotion.  The
router then calls :meth:`promote` at the next operation boundary (never
from inside the breaker transition callback, where the guard's retry
loop is still on the stack and still holds closures over the old
primary).

Promotion sequence (the ``closed -> open -> promote -> re-replicate``
state machine in docs/resilience.md):

1. Pick the most-caught-up live replica — the one whose applier
   watermark is highest, so the tail replay is shortest.  Failed
   replicas are a last resort: their media still holds every applied
   record, they just stopped keeping up — which is why they pin the
   log's cut.  A rejoined device still below the cut is passed over
   for one that can replay the tail.
2. Reset the group's breaker — the new primary is healthy, and the
   reset re-emits the state gauge (the satellite fix in
   :meth:`CircuitBreaker.reset`) so the open->closed edge is visible in
   telemetry with the failover duration accounted in ``GuardStats``.
3. Replay the replication-log tail past the chosen replica's verified
   watermark onto it, each record through the guard's retry policy —
   this is where writes that were acked but not yet pumped (the dead
   shard's in-flight backlog) drain back through retry.
4. Bump the log epoch, fencing any stale writer from the old regime.
5. Swap roles.  The old primary (power-cycled after a kill, or still
   live after a proactive media trip) rejoins as a replica with a fresh
   applier at watermark 0; the next pump catches it up — from a
   snapshot of the new primary once the log has been cut, else by
   replaying the log from seq 1.

A promotion whose old primary never went down (the health monitor fired
before the device died) is recorded as *proactive* — the paper-level
claim of media-driven failover is exactly that these happen with zero
kills.
"""

from __future__ import annotations

from typing import Callable, List, NamedTuple, Optional

from repro.cluster.shard import ShardGroup
from repro.errors import ShardUnavailableError
from repro.host.resilience import BREAKER_OPEN

__all__ = ["FailoverController", "FailoverEvent"]


class FailoverEvent(NamedTuple):
    """One completed promotion, for telemetry and the results log."""

    shard: str
    at_us: int
    duration_us: int
    replayed: int
    epoch: int
    old_primary: str
    new_primary: str
    #: True when the old primary was still serving (media-health trip)
    #: rather than already dead (kill / breaker exhaustion).
    proactive: bool = False
    #: Replication lag of the promoted replica at promotion time — the
    #: size of the tail replay it needed.
    lag_at_promotion: int = 0


class FailoverController:
    """Promotes replicas when breakers open; owns the event history."""

    def __init__(self, clock,
                 on_promoted: Optional[Callable[[FailoverEvent], None]]
                 = None) -> None:
        self.clock = clock
        self.on_promoted = on_promoted
        self.events: List[FailoverEvent] = []
        self._promoting = False

    def attach(self, group: ShardGroup) -> None:
        """Watch one group's breaker; an open edge marks it promotable."""
        def _on_state(state: str) -> None:
            if state == BREAKER_OPEN:
                group.needs_promotion = True
        group.guard.add_listener(_on_state)

    def promote(self, group: ShardGroup) -> FailoverEvent:
        """Make the best replica the primary; replay the log tail."""
        if self._promoting:
            raise ShardUnavailableError(
                f"re-entrant promotion on shard {group.name!r}")
        # A rejoined device still below the log's cut cannot replay the
        # tail; every replica from before the cut (failed ones pin it) can.
        base = group.log.base
        able = [rep for rep in group.replicas
                if rep.applier.watermark >= base]
        candidates = [rep for rep in able if not rep.failed] or able
        if not candidates:
            raise ShardUnavailableError(
                f"shard {group.name!r} has no replica to promote at or "
                f"above the log's cut (seq {base})")
        self._promoting = True
        try:
            start_us = self.clock.now_us
            target = max(candidates, key=lambda rep: rep.applier.watermark)
            proactive = not group.primary_down
            lag = group.log.tip - target.applier.watermark
            new_primary = target.ssd
            old_primary = group.primary
            # The breaker belongs to the group, not the dead device; the
            # new primary is healthy, so unlatch before replaying (the
            # reset also closes out GuardStats' open episode, stamping
            # the failover latency).
            group.guard.breaker.reset()
            session = target.session
            if session.now_us < self.clock.now_us:
                session.now_us = self.clock.now_us
            start_cursor = session.now_us
            replayed = 0
            applier = target.applier
            log = group.log
            for seq in range(applier.watermark + 1, log.tip + 1):
                record = log.record_at(seq)

                def apply_one(record=record):
                    new_primary._session = session
                    try:
                        return applier.apply(new_primary, record)
                    finally:
                        new_primary._session = None
                if group.guard.call("cluster.replay", apply_one):
                    replayed += 1
            epoch = log.bump_epoch()
            group.replicas.remove(target)
            group.primary = new_primary
            group.rejoin(old_primary)
            group.primary_down = False
            group.needs_promotion = False
            group.failovers += 1
            # Replay I/O advances the replication session's cursor, not
            # necessarily the global clock — the recovery duration is
            # whichever moved further.
            duration = max(self.clock.now_us - start_us,
                           session.now_us - start_cursor)
            event = FailoverEvent(
                shard=group.name,
                at_us=self.clock.now_us,
                duration_us=duration,
                replayed=replayed,
                epoch=epoch,
                old_primary=old_primary.name,
                new_primary=new_primary.name,
                proactive=proactive,
                lag_at_promotion=lag,
            )
            self.events.append(event)
            if self.on_promoted is not None:
                self.on_promoted(event)
            return event
        finally:
            self._promoting = False
