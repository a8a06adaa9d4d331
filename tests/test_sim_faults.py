"""Unit tests for power-failure injection."""

import sys

import pytest

from repro.errors import PowerFailure
from repro.sim.clock import SimClock
from repro.sim.faults import (NO_FAULTS, CommandTimeout, FaultPlan,
                              PowerFailAfter, ProgramFault, ShardKill)
from repro.ssd.device import Ssd


def test_disarmed_plan_is_silent():
    plan = FaultPlan()
    for _ in range(10):
        plan.checkpoint("anywhere")
    assert plan.hits("anywhere") == 10


def test_fires_on_nth_hit():
    plan = FaultPlan()
    plan.arm(PowerFailAfter("ftl.before_program", nth=3))
    plan.checkpoint("ftl.before_program")
    plan.checkpoint("ftl.before_program")
    with pytest.raises(PowerFailure):
        plan.checkpoint("ftl.before_program")


def test_fires_only_once():
    plan = FaultPlan()
    plan.arm(PowerFailAfter("p", nth=1))
    with pytest.raises(PowerFailure):
        plan.checkpoint("p")
    plan.checkpoint("p")  # must not raise again


def test_other_points_unaffected():
    plan = FaultPlan()
    plan.arm(PowerFailAfter("a"))
    plan.checkpoint("b")
    with pytest.raises(PowerFailure):
        plan.checkpoint("a")


def test_disarm_all():
    plan = FaultPlan()
    plan.arm(PowerFailAfter("a"))
    plan.arm(PowerFailAfter("b"))
    plan.disarm()
    plan.checkpoint("a")
    plan.checkpoint("b")


def test_trace_records_order():
    plan = FaultPlan()
    plan.enable_trace()
    plan.checkpoint("x")
    plan.checkpoint("y")
    assert plan.trace == ["x", "y"]


def test_bad_nth_rejected():
    with pytest.raises(ValueError):
        PowerFailAfter("p", nth=0)


def test_two_fuses_at_one_point_both_fire():
    plan = FaultPlan()
    plan.arm(PowerFailAfter("p", nth=2))
    plan.arm(PowerFailAfter("p", nth=4))
    plan.checkpoint("p")
    with pytest.raises(PowerFailure):
        plan.checkpoint("p")
    plan.checkpoint("p")
    with pytest.raises(PowerFailure):
        plan.checkpoint("p")
    plan.checkpoint("p")  # both fuses consumed


def test_duplicate_arm_raises():
    plan = FaultPlan()
    plan.arm(PowerFailAfter("p", nth=3))
    with pytest.raises(ValueError):
        plan.arm(PowerFailAfter("p", nth=3))
    # A different nth at the same point is fine: both fuses fire.
    plan.arm(PowerFailAfter("p", nth=5))
    plan.enable_trace()
    fired = []
    for hit in range(1, 7):
        try:
            plan.checkpoint("p")
        except PowerFailure:
            fired.append(hit)
    assert fired == [3, 5]
    assert plan.trace == ["p"] * 6


def test_nth_counts_from_arming():
    plan = FaultPlan()
    plan.checkpoint("p")
    plan.checkpoint("p")
    plan.arm(PowerFailAfter("p", nth=2))
    plan.checkpoint("p")
    with pytest.raises(PowerFailure):
        plan.checkpoint("p")


def test_rearm_after_fire_allowed():
    plan = FaultPlan()
    plan.arm(PowerFailAfter("p", nth=1))
    with pytest.raises(PowerFailure):
        plan.checkpoint("p")
    plan.arm(PowerFailAfter("p", nth=1))  # fired fuse no longer armed
    with pytest.raises(PowerFailure):
        plan.checkpoint("p")


# ------------------------------------------------------------- headroom


def test_headroom_is_unbounded_with_no_fuse_at_the_points():
    plan = FaultPlan()
    plan.checkpoint("a")
    assert plan.headroom(("a", "b")) == sys.maxsize
    plan.arm(PowerFailAfter("c"))   # a fuse elsewhere bounds nothing here
    assert plan.headroom(("a", "b")) == sys.maxsize
    assert NO_FAULTS.headroom(("a",)) == sys.maxsize


def test_headroom_is_the_nearest_fuse_over_every_point():
    plan = FaultPlan()
    for __ in range(3):
        plan.checkpoint("a")
    plan.arm(PowerFailAfter("a", nth=7))   # fires on hit 10
    plan.arm(PowerFailAfter("a", nth=4))   # fires on hit 7
    plan.arm(PowerFailAfter("b", nth=5))   # fires on hit 5
    assert plan.headroom(("a",)) == 3
    assert plan.headroom(("b",)) == 4
    assert plan.headroom(("a", "b")) == 3
    # That many passes of every point are safe; the next one fires.
    for __ in range(3):
        plan.checkpoint("a")
        plan.checkpoint("b")
    assert plan.headroom(("a", "b")) == 0
    with pytest.raises(PowerFailure):
        plan.checkpoint("a")


def test_headroom_after_a_fuse_fired():
    plan = FaultPlan()
    plan.arm(PowerFailAfter("a", nth=2))
    plan.arm(PowerFailAfter("a", nth=5))
    plan.arm(PowerFailAfter("b", nth=3))
    plan.checkpoint("a")
    with pytest.raises(PowerFailure):
        plan.checkpoint("a")
    # The fired fuse is gone: the next at "a" is hit 5, three away.
    assert plan.headroom(("a",)) == 2
    assert plan.headroom(("a", "b")) == 2
    plan.checkpoint("b")
    plan.checkpoint("b")
    with pytest.raises(PowerFailure):
        plan.checkpoint("b")
    assert plan.headroom(("b",)) == sys.maxsize
    assert plan.headroom(("a", "b")) == 2


# ------------------------------------------------- ack-boundary journal


def test_operation_acks_on_clean_exit():
    plan = FaultPlan()
    with plan.operation("dev.write", (7,)) as acked:
        plan.checkpoint("dev.step")
    assert plan.unacked_ops() == []
    assert acked is not None
    assert acked.kind == "dev.write"
    assert acked.lpns == (7,)
    assert acked.status == "acked"


def test_operation_records_unacked_on_power_failure():
    plan = FaultPlan()
    plan.arm(PowerFailAfter("dev.step"))
    with pytest.raises(PowerFailure):
        with plan.operation("dev.write", (3, 4)) as record:
            plan.checkpoint("dev.step")
    [unacked] = plan.unacked_ops()
    assert unacked is record
    assert unacked.kind == "dev.write"
    assert unacked.lpns == (3, 4)
    assert unacked.status == "unacked"


def test_operation_failed_is_not_ambiguous():
    plan = FaultPlan()
    with pytest.raises(RuntimeError):
        with plan.operation("dev.write", (1,)) as record:
            raise RuntimeError("ordinary failure, not a power cut")
    assert plan.unacked_ops() == []
    assert record.status == "failed"


def test_clean_exit_fires_ack_checkpoint():
    plan = FaultPlan()
    plan.enable_trace()
    with plan.operation("dev.write", (1,)):
        pass
    assert plan.trace == ["dev.write.ack"]


def test_power_failure_at_ack_boundary_is_unacked():
    # The op's media work completed, but power failed before completion
    # reached the caller: durable-but-unacknowledged.
    plan = FaultPlan()
    plan.arm(PowerFailAfter("dev.write.ack"))
    with pytest.raises(PowerFailure):
        with plan.operation("dev.write", (9,)):
            pass
    [unacked] = plan.unacked_ops()
    assert unacked.status == "unacked"
    assert unacked.lpns == (9,)


def test_nested_scopes_journal_only_outermost():
    plan = FaultPlan()
    plan.enable_trace()
    with plan.operation("dev.write", (5,)) as acked:
        with plan.operation("ftl.write", (5,)) as inner:
            pass
    # Inner scope fires its .ack for point coverage but does not journal.
    assert plan.trace == ["ftl.write.ack", "dev.write.ack"]
    assert inner is None
    assert acked.kind == "dev.write" and acked.status == "acked"


def test_nested_power_failure_blames_outermost():
    plan = FaultPlan()
    plan.arm(PowerFailAfter("ftl.step"))
    with pytest.raises(PowerFailure):
        with plan.operation("dev.write", (2,)):
            with plan.operation("ftl.write", (2,)):
                plan.checkpoint("ftl.step")
    [unacked] = plan.unacked_ops()
    assert unacked.kind == "dev.write"


# ------------------------------------------------- the shared passive plan

#: Every way to arm a fault on, or start counting through, a plan — the
#: plan's own entry points and those of the fault sets it carries.
ARM_OR_COUNT = {
    "arm": lambda plan: plan.arm(PowerFailAfter("nand.program")),
    "enable_trace": lambda plan: plan.enable_trace(),
    "media.arm": lambda plan: plan.media.arm(ProgramFault(nth=1)),
    "media.enable_counting": lambda plan: plan.media.enable_counting(),
    "commands.arm": lambda plan: plan.commands.arm(
        CommandTimeout("write", nth=1)),
    "commands.enable_counting": lambda plan: plan.commands.enable_counting(),
    "cluster.arm": lambda plan: plan.cluster.arm(ShardKill(nth=1)),
    "cluster.enable_counting": lambda plan: plan.cluster.enable_counting(),
}


@pytest.fixture
def scrub_no_faults():
    """Put NO_FAULTS back if a path leaked state into it, so one failure
    here does not poison every later test in the process."""
    yield
    NO_FAULTS.disarm()
    for fault_set in (NO_FAULTS.media, NO_FAULTS.commands,
                      NO_FAULTS.cluster):
        fault_set.disarm()
        fault_set._counting = False
        fault_set.active = False


@pytest.mark.parametrize("path", sorted(ARM_OR_COUNT))
def test_no_faults_refuses_every_arm_and_counting_path(path,
                                                       scrub_no_faults):
    """NO_FAULTS is shared by every component built without a plan: a
    fault armed on it would fire in an unrelated device (a command
    timeout on the next fresh device's first write, a retired block)."""
    with pytest.raises(RuntimeError, match="NO_FAULTS"):
        ARM_OR_COUNT[path](NO_FAULTS)
    assert not (NO_FAULTS.media.active or NO_FAULTS.commands.active
                or NO_FAULTS.cluster.active)
    ssd = Ssd(SimClock())
    ssd.write(0, "a")
    assert ssd.read(0) == "a"
    assert ssd.nand.failed_programs == 0
    # A plan of one's own still takes every path.
    ARM_OR_COUNT[path](FaultPlan())
