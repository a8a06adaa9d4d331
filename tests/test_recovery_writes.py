"""Does recovery write?  Recovery that programs or erases flash can itself
be cut by a power failure, so a harness whose ``recover()`` writes needs
its recovery swept too (ROADMAP item 13).  This pins, at power cuts
spread evenly over every checkpoint a counting run reaches, which
harnesses' recoveries leave every device's NAND program and erase totals
exactly where the cut left them.

``postgres-small`` (row state rebuilt from heap reads and a WAL scan)
and ``datajournal-share`` (a journal rescan) write nothing: 0 of 170
and 0 of 232 cuts over the whole site list.  ``couch-small`` is the
control: its recovery writes at 58 of its 469 cuts, so a check that saw
no write anywhere would be measuring nothing."""

import pytest

from repro.crashcheck import POWER
from repro.crashcheck.sweep import sample_evenly
from repro.crashcheck.workloads import WORKLOADS
from repro.errors import PowerFailure
from repro.sim.faults import FaultPlan, PowerFailAfter
from repro.ssd.device import Ssd

#: Power cuts sampled per harness.
SAMPLED_CUTS = 24


def nand_totals(devices):
    return [(ssd.nand.total_programs, ssd.nand.total_erases)
            for ssd in devices]


def recovery_writes(workload, cuts=SAMPLED_CUTS):
    """``(writing cuts, sampled cuts)``: how many of the sampled power
    cuts of ``workload`` were followed by a ``recover()`` that programmed
    or erased any of the harness's devices."""
    factory = WORKLOADS[workload]
    sites, __ = POWER.enumerate(factory, POWER.modes)
    sampled = sample_evenly(sites, cuts)
    writing = 0
    for site in sampled:
        faults = FaultPlan()
        harness = factory(faults)
        devices = [value for value in vars(harness).values()
                   if isinstance(value, Ssd)]
        faults.arm(PowerFailAfter(site.power_point, site.power_nth))
        with pytest.raises(PowerFailure):
            harness.run()
        faults.disarm()
        before = nand_totals(devices)
        recovered = harness.recover()
        # Every device recovery reported is one the totals cover.
        assert ({id(state.ssd) for state in recovered}
                == {id(ssd) for ssd in devices}), site
        writing += nand_totals(devices) != before
    return writing, len(sampled)


@pytest.mark.parametrize("workload", ["postgres-small", "datajournal-share"])
def test_recovery_writes_nothing(workload):
    writing, sampled = recovery_writes(workload)
    assert sampled == SAMPLED_CUTS
    assert writing == 0


def test_couch_recovery_writes_at_some_cuts():
    writing, sampled = recovery_writes("couch-small")
    assert sampled == SAMPLED_CUTS
    assert 0 < writing < sampled
