"""Simulation substrate: virtual clock, statistics, RNG, fault injection."""

from repro.sim.clock import SimClock
from repro.sim.faults import FaultPlan, PowerFailAfter
from repro.sim.rng import ZipfianGenerator, make_rng
from repro.sim.stats import Histogram, LatencyRecorder, percentile

__all__ = [
    "SimClock",
    "FaultPlan",
    "PowerFailAfter",
    "ZipfianGenerator",
    "make_rng",
    "Histogram",
    "LatencyRecorder",
    "percentile",
]
