"""Histograms and latency recorders used across the stack.

The paper reports latency distributions per operation type (Table 1:
mean / P25 / P50 / P75 / P99 / max); this module keeps and summarises
them.  Event counters are plain integer fields on each component's stats,
and throughput is operations over virtual time, computed by the harness.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Mapping, Optional, Sequence


def percentile(sorted_values: Sequence[float], pct: float) -> float:
    """Linear-interpolation percentile of an already-sorted sequence.

    ``pct`` is in [0, 100].  Matches ``numpy.percentile``'s default
    (linear) method so results line up with any numpy post-processing.
    """
    if not sorted_values:
        raise ValueError("percentile of empty sequence")
    if not 0.0 <= pct <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {pct}")
    if len(sorted_values) == 1:
        return float(sorted_values[0])
    rank = (pct / 100.0) * (len(sorted_values) - 1)
    lo = math.floor(rank)
    hi = math.ceil(rank)
    if lo == hi:
        return float(sorted_values[int(rank)])
    frac = rank - lo
    return float(sorted_values[lo]) * (1.0 - frac) + float(sorted_values[hi]) * frac


def distribution_summary(sorted_values: Sequence[float],
                         percentiles: Sequence[float] = (25, 50, 75, 99)
                         ) -> Dict[str, float]:
    """``{"p<N>": value}`` rows for each requested percentile.

    The single shared quantile path: both :class:`Histogram` (exact
    samples) and :class:`repro.obs.registry.BoundedHistogram` (reservoir)
    build their summaries through this function, so profiler and report
    numbers cannot diverge on the percentile math itself.
    """
    return {f"p{int(p)}": percentile(sorted_values, p) for p in percentiles}


class Histogram:
    """Records raw samples and summarises them on demand.

    Samples are kept exactly (the experiment scales here are small enough)
    so arbitrary percentiles are available without binning error.
    """

    def __init__(self) -> None:
        self._samples: List[float] = []
        self._sorted: Optional[List[float]] = None

    def record(self, value: float) -> None:
        if value < 0:
            raise ValueError(f"histogram samples must be non-negative: {value}")
        self._samples.append(float(value))
        self._sorted = None

    def extend(self, values: Iterable[float]) -> None:
        for value in values:
            self.record(value)

    @property
    def count(self) -> int:
        return len(self._samples)

    @property
    def total(self) -> float:
        return sum(self._samples)

    @property
    def mean(self) -> float:
        if not self._samples:
            raise ValueError("mean of empty histogram")
        return self.total / len(self._samples)

    @property
    def max(self) -> float:
        if not self._samples:
            raise ValueError("max of empty histogram")
        return max(self._samples)

    @property
    def min(self) -> float:
        if not self._samples:
            raise ValueError("min of empty histogram")
        return min(self._samples)

    def pct(self, p: float) -> float:
        if self._sorted is None:
            self._sorted = sorted(self._samples)
        return percentile(self._sorted, p)

    def summary(self, percentiles: Sequence[float] = (25, 50, 75, 99)) -> Dict[str, float]:
        """Return the Table-1 shaped summary: mean, requested percentiles,
        and max."""
        if self._sorted is None:
            self._sorted = sorted(self._samples)
        out: Dict[str, float] = {"mean": self.mean}
        out.update(distribution_summary(self._sorted, percentiles))
        out["max"] = self.max
        return out

    def __len__(self) -> int:
        return len(self._samples)


class LatencyRecorder:
    """Per-operation-type latency histograms (Table 1 machinery).

    The LinkBench driver calls :meth:`record` with the operation name and
    the measured virtual latency; :meth:`table` produces rows in the same
    order/format as the paper's Table 1.
    """

    def __init__(self) -> None:
        self._by_op: Dict[str, Histogram] = {}

    def record(self, op_name: str, latency_ms: float) -> None:
        hist = self._by_op.get(op_name)
        if hist is None:
            hist = Histogram()
            self._by_op[op_name] = hist
        hist.record(latency_ms)

    def histogram(self, op_name: str) -> Histogram:
        if op_name not in self._by_op:
            raise KeyError(f"no latencies recorded for operation {op_name!r}")
        return self._by_op[op_name]

    def op_names(self) -> List[str]:
        return sorted(self._by_op)

    def table(self) -> Mapping[str, Dict[str, float]]:
        """Mapping of op name -> Table-1 summary row."""
        return {name: hist.summary() for name, hist in self._by_op.items()}

    def merged(self) -> Histogram:
        """All samples across every operation type, for aggregate stats."""
        merged = Histogram()
        for hist in self._by_op.values():
            merged.extend(hist._samples)
        return merged
