"""Plain-text histograms, bar charts and percentile tables."""

from __future__ import annotations

import math
from typing import Dict, List, Sequence

from repro.sim.stats import percentile


def ascii_histogram(values: Sequence[float], bins: int = 12,
                    width: int = 50, title: str = "",
                    log_bins: bool = True) -> str:
    """Render a histogram with ``#`` bars.

    ``log_bins`` spaces the bin edges geometrically, which suits latency
    data spanning orders of magnitude (buffer hits vs GC stalls).
    """
    if not values:
        raise ValueError("nothing to plot")
    if bins < 1 or width < 1:
        raise ValueError("bins and width must be positive")
    low = min(values)
    high = max(values)
    lines: List[str] = []
    if title:
        lines.append(title)
    if high <= low:
        lines.append(f"all {len(values)} samples = {low:.3g}")
        return "\n".join(lines)
    edges = _edges(low, high, bins, log_bins)
    counts = [0] * bins
    for value in values:
        index = _bin_of(value, edges)
        counts[index] += 1
    peak = max(counts)
    for index in range(bins):
        bar = "#" * max(0, round(counts[index] / peak * width))
        lines.append(f"{edges[index]:>10.3g} - {edges[index + 1]:<10.3g} "
                     f"|{bar:<{width}}| {counts[index]}")
    return "\n".join(lines)


def _edges(low: float, high: float, bins: int, log_bins: bool) -> List[float]:
    if log_bins and low > 0:
        log_low = math.log10(low)
        log_high = math.log10(high)
        return [10 ** (log_low + (log_high - log_low) * i / bins)
                for i in range(bins + 1)]
    return [low + (high - low) * i / bins for i in range(bins + 1)]


def _bin_of(value: float, edges: List[float]) -> int:
    for index in range(len(edges) - 2):
        if value < edges[index + 1]:
            return index
    return len(edges) - 2


def ascii_bars(labels: Sequence[str], values: Sequence[float],
               width: int = 50, title: str = "") -> str:
    """Render labelled quantities as a horizontal bar chart (the shape of
    Figure 6's per-activity breakdown)."""
    if not labels or len(labels) != len(values):
        raise ValueError("need one value per label")
    if any(v < 0 for v in values):
        raise ValueError("bar values must be non-negative")
    peak = max(values)
    label_width = max(len(label) for label in labels)
    lines: List[str] = []
    if title:
        lines.append(title)
    for label, value in zip(labels, values):
        bar = ("#" * max(0, round(value / peak * width))) if peak else ""
        lines.append(f"{label:<{label_width}} |{bar:<{width}}| {value:g}")
    return "\n".join(lines)


def compare_cdfs(named_values: Dict[str, Sequence[float]],
                 points: Sequence[float] = (50, 90, 99, 99.9),
                 title: str = "") -> str:
    """Percentile table across several distributions, plus the ratio of
    each to the first (the baseline)."""
    if not named_values:
        raise ValueError("nothing to compare")
    names = list(named_values)
    ordered = {name: sorted(values) for name, values in named_values.items()
               if values}
    if len(ordered) != len(named_values):
        raise ValueError("every series needs at least one sample")
    baseline = names[0]
    header = f"{'pct':>6}" + "".join(f"{name:>14}" for name in names)
    if len(names) > 1:
        header += f"{'ratio vs ' + baseline:>20}"
    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append(header)
    lines.append("-" * len(header))
    for p in points:
        row = f"{p:>6g}"
        base_value = percentile(ordered[baseline], p)
        for name in names:
            row += f"{percentile(ordered[name], p):>14.3g}"
        if len(names) > 1:
            last_value = percentile(ordered[names[-1]], p)
            ratio = base_value / last_value if last_value else float("inf")
            row += f"{ratio:>19.2f}x"
        lines.append(row)
    return "\n".join(lines)
