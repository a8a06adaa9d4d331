"""Result analysis helpers: text-mode distribution plots.

The paper presents latency *distributions* (Table 1) and argues about
tails and jitter; these helpers render histograms and percentile tables
as plain text so examples and benchmark output can show the whole shape,
not just the summary percentiles.
"""

from repro.analysis.text_plots import (
    ascii_bars,
    ascii_histogram,
    compare_cdfs,
)

__all__ = ["ascii_bars", "ascii_histogram", "compare_cdfs"]
