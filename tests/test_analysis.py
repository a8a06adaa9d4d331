"""Tests for the text-plot analysis helpers."""

import pytest

from repro.analysis import ascii_histogram, compare_cdfs


class TestHistogram:
    def test_renders_bars_and_counts(self):
        values = [1.0] * 10 + [100.0] * 2
        text = ascii_histogram(values, bins=4, width=20, title="t")
        assert text.startswith("t")
        assert "#" in text
        assert "10" in text

    def test_constant_values(self):
        text = ascii_histogram([5.0, 5.0], bins=4)
        assert "samples = 5" in text

    def test_log_bins_cover_orders_of_magnitude(self):
        values = [0.1, 1.0, 10.0, 100.0]
        text = ascii_histogram(values, bins=3, width=10)
        # Every value lands in some bin: counts sum to 4.
        total = sum(int(line.rsplit(" ", 1)[-1])
                    for line in text.splitlines())
        assert total == 4

    def test_linear_bins(self):
        text = ascii_histogram([1, 2, 3, 4], bins=2, log_bins=False)
        assert "|" in text

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ascii_histogram([])

    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError):
            ascii_histogram([1.0], bins=0)


class TestCompare:
    def test_ratio_column(self):
        slow = [10.0] * 50 + [100.0] * 50
        fast = [5.0] * 50 + [50.0] * 50
        text = compare_cdfs({"dwb_on": slow, "share": fast},
                            points=(50, 99))
        assert "ratio vs dwb_on" in text
        assert "2.00x" in text

    def test_single_series_has_no_ratio(self):
        text = compare_cdfs({"only": [1.0, 2.0]}, points=(50,))
        assert "ratio" not in text

    def test_empty_series_rejected(self):
        with pytest.raises(ValueError):
            compare_cdfs({"a": []})
        with pytest.raises(ValueError):
            compare_cdfs({})
