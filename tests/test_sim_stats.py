"""Unit tests for percentiles, histograms, and the latency recorder."""

import pytest

from repro.sim.stats import Histogram, LatencyRecorder, percentile


class TestPercentile:
    def test_single_value(self):
        assert percentile([5.0], 99) == 5.0

    def test_endpoints(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 0) == 1.0
        assert percentile(values, 100) == 4.0

    def test_median_interpolates(self):
        assert percentile([1.0, 2.0, 3.0, 4.0], 50) == pytest.approx(2.5)

    def test_matches_numpy(self):
        numpy = pytest.importorskip("numpy")
        values = sorted([3.2, 1.1, 9.9, 4.4, 2.2, 8.8, 0.5])
        for p in (10, 25, 50, 75, 90, 99):
            assert percentile(values, p) == pytest.approx(
                float(numpy.percentile(values, p)))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_out_of_range_pct_rejected(self):
        with pytest.raises(ValueError):
            percentile([1.0], 101)


class TestHistogram:
    def test_mean_and_extremes(self):
        hist = Histogram()
        hist.extend([1.0, 2.0, 3.0])
        assert hist.mean == pytest.approx(2.0)
        assert hist.min == 1.0
        assert hist.max == 3.0
        assert hist.count == 3

    def test_summary_shape(self):
        hist = Histogram()
        hist.extend(float(i) for i in range(1, 101))
        summary = hist.summary()
        assert set(summary) == {"mean", "p25", "p50", "p75", "p99", "max"}
        assert summary["p50"] == pytest.approx(50.5)
        assert summary["max"] == 100.0

    def test_empty_mean_rejected(self):
        with pytest.raises(ValueError):
            Histogram().mean

    def test_negative_sample_rejected(self):
        with pytest.raises(ValueError):
            Histogram().record(-0.1)

    def test_pct_after_record_invalidates_cache(self):
        hist = Histogram()
        hist.record(1.0)
        assert hist.pct(50) == 1.0
        hist.record(100.0)
        assert hist.pct(100) == 100.0


class TestLatencyRecorder:
    def test_records_per_op(self):
        recorder = LatencyRecorder()
        recorder.record("Get_Node", 5.0)
        recorder.record("Get_Node", 7.0)
        recorder.record("Add_Link", 50.0)
        table = recorder.table()
        assert table["Get_Node"]["mean"] == pytest.approx(6.0)
        assert table["Add_Link"]["max"] == 50.0

    def test_unknown_op_raises(self):
        with pytest.raises(KeyError):
            LatencyRecorder().histogram("nope")

    def test_merged(self):
        recorder = LatencyRecorder()
        recorder.record("a", 1.0)
        recorder.record("b", 3.0)
        assert recorder.merged().mean == pytest.approx(2.0)

    def test_op_names(self):
        recorder = LatencyRecorder()
        recorder.record("b", 1.0)
        recorder.record("a", 1.0)
        assert recorder.op_names() == ["a", "b"]


class TestDistributionSummary:
    """The shared quantile helper both summary paths route through."""

    def test_default_percentile_keys(self):
        from repro.sim.stats import distribution_summary
        summary = distribution_summary(sorted([5.0, 1.0, 3.0, 2.0, 4.0]))
        assert set(summary) == {"p25", "p50", "p75", "p99"}
        assert summary["p50"] == 3.0

    def test_matches_percentile_function(self):
        from repro.sim.stats import distribution_summary
        values = sorted(float((i * 37) % 101) for i in range(60))
        summary = distribution_summary(values)
        for p in (25, 50, 75, 99):
            assert summary[f"p{p}"] == percentile(values, p)

    def test_histogram_summary_routes_through_it(self):
        hist = Histogram()
        for v in (4.0, 8.0, 15.0, 16.0, 23.0, 42.0):
            hist.record(v)
        summary = hist.summary()
        assert summary["p50"] == percentile(sorted([4.0, 8.0, 15.0, 16.0,
                                                    23.0, 42.0]), 50)

    def test_bounded_histogram_agrees_below_reservoir_cap(self):
        """repro.obs's reservoir histogram and the exact histogram must
        produce identical quantiles while no samples have been evicted —
        both now delegate to the same helper."""
        from repro.obs.registry import BoundedHistogram
        exact = Histogram()
        bounded = BoundedHistogram("x")
        values = [float((i * 17) % 97) for i in range(200)]
        for v in values:
            exact.record(v)
            bounded.record(v)
        exact_summary = exact.summary()
        bounded_summary = bounded.summary()
        for key in ("p25", "p50", "p75", "p99", "max", "mean"):
            assert bounded_summary[key] == exact_summary[key]
        assert bounded_summary["count"] == len(exact) == 200
