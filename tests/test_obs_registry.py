"""Tests for the metrics registry: namespacing, collector rows (read on
demand, baselined at reset), histogram percentile parity with
repro.sim.stats, bounded memory."""

from operator import itemgetter

import pytest

from repro.obs import (
    COUNTER,
    MAX_SAMPLES,
    GAUGE,
    BoundedHistogram,
    MetricsRegistry,
)
from repro.sim.stats import Histogram, percentile


def rows(*named_kinds):
    """A collector table over a dict owner: one row per (name, kind)."""
    return tuple((name, kind, itemgetter(name))
                 for name, kind in named_kinds)


class TestNamespacing:
    def test_same_name_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.histogram("x.y") is registry.histogram("x.y")

    def test_kind_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.histogram("x.y")
        with pytest.raises(ValueError, match="already registered"):
            registry.collect("x", rows(("y", GAUGE)), {"y": 0})
        registry.collect("x", rows(("z", COUNTER)), {"z": 0})
        with pytest.raises(ValueError, match="already registered"):
            registry.collect("x", rows(("z", GAUGE)), {"z": 0})
        with pytest.raises(ValueError, match="already registered"):
            registry.histogram("x.z")

    @pytest.mark.parametrize("bad", ["", ".a", "a.", "a..b", "a b"])
    def test_malformed_names_rejected(self, bad):
        with pytest.raises(ValueError):
            MetricsRegistry().histogram(bad)
        with pytest.raises(ValueError):
            MetricsRegistry().collect("s", rows((bad, COUNTER)), {bad: 0})

    def test_scope_prefixes(self):
        registry = MetricsRegistry()
        owner = {"writes": 0}
        registry.collect("device.data", rows(("writes", COUNTER)), owner)
        owner["writes"] += 1
        assert registry.snapshot() == {"device.data.writes": 1}

    def test_nested_scopes(self):
        registry = MetricsRegistry()
        registry.collect("a.b", rows(("g", GAUGE)), {"g": 7})
        assert registry.snapshot()["a.b.g"] == 7

    def test_snapshot_is_flat_and_sorted(self):
        registry = MetricsRegistry()
        registry.collect("z", rows(("b", COUNTER)), {"b": 2})
        registry.collect("a", rows(("a", GAUGE)), {"a": 1})
        registry.histogram("m")
        snap = registry.snapshot()
        assert list(snap) == ["a.a", "m", "z.b"]
        assert snap == {"a.a": 1, "m": {"count": 0}, "z.b": 2}

    def test_registry_reset_keeps_handles_valid(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("h")
        histogram.record(9)
        registry.reset()
        assert histogram.count == 0
        histogram.record(1)
        assert registry.snapshot()["h"]["count"] == 1


class TestCollectors:
    """Counters and gauges are read from their owners at snapshot time."""

    def test_rows_are_read_on_demand(self):
        registry = MetricsRegistry()
        owner = {"done": 0, "level": 10}
        registry.collect("c", rows(("done", COUNTER), ("level", GAUGE)),
                         owner)
        owner["done"] += 6
        owner["level"] = 3
        assert registry.snapshot() == {"c.done": 6, "c.level": 3}

    def test_reset_baselines_counters_and_leaves_gauges(self):
        registry = MetricsRegistry()
        owner = {"done": 5, "level": 4}
        registry.collect("c", rows(("done", COUNTER), ("level", GAUGE)),
                         owner)
        registry.reset()
        assert owner == {"done": 5, "level": 4}    # nothing was zeroed
        assert registry.snapshot() == {"c.done": 0, "c.level": 4}
        owner["done"] += 2
        assert registry.snapshot()["c.done"] == 2

    def test_same_owner_twice_raises(self):
        registry = MetricsRegistry()
        owner = {"n": 0}
        registry.collect("c", rows(("n", COUNTER)), owner)
        with pytest.raises(ValueError, match="already registered"):
            registry.collect("c", rows(("n", COUNTER)), owner)

    def test_a_second_owner_joins(self):
        """A recovered engine beside the crashed one, nine filesystems
        of one cluster: counters sum, a gauge shows the newest owner."""
        registry = MetricsRegistry()
        table = rows(("n", COUNTER), ("level", GAUGE))
        registry.collect("c", table, {"n": 3, "level": 1})
        registry.reset()
        successor = {"n": 0, "level": 2}
        registry.collect("c", table, successor)
        successor["n"] += 4
        assert registry.snapshot() == {"c.n": 4, "c.level": 2}

    def test_failing_extractor_names_the_metric(self):
        registry = MetricsRegistry()
        registry.collect("c", rows(("missing", COUNTER)), {})
        with pytest.raises(RuntimeError, match="'c.missing'"):
            registry.snapshot()

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown kind"):
            MetricsRegistry().collect("c", rows(("n", "meter")), {"n": 0})


class TestBoundedHistogram:
    def test_percentiles_match_sim_stats_below_cap(self):
        """While the reservoir is not full, summaries agree exactly with
        repro.sim.stats.Histogram — same percentile math, same samples."""
        bounded = BoundedHistogram("h")
        exact = Histogram()
        values = [float(v) for v in (5, 1, 9, 2, 8, 3, 7, 4, 6, 10)]
        for value in values:
            bounded.record(value)
            exact.record(value)
        b, e = bounded.summary(), exact.summary()
        assert b["count"] == len(values)
        for key in ("mean", "p25", "p50", "p75", "p99", "max"):
            assert b[key] == e[key], key

    def test_exact_stats_beyond_cap(self):
        hist = BoundedHistogram("h")
        seen = 3 * MAX_SAMPLES
        for value in range(seen):
            hist.record(float(value))
        assert hist.count == seen
        assert hist.total == sum(range(seen))
        assert hist.min == 0.0
        assert hist.max == seen - 1.0
        assert len(hist._samples) == MAX_SAMPLES

    def test_reservoir_percentiles_are_plausible(self):
        hist = BoundedHistogram("h")
        for value in range(10 * MAX_SAMPLES):
            hist.record(float(value))
        # The reservoir is a uniform sample; the median of the values
        # seen must land far from either edge.
        assert 2 * MAX_SAMPLES < hist.pct(50) < 8 * MAX_SAMPLES

    def test_deterministic_across_runs(self):
        def fill():
            hist = BoundedHistogram("h")
            for value in range(2 * MAX_SAMPLES):
                hist.record(float(value))
            return hist.summary()
        assert fill() == fill()

    def test_empty_summary(self):
        assert BoundedHistogram("h").summary() == {"count": 0}

    def test_negative_sample_rejected(self):
        with pytest.raises(ValueError):
            BoundedHistogram("h").record(-1.0)

    def test_default_cap(self):
        hist = BoundedHistogram("h")
        for value in range(MAX_SAMPLES):
            hist.record(float(value))
        # The first MAX_SAMPLES values are kept verbatim; the next one
        # can only replace a slot.
        assert hist._samples == [float(v) for v in range(MAX_SAMPLES)]
        hist.record(float(MAX_SAMPLES))
        assert len(hist._samples) == MAX_SAMPLES

    def test_percentile_function_is_shared(self):
        hist = BoundedHistogram("h")
        for value in (1.0, 2.0, 3.0, 4.0):
            hist.record(value)
        assert hist.pct(50) == percentile([1.0, 2.0, 3.0, 4.0], 50)
