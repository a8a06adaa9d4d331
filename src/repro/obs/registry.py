"""The metrics registry: pushed histograms and pulled collector rows.

A stack's numbers come in two shapes.  A **histogram** needs every
event's value, so it is pushed: a component resolves its handle once
(``telemetry.histogram(name)``) and calls ``record`` behind the
``telemetry.enabled`` guard.  A **counter** or a **gauge** is a number
its component already keeps — a ``*Stats`` field the hot path bumps, a
free-block count, a breaker state — so it is never pushed: the
component declares one table of ``(metric name, kind, extractor)`` rows
over itself, registers it once under its scope
(:meth:`MetricsRegistry.collect`), and the registry reads the rows only
in :meth:`MetricsRegistry.snapshot` — the way a drive exposes its
counters as a log page read on demand.  A counter or gauge therefore
costs nothing per command in any telemetry tier and cannot drift from
the stat it reports: it *is* that stat.

:meth:`MetricsRegistry.reset` starts a measurement interval: histograms
empty, and each counter row remembers its current value as a baseline
that later snapshots subtract — no component zeroes anything for the
registry's sake.  Gauges are levels and are read as they are.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Tuple, Union

from repro.sim.stats import distribution_summary, percentile

#: Reservoir size bounding a histogram's memory (see BoundedHistogram).
MAX_SAMPLES = 4096

SnapshotValue = Union[int, float, Dict[str, float]]


def _check_name(name: str) -> str:
    if not name or any(c.isspace() for c in name):
        raise ValueError(f"metric names must be non-empty, no spaces: {name!r}")
    if name.startswith(".") or name.endswith(".") or ".." in name:
        raise ValueError(f"malformed dotted metric name: {name!r}")
    return name


class BoundedHistogram:
    """Latency/size distribution with bounded memory.

    Count, total, min, and max are exact.  Percentiles come from a
    deterministic reservoir: the first :data:`MAX_SAMPLES` values are kept
    verbatim; after that each new value replaces a pseudo-random slot with
    probability ``MAX_SAMPLES / seen`` (Vitter's algorithm R, driven by a
    private LCG so runs stay reproducible).  Percentile math reuses
    :func:`repro.sim.stats.percentile`, so summaries agree exactly with
    :class:`repro.sim.stats.Histogram` while the reservoir is not full.
    """

    __slots__ = ("name", "_samples", "_seen", "_total", "_min",
                 "_max", "_lcg")

    def __init__(self, name: str) -> None:
        self.name = name
        self._samples: List[float] = []
        self._seen = 0
        self._total = 0.0
        self._min = float("inf")
        self._max = float("-inf")
        self._lcg = 0x2545F4914F6CDD1D

    def record(self, value: float) -> None:
        if value < 0:
            raise ValueError(f"histogram samples must be non-negative: {value}")
        value = float(value)
        self._seen += 1
        self._total += value
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value
        if self._seen <= MAX_SAMPLES:   # holds min(seen - 1, cap) samples
            self._samples.append(value)
            return
        # Reservoir replacement (algorithm R) with a deterministic LCG.
        self._lcg = (self._lcg * 6364136223846793005 + 1442695040888963407) \
            & 0xFFFFFFFFFFFFFFFF
        slot = (self._lcg >> 16) % self._seen
        if slot < MAX_SAMPLES:
            self._samples[slot] = value

    @property
    def count(self) -> int:
        return self._seen

    @property
    def total(self) -> float:
        return self._total

    @property
    def mean(self) -> float:
        if not self._seen:
            raise ValueError("mean of empty histogram")
        return self._total / self._seen

    @property
    def max(self) -> float:
        if not self._seen:
            raise ValueError("max of empty histogram")
        return self._max

    @property
    def min(self) -> float:
        if not self._seen:
            raise ValueError("min of empty histogram")
        return self._min

    def pct(self, p: float) -> float:
        if not self._samples:
            raise ValueError("percentile of empty histogram")
        return percentile(sorted(self._samples), p)

    def summary(self) -> Dict[str, float]:
        """Table-1-shaped summary (count/mean/p25/p50/p75/p99/max)."""
        if not self._seen:
            return {"count": 0}
        out: Dict[str, float] = {
            "count": self._seen,
            "total": self._total,
            "mean": self.mean,
        }
        out.update(distribution_summary(sorted(self._samples)))
        out["max"] = self._max
        return out

    def reset(self) -> None:
        self._samples.clear()
        self._seen = 0
        self._total = 0.0
        self._min = float("inf")
        self._max = float("-inf")


#: Row kinds.  A counter accumulates and is reported as the delta since
#: the last :meth:`MetricsRegistry.reset`; a gauge is a level, reported
#: as it stands.
COUNTER = "counter"
GAUGE = "gauge"

#: One collector row: ``(metric name, COUNTER | GAUGE, extractor)``; the
#: extractor takes the owner the table was registered with.
Row = Tuple[str, str, Callable[[Any], Union[int, float]]]


def _clash(name: str, have: str, want: str) -> ValueError:
    return ValueError(
        f"metric {name!r} already registered as a {have}, requested {want}")


class _Collected:
    """One registered row: every owner that reports under the name, and
    (counters) the value the current interval started from."""

    __slots__ = ("kind", "extract", "owners", "baseline")

    def __init__(self, kind: str, extract: Callable, owner: Any) -> None:
        self.kind = kind
        self.extract = extract
        self.owners = [owner]
        self.baseline = 0


class MetricsRegistry:
    """The stack-wide metric namespace: histograms by name, collector
    rows by ``<scope>.<name>``.  A name has one kind for good —
    claiming it as another is an error (two subsystems fighting over
    one name is always a bug)."""

    def __init__(self) -> None:
        self._histograms: Dict[str, BoundedHistogram] = {}
        self._rows: Dict[str, _Collected] = {}

    def histogram(self, name: str) -> BoundedHistogram:
        """Create-or-return by dotted name (handles stay valid across
        :meth:`reset`)."""
        histogram = self._histograms.get(name)
        if histogram is None:
            row = self._rows.get(_check_name(name))
            if row is not None:
                raise _clash(name, row.kind, "histogram")
            histogram = self._histograms[name] = BoundedHistogram(name)
        return histogram

    def collect(self, scope: str, rows: Iterable[Row], owner: Any) -> None:
        """Register ``owner`` under every row of its component's table.

        A second owner under the same names *joins* them — a recovered
        engine beside the one that crashed, nine filesystems of one
        cluster: a counter reads the sum over its owners, a gauge the
        newest owner's level (the extractor is the first registration's:
        joiners bring the same table).  Registering the same owner
        twice, or a name under another kind, raises."""
        for name, kind, extract in rows:
            name = _check_name(f"{scope}.{name}")
            if kind not in (COUNTER, GAUGE):
                raise ValueError(f"metric {name!r}: unknown kind {kind!r}")
            row = self._rows.get(name)
            if row is None:
                if name in self._histograms:
                    raise _clash(name, "histogram", kind)
                self._rows[name] = _Collected(kind, extract, owner)
            elif row.kind != kind:
                raise _clash(name, row.kind, kind)
            elif any(owner is known for known in row.owners):
                raise ValueError(
                    f"metric {name!r}: {owner!r} is already registered")
            else:
                row.owners.append(owner)

    def _read(self, name: str, row: _Collected) -> Union[int, float]:
        try:
            if row.kind == GAUGE:
                return row.extract(row.owners[-1])
            return sum([row.extract(owner) for owner in row.owners])
        except Exception as exc:
            raise RuntimeError(
                f"collector row {name!r} failed: {exc!r}") from exc

    def snapshot(self) -> Dict[str, SnapshotValue]:
        """Flat dotted-name -> value (collector rows, read now) or
        summary dict (histograms), sorted.  JSON-serialisable as-is."""
        out: Dict[str, SnapshotValue] = {
            name: histogram.summary()
            for name, histogram in self._histograms.items()}
        for name, row in self._rows.items():
            out[name] = self._read(name, row) - row.baseline
        return dict(sorted(out.items()))

    def reset(self) -> None:
        """Start a measurement interval (registrations and histogram
        handles survive): histograms empty, counter rows baseline at
        their current value.  The registry half of
        ``Ssd.reset_measurement``."""
        for histogram in self._histograms.values():
            histogram.reset()
        for name, row in self._rows.items():
            if row.kind == COUNTER:
                row.baseline = self._read(name, row)
