"""Unified observability for the SHARE reproduction stack.

Three pieces, one facade:

* :class:`MetricsRegistry` — bounded histograms components push into,
  and collector rows (counters / gauges) read at snapshot time from the
  stats their components already keep, under hierarchical dotted names
  (``device.data.ftl.gc.copyback_pages``, ``innodb.dwb.share_batches``,
  ``couch.compaction.pages_moved``),
* :class:`Tracer` — nestable spans on the virtual clock, attributing one
  host operation through engine -> host file -> device command -> FTL ->
  GC/copyback work,
* sinks — JSONL export (:class:`JsonlSink`), in-memory capture
  (:class:`MemorySink`), and the no-op :class:`NullSink`.

Enable telemetry by building a :class:`Telemetry` and passing it to the
stack builders (or directly to :class:`repro.ssd.device.Ssd` and the
engines).  Components default to :data:`NULL_TELEMETRY`, an off
:class:`Telemetry` that registers nothing and keeps no clock.  Sampling
is decided once, per root span, by the tracer: hot sites test the one
plain flag :attr:`Tracer.recording` before opening a span or recording
a per-command histogram sample, so an off or paused stack skips them
outright, and a sampled one keeps whole trees and the histogram samples
of exactly those commands.  What each ``Telemetry(mode=...)`` tier costs
per device command is an exact call count held by
``tests/test_hot_path_budget.py``.  Render
an artifact with ``python -m repro.tools.report``, or a timeline with
:func:`chrome_trace`.  See ``docs/observability.md`` for the metric
catalog, span hierarchy, and JSONL schema.
"""

from repro.obs.chrometrace import (
    chrome_trace,
    export_chrome_trace,
    validate_chrome_trace,
)
from repro.obs.registry import (
    COUNTER,
    GAUGE,
    MAX_SAMPLES,
    BoundedHistogram,
    MetricsRegistry,
)
from repro.obs.sinks import (
    JsonlSink,
    MemorySink,
    NULL_SINK,
    NullSink,
    read_jsonl,
)
from repro.obs.telemetry import (
    NULL_TELEMETRY,
    OBS_MODES,
    SAMPLE_EVERY,
    Telemetry,
)
from repro.obs.tracing import NULL_SPAN, Span, Tracer

__all__ = [
    "BoundedHistogram",
    "COUNTER",
    "MAX_SAMPLES",
    "SAMPLE_EVERY",
    "GAUGE",
    "JsonlSink",
    "MemorySink",
    "MetricsRegistry",
    "NULL_SINK",
    "NULL_SPAN",
    "NULL_TELEMETRY",
    "NullSink",
    "OBS_MODES",
    "Span",
    "Telemetry",
    "Tracer",
    "chrome_trace",
    "export_chrome_trace",
    "read_jsonl",
    "validate_chrome_trace",
]
