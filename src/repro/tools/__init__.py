"""Command-line utilities for exploring the simulated device.

* ``python -m repro.tools.inspect`` — run a canned scenario and dump the
  device's internal state (mapping pressure, GC stats, wear histogram).
* ``python -m repro.tools.report`` — render a telemetry JSONL artifact
  (Figure-6-style activity breakdown, Table-1-style latency rows, span
  summaries, GC attribution).
"""
