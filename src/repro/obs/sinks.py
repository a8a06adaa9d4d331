"""Telemetry sinks: where finished spans and metric snapshots go.

Every record is a plain dict with a ``"type"`` key (``"span"`` or
``"metrics"``).  The JSONL format is one JSON object per line, so
artifacts stream to disk during a run and load back with
:func:`read_jsonl` for post-processing (``python -m repro.tools.report``).
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional


class NullSink:
    """Drops everything.  The default, so telemetry wiring costs ~nothing
    when nobody asked for an artifact."""

    __slots__ = ()

    def emit(self, record: Dict[str, Any]) -> None:
        pass

    def close(self) -> None:
        pass


NULL_SINK = NullSink()


class MemorySink:
    """Keeps records in a list — the test/analysis sink."""

    def __init__(self) -> None:
        self.records: List[Dict[str, Any]] = []

    def emit(self, record: Dict[str, Any]) -> None:
        self.records.append(record)

    def close(self) -> None:
        pass

    def spans(self, name: Optional[str] = None) -> List[Dict[str, Any]]:
        return [r for r in self.records if r.get("type") == "span"
                and (name is None or r.get("name") == name)]

    def metrics(self) -> List[Dict[str, Any]]:
        return [r for r in self.records if r.get("type") == "metrics"]


class JsonlSink:
    """Streams records to a file, one JSON object per line."""

    def __init__(self, path: str) -> None:
        self.path = path
        self._fh = open(path, "w", encoding="utf-8")

    def emit(self, record: Dict[str, Any]) -> None:
        if self._fh is None:
            raise ValueError(f"sink for {self.path!r} is closed")
        self._fh.write(json.dumps(record, sort_keys=True))
        self._fh.write("\n")

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


def read_jsonl(path: str) -> List[Dict[str, Any]]:
    """Load a telemetry artifact back into record dicts."""
    records: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError as exc:
                raise ValueError(
                    f"{path}:{line_no}: not valid JSONL: {exc}") from exc
    return records
