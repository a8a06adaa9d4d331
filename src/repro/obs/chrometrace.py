"""Chrome-trace (Trace Event Format) export of a simulated run.

Produces a ``trace.json`` loadable by ``chrome://tracing`` and Perfetto
(https://ui.perfetto.dev), combining the three timelines the stack
records on the virtual clock:

* **host spans** (pid 1) — the span tracer's nested operations
  (``innodb.txn`` → ``device.write`` → ``ftl.gc`` ...), one thread lane
  per (client, nesting depth), since clients' operations overlap;
* **device commands** (one pid per device) — each host command drawn
  from its queue *arrival* to its completion, so admission wait is
  visible as bar length beyond the service time (overlapping commands
  take the first ``commands`` lane free at their arrival);
* **channel busy intervals** — one lane per flash channel showing when
  the media was actually occupied.

All timestamps are virtual microseconds, which is exactly the ``ts``
unit the Trace Event Format specifies — no conversion needed.  The
format reference is the "Trace Event Format" document; only ``"X"``
(complete) and ``"M"`` (metadata) events are emitted, the safest common
subset.

Typical use (``repro.bench.experiments.linkbench_telemetry`` does this
from its JSONL artifact to produce ``results/trace.json``)::

    sink = MemorySink()
    telemetry = Telemetry(sink=sink)
    ...run...
    trace = chrome_trace(span_records=sink.records,
                         devices=[("ssd0", ssd.trace, ssd.intervals)])
    export_chrome_trace("results/trace.json", trace)
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

HOST_PID = 1
_METADATA_NAMES = ("process_name", "process_sort_index", "thread_name",
                   "thread_sort_index")


def _metadata(pid: int, tid: Optional[int], name: str,
              value: Any) -> Dict[str, Any]:
    event: Dict[str, Any] = {"name": name, "ph": "M", "pid": pid,
                             "args": {"name": value}
                             if name.endswith("_name")
                             else {"sort_index": value}}
    if tid is not None:
        event["tid"] = tid
    return event


def _span_depths(records: Sequence[Dict[str, Any]]) -> Dict[int, int]:
    """Nesting depth per span_id (roots are depth 0).  Records arrive
    children-first (a span is emitted when it *closes*), so depths are
    resolved by walking parent chains over the full id map."""
    parents = {r["span_id"]: r.get("parent_id") for r in records}
    depths: Dict[int, int] = {}

    def depth_of(span_id: int) -> int:
        known = depths.get(span_id)
        if known is not None:
            return known
        chain: List[int] = []
        current: Optional[int] = span_id
        while current is not None and current not in depths:
            chain.append(current)
            current = parents.get(current)
        base = depths[current] + 1 if current is not None else 0
        for offset, sid in enumerate(reversed(chain)):
            depths[sid] = base + offset
        return depths[span_id]

    for span_id in parents:
        depth_of(span_id)
    return depths


def _pack(intervals: Iterable[Tuple[int, int]]) -> List[int]:
    """Lane per ``(start, end)``: the first lane whose last interval
    ended by ``start``, else a new one."""
    ends: List[int] = []
    lanes = []
    for start, end in intervals:
        lane = next((lane for lane, last in enumerate(ends)
                     if last <= start), len(ends))
        ends[lane:lane + 1] = [end]     # a new lane appends
        lanes.append(lane)
    return lanes


def chrome_trace(span_records: Iterable[Dict[str, Any]] = (),
                 devices: Sequence[Tuple[str, Any, Any]] = (),
                 ) -> Dict[str, Any]:
    """Build the Chrome-trace dict.

    ``span_records`` — finished-span dicts (``{"type": "span", ...}``)
    as captured by a :class:`~repro.obs.sinks.MemorySink` or loaded from
    a JSONL artifact; non-span records are ignored.

    ``devices`` — ``(name, io_trace, interval_trace)`` triples; either
    trace may be ``None``.  Each device becomes its own process with
    ``commands`` lanes (from the :class:`~repro.ssd.trace.IoTrace`) and
    one lane per flash channel after them (from the
    :class:`~repro.ssd.trace.IntervalTrace`).
    """
    events: List[Dict[str, Any]] = []

    spans = [r for r in span_records if r.get("type") == "span"]
    if spans:
        events.append(_metadata(HOST_PID, None, "process_name", "host spans"))
        events.append(_metadata(HOST_PID, None, "process_sort_index", 0))
        depths = _span_depths(spans)
        keys = [(record.get("client"), depths.get(record["span_id"], 0))
                for record in spans]
        # Synchronous spans (client None) first, then by client, depth.
        tids = {key: tid for tid, key in enumerate(sorted(
            set(keys), key=lambda key: (key[0] is not None, key[0] or 0,
                                        key[1])))}
        for (client, depth), tid in tids.items():
            who = "sync" if client is None else f"client {client}"
            events.append(_metadata(HOST_PID, tid, "thread_name",
                                    f"{who} depth {depth}"))
            events.append(_metadata(HOST_PID, tid, "thread_sort_index",
                                    tid))
        for record, key in zip(spans, keys):
            events.append({
                "name": record["name"],
                "cat": "span",
                "ph": "X",
                "ts": record["start_us"],
                "dur": max(0, record["end_us"] - record["start_us"]),
                "pid": HOST_PID,
                "tid": tids[key],
                "args": dict(record.get("attrs", {})),
            })

    for index, (name, io_trace, interval_trace) in enumerate(devices):
        pid = HOST_PID + 1 + index
        events.append(_metadata(pid, None, "process_name", f"device {name}"))
        events.append(_metadata(pid, None, "process_sort_index", pid))
        lanes = 1
        if io_trace is not None and len(io_trace):
            commands = list(io_trace)
            lane_of = _pack((ev.arrival_us, ev.timestamp_us)
                            for ev in commands)
            lanes = max(lane_of) + 1
            for tid in range(lanes):
                events.append(_metadata(pid, tid, "thread_name",
                                        f"commands {tid}"))
                events.append(_metadata(pid, tid, "thread_sort_index", tid))
            for ev, tid in zip(commands, lane_of):
                events.append({
                    "name": ev.kind,
                    "cat": "command",
                    "ph": "X",
                    "ts": ev.arrival_us,
                    "dur": max(0, ev.timestamp_us - ev.arrival_us),
                    "pid": pid,
                    "tid": tid,
                    "args": {
                        "lpn": ev.lpn,
                        "count": ev.count,
                        "latency_us": ev.latency_us,
                        "wait_us": ev.wait_us,
                        "gc_events": ev.gc_events,
                        "copyback_pages": ev.copyback_pages,
                    },
                })
        if interval_trace is not None and len(interval_trace):
            for channel in interval_trace.channels():
                tid = lanes + channel
                events.append(_metadata(pid, tid, "thread_name",
                                        f"channel {channel}"))
                events.append(_metadata(pid, tid, "thread_sort_index", tid))
            for channel, start_us, end_us in interval_trace.intervals():
                events.append({
                    "name": "busy",
                    "cat": "channel",
                    "ph": "X",
                    "ts": start_us,
                    "dur": max(0, end_us - start_us),
                    "pid": pid,
                    "tid": lanes + channel,
                    "args": {"channel": channel},
                })

    return {"traceEvents": events, "displayTimeUnit": "ms"}


def validate_chrome_trace(trace: Dict[str, Any]) -> Dict[str, Any]:
    """Schema-check a trace dict against the Trace Event Format subset
    this exporter emits, including that no two complete events of one
    ``(pid, tid)`` lane overlap.  Raises :class:`ValueError` on the
    first violation; returns the trace unchanged so calls chain."""
    if not isinstance(trace, dict):
        raise ValueError(f"trace must be a dict, got {type(trace).__name__}")
    events = trace.get("traceEvents")
    if not isinstance(events, list):
        raise ValueError("trace must carry a 'traceEvents' list")
    for position, event in enumerate(events):
        where = f"traceEvents[{position}]"
        if not isinstance(event, dict):
            raise ValueError(f"{where}: events must be dicts")
        ph = event.get("ph")
        if ph == "M":
            if event.get("name") not in _METADATA_NAMES:
                raise ValueError(
                    f"{where}: unknown metadata event {event.get('name')!r}")
            if not isinstance(event.get("args"), dict):
                raise ValueError(f"{where}: metadata events need dict args")
        elif ph == "X":
            if not isinstance(event.get("name"), str) or not event["name"]:
                raise ValueError(f"{where}: complete events need a name")
            for key in ("ts", "dur"):
                value = event.get(key)
                if not isinstance(value, (int, float)) or value < 0:
                    raise ValueError(
                        f"{where}: {key!r} must be a non-negative number, "
                        f"got {value!r}")
            for key in ("pid", "tid"):
                if not isinstance(event.get(key), int):
                    raise ValueError(f"{where}: {key!r} must be an int")
        else:
            raise ValueError(f"{where}: unsupported phase {ph!r}")
    lanes: Dict[Tuple[int, int], List[Tuple[Any, Any, int]]] = {}
    for position, event in enumerate(events):
        if event["ph"] == "X":
            lanes.setdefault((event["pid"], event["tid"]), []).append(
                (event["ts"], event["ts"] + event["dur"], position))
    for lane in lanes.values():
        lane.sort()
        for (__, end, before), (start, ___, position) in zip(lane, lane[1:]):
            if start < end:
                raise ValueError(f"traceEvents[{position}] overlaps "
                                 f"traceEvents[{before}] on its lane")
    try:
        json.dumps(trace)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"trace is not JSON-serialisable: {exc}") from exc
    return trace


def export_chrome_trace(path: str, trace: Dict[str, Any]) -> str:
    """Validate and write ``trace`` to ``path``; returns the path."""
    validate_chrome_trace(trace)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(trace, fh)
        fh.write("\n")
    return path
