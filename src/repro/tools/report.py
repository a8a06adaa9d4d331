"""Render a telemetry JSONL artifact as paper-shaped text reports::

    python -m repro.tools.report results/fig6_telemetry.jsonl
    python -m repro.tools.report out.jsonl --section activities

Each ``--section`` is an entry of :data:`SECTIONS`: tables of a title,
headers and a function building the rows.  A row is labelled with the
name its owner registered — a ``DEVICE_ROWS`` / ``ROUTER_ROWS`` name, a
histogram name or a field of an artifact record — so a metric reads the
same here as in the catalog of ``docs/observability.md``:

* ``activities`` — Figure 6: I/O activities summed across devices;
* ``latency``    — Table 1: percentile rows for every histogram;
* ``spans``      — per-span-name count / total / mean virtual duration;
* ``gc``         — each ``ftl.gc`` span attributed to its root operation;
* ``queue``      — per-device queue wait and per-channel occupancy;
* ``cluster``    — per-shard latency, router counters, replica lag;
* ``mapping``    — the ``ftl.l2p.*`` gauges and ``mapping_lab`` records.

The numbers come from the last record that carries a ``metrics`` mapping
(a :class:`repro.obs.JsonlSink` snapshot or a ``cluster_telemetry``
record) and from the ``span`` records.
"""

from __future__ import annotations

import sys
from typing import Dict, List, Optional, Sequence

from repro.analysis.text_plots import ascii_bars
from repro.bench.report import format_table
from repro.cluster.router import ROUTER_ROWS
from repro.obs.sinks import read_jsonl
from repro.ssd.device import DEVICE_ROWS

#: Figure 6's activities, as ``DEVICE_ROWS`` names.
ACTIVITIES = (
    "host_write_pages", "host_read_pages", "flush_commands", "share_pairs",
    "trim_commands", "ftl.gc.events", "ftl.gc.copyback_pages",
    "ftl.gc.block_erases", "ftl.maplog.page_writes", "ftl.wear.level_moves")

#: The L2P gauges every device reports.
L2P_GAUGES = tuple(name for name, __, __ in DEVICE_ROWS
                   if name.startswith("ftl.l2p."))

#: The summary fields of a histogram, one column each.
DISTRIBUTION = ("count", "mean", "p25", "p50", "p75", "p99", "max")

#: The fields of a ``mapping_lab`` record, one column each.
MAPPING_LAB = ("workload", "strategy", "footprint_bytes", "fragments",
               "remap_splits", "splits_per_pair", "waf", "wall_kops_per_s")


def last_metrics(records: Sequence[Dict]) -> Dict:
    """The name -> value mapping of the last record carrying one ({} if
    none)."""
    out: Dict = {}
    for record in records:
        if isinstance(record.get("metrics"), dict):
            out = record["metrics"]
    return out


def device_total(metrics: Dict, name: str) -> Optional[float]:
    """Sum of ``device.<any>.<name>`` over devices; None when no device
    reports ``name``."""
    values = [value for key, value in metrics.items()
              if key.startswith("device.") and key.split(".", 2)[2:] == [name]
              and isinstance(value, (int, float))]
    return sum(values) if values else None


def distributions(metrics: Dict, prefix: str = "",
                  suffix: str = "") -> List[List]:
    """One ``[key, count, mean, p25, p50, p75, p99, max]`` row per
    populated histogram named ``<prefix><key><suffix>``."""
    rows = []
    for name in sorted(metrics):
        value = metrics[name]
        if (name.startswith(prefix) and name.endswith(suffix)
                and isinstance(value, dict) and value.get("count")
                and all(field in value for field in DISTRIBUTION)):
            key = name[len(prefix):len(name) - len(suffix)]
            rows.append([key] + [value[field] for field in DISTRIBUTION])
    return rows


def channel_occupancy(metrics: Dict) -> List[List]:
    """``[device, channel, busy_us, util]`` per ``chan.<ch>.busy_us``."""
    rows = []
    for name, value in metrics.items():
        parts = name.split(".")
        if parts[0] == "device" and parts[2:3] == ["chan"] \
                and parts[-1] == "busy_us":
            util = metrics.get(f"device.{parts[1]}.chan.{parts[3]}.util", 0.0)
            rows.append([parts[1], int(parts[3]), value, util])
    return sorted(rows)


def activity_rows(metrics: Dict) -> List[List]:
    """``[name, total]`` per activity (0 where absent), or none at all
    when no device reports any."""
    totals = [device_total(metrics, name) for name in ACTIVITIES]
    if all(total is None for total in totals):
        return []
    return [[name, total or 0] for name, total in zip(ACTIVITIES, totals)]


def span_totals(records: Sequence[Dict]) -> List[List]:
    """``[name, count, total_us, mean_us]`` per span name."""
    agg: Dict[str, List[float]] = {}
    for record in records:
        if record.get("type") == "span":
            entry = agg.setdefault(record["name"], [0, 0.0])
            entry[0] += 1
            entry[1] += record["duration_us"]
    return [[name, count, total_us, total_us / count]
            for name, (count, total_us) in sorted(agg.items())]


def gc_attribution(records: Sequence[Dict]) -> Dict[str, int]:
    """For every ``ftl.gc`` span, walk the parent chain to its root span
    and count GC events per root name — answering 'which host operation
    triggered the garbage collection?'."""
    by_id = {record["span_id"]: record for record in records
             if record.get("type") == "span"}
    out: Dict[str, int] = {}
    for record in by_id.values():
        if record["name"] != "ftl.gc":
            continue
        root = record
        while root.get("parent_id") is not None:
            parent = by_id.get(root["parent_id"])
            if parent is None:
                break  # parent fell outside the capture window
            root = parent
        out[root["name"]] = out.get(root["name"], 0) + 1
    return out


#: ``--section`` -> its tables, as ``(title, headers, rows(records,
#: metrics))``; headers ``None`` draws ``[label, value]`` rows as bars.
SECTIONS = {
    "activities": [
        ("I/O activities (Figure 6 shape)", None,
         lambda records, metrics: activity_rows(metrics))],
    "latency": [
        ("Latency distributions (Table 1 shape)",
         ("histogram",) + DISTRIBUTION,
         lambda records, metrics: distributions(metrics))],
    "spans": [
        ("Spans by name (virtual time)",
         ("span", "count", "total_us", "mean_us"),
         lambda records, metrics: span_totals(records))],
    "gc": [
        ("GC attribution (root operation -> GC runs)",
         ("root span", "gc events"),
         lambda records, metrics: sorted(
             gc_attribution(records).items(), key=lambda item: -item[1]))],
    "queue": [
        ("Queue wait (us, admitted -> service start)",
         ("device",) + DISTRIBUTION,
         lambda records, metrics: distributions(
             metrics, "device.", ".queue.wait_us")),
        ("Channel occupancy", ("device", "channel", "busy_us", "util"),
         lambda records, metrics: channel_occupancy(metrics))],
    "cluster": [
        ("Cluster shards (client latency, us)",
         ("shard",) + DISTRIBUTION + ("epoch", "repl_lag"),
         lambda records, metrics: [
             row + [metrics.get(f"cluster.epoch.{row[0]}", 0),
                    metrics.get(f"cluster.repl_lag.{row[0]}", 0)]
             for row in distributions(metrics, "cluster.latency_us.")]),
        ("Cluster tier (kills, failovers, replication)", ("counter", "value"),
         lambda records, metrics: [
             [name, metrics[f"cluster.{name}"]] for name, __, __ in ROUTER_ROWS
             if metrics.get(f"cluster.{name}")]),
        ("Cluster distributions", ("histogram",) + DISTRIBUTION,
         lambda records, metrics: [
             row for row in distributions(metrics, "cluster.")
             if "." not in row[0]])],  # per-shard ones are the first table
    "mapping": [
        ("L2P mapping layer (final snapshot)", ("gauge", "value"),
         lambda records, metrics: [
             [name, total] for name in L2P_GAUGES
             if (total := device_total(metrics, name)) is not None]),
        ("Mapping-strategy lab (footprint vs WAF vs throughput vs SHARE "
         "fragmentation)", MAPPING_LAB,
         lambda records, metrics: sorted(
             [record[field] for field in MAPPING_LAB] for record in records
             if record.get("type") == "mapping_lab"))],
}


def render(records: Sequence[Dict], section: str = "all") -> str:
    metrics = last_metrics(records)
    parts = []
    for name, tables in SECTIONS.items():
        if section not in ("all", name):
            continue
        texts = []
        for title, headers, build in tables:
            rows = build(records, metrics)
            if rows and headers is None:
                texts.append(ascii_bars(*zip(*rows), title=title))
            elif rows:
                texts.append(format_table(headers, rows, title=title))
        parts.append("\n\n".join(texts) or f"no {name} telemetry in artifact")
    return "\n\n".join(parts)


def main(argv: Optional[List[str]] = None) -> int:
    import argparse
    parser = argparse.ArgumentParser(
        description="Render a telemetry JSONL artifact")
    parser.add_argument("path", help="JSONL artifact written by JsonlSink")
    parser.add_argument("--section", choices=("all",) + tuple(SECTIONS),
                        default="all")
    args = parser.parse_args(argv)
    try:
        records = read_jsonl(args.path)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(render(records, args.section))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
