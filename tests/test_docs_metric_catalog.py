"""The "Metric catalog (by owner)" block of ``docs/observability.md`` is
generated from the collector tables the components register — the same
tuples the registry reads — so a row added, renamed or re-kinded in the
source fails here until the doc follows.  Regenerate the block with
``PYTHONPATH=src python tests/test_docs_metric_catalog.py``."""

import os

from repro.cluster.router import ROUTER_ROWS, group_rows
from repro.couchstore.engine import COUCH_ROWS
from repro.ftl.pagemap import FTL_ROWS, MEDIA_ROWS
from repro.host.filesystem import HOST_ROWS
from repro.host.resilience import guard_rows
from repro.innodb.doublewrite import DWB_ROWS
from repro.innodb.engine import ENGINE_ROWS
from repro.obs import COUNTER, GAUGE
from repro.ssd.device import DEVICE_ROWS, channel_rows

DOC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "docs", "observability.md")
BEGIN = "<!-- metric-catalog:begin -->"
END = "<!-- metric-catalog:end -->"

#: (scope, the table, where it is declared and what it is read off).
TABLES = (
    ("device.<name>", DEVICE_ROWS + channel_rows("<ch>"),
     "`ssd/device.py` `DEVICE_ROWS` + `channel_rows`, read off the `Ssd`: "
     "`DeviceStats`, the NCQ, the channel set, and — through `ssd.ftl`, "
     "whichever instance is current — `ftl/pagemap.py` `FTL_ROWS` / "
     "`MEDIA_ROWS`"),
    ("host", HOST_ROWS,
     "`host/filesystem.py` `HOST_ROWS`, read off each `HostFs`"),
    ("resilience", guard_rows("<engine>"),
     "`host/resilience.py` `guard_rows`, read off each `ShareGuard` "
     "(`GuardStats` and its breaker)"),
    ("innodb", ENGINE_ROWS,
     "`innodb/engine.py` `ENGINE_ROWS`, read off the `InnoDBEngine`"),
    ("innodb.dwb", DWB_ROWS,
     "`innodb/doublewrite.py` `DWB_ROWS`, read off the "
     "`DoublewriteBuffer`"),
    ("couch", COUCH_ROWS,
     "`couchstore/engine.py` `COUCH_ROWS`, read off the database's "
     "`CouchStats` (one object across compactions)"),
    ("cluster", ROUTER_ROWS + group_rows("<shard>"),
     "`cluster/router.py` `ROUTER_ROWS` + `group_rows`, read off the "
     "`ShardRouter`'s `ClusterStats` and each `ShardGroup`"),
)


def render_catalog():
    lines = []
    for scope, rows, source in TABLES:
        lines.append(f"* **`{scope}.*`** — {source}.")
        for kind, label in ((COUNTER, "counters"), (GAUGE, "gauges")):
            names = [f"`{name}`" for name, row_kind, __ in rows
                     if row_kind == kind]
            if names:
                lines.append(f"  * {label}: {', '.join(names)}")
    return "\n".join(lines)


def committed_catalog(text):
    return text[text.index(BEGIN) + len(BEGIN):text.index(END)].strip("\n")


def test_the_committed_catalog_is_the_collector_tables():
    with open(DOC) as handle:
        committed = committed_catalog(handle.read())
    assert committed == render_catalog(), (
        "docs/observability.md's metric catalog differs from the collector "
        "tables; regenerate it with "
        "`PYTHONPATH=src python tests/test_docs_metric_catalog.py`")


def test_the_firmware_tables_are_the_devices_rows():
    """FTL_ROWS / MEDIA_ROWS reach the catalog through DEVICE_ROWS."""
    names = {name for name, __, __ in DEVICE_ROWS}
    assert {f"ftl.{name}" for name, __, __ in FTL_ROWS} <= names
    assert {f"media.{name}" for name, __, __ in MEDIA_ROWS} <= names


if __name__ == "__main__":
    with open(DOC) as handle:
        text = handle.read()
    start = text.index(BEGIN) + len(BEGIN)
    with open(DOC, "w") as handle:
        handle.write(text[:start] + "\n" + render_catalog() + "\n"
                     + text[text.index(END):])
    print(f"rewrote the metric catalog in {DOC}")
