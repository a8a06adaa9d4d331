"""Parity of the one sweep engine with the six it replaced, plus a
planted bug it must catch.

The literals below were recorded on the parent commit (``5412ad8``, the
last one with ``explorer.py`` / ``mediafaults.py`` / ``chaosfaults.py``
and the three sweep halves of ``cluster.py``) by mapping each old
``*Occurrence`` / ``*Result`` onto the canonical tuples of
:func:`canon_site` / :func:`canon_result`:

* ``SITES`` — per cell, the length and a sha256 of the *full* enumerated
  site list, in order.
* ``VERDICTS`` — per cell, a sha256 over the ordered ``(site, fired,
  crashed, aborted, violations, extras)`` of an explicit site list picked
  by the parent's plain even stride (spelled out in :func:`evenly`, so a
  change to the engine's sampler cannot mask a verdict change), and the
  three full cluster-chaos results for seeds 1-3.

A mismatch means a site moved or a verdict changed: never re-record to
make a refactor pass.
"""

import functools
import hashlib
import json

import pytest

from repro.crashcheck.cluster import ClusterChaosHarness
from repro.crashcheck.families import FAMILIES, seed_sites
from repro.crashcheck.sweep import sweep
from repro.crashcheck.workloads import (WORKLOADS, DeviceState,
                                        _small_ssd)
from repro.errors import DeviceError
from repro.obs.sinks import MemorySink
from repro.sim.clock import SimClock
from repro.sim.faults import FaultPlan
from repro.tools.crashexplore import main as crashexplore_main

SITES = {
    "power/linkbench-small": (
        1119, "a70da44e0e7ccd2b30da0e7b4ef81780674e6d45540e38a9c8f382f70f8d0b15"),
    "power/ftl-queued": (
        582, "8897ef7a92f85a74572c682501e2d87fa7c90374a8b0a891ea1ccd143006594f"),
    "power/ftl-basic": (
        767, "0d9209cadbacb40767e963dd6255120a4348cee11df91162b48ec5e237a58840"),
    "media/linkbench-small": (
        264, "64d119765f4918d4b7461f7801f2bdc2e11652383ad09f06856f8826423dc3fc"),
    "media/ftl-basic": (
        350, "63529d11c6c9464c54777ae8ca0a888670450d1e68367c5e1267ed1a95e7061e"),
    "command/linkbench-small": (
        116, "7a19812c47304a26ea1abc1438d847026a8a7993df888c65ff7de1426d2f4ed1"),
    "command/sqlite-share": (
        56, "a98b4af079654e00524f2d27a6236afbd4520d0c4a090ba1eea4d1248b86a89f"),
    "cluster-kill/cluster-small": (
        92, "192d8b4315e1701bbb3205598d0106bcb9032a2f2cd5566dd69de0e22cb8d00a"),
    "cluster-media/cluster-media": (
        92, "5c86e8f0ede3549c73a3d44667e13d8e3c5800e554f43a2a816a713665b178bb"),
}

#: What the counted run reports beside the sites (the summary's counts).
COUNTS = {
    "power/linkbench-small": {"distinct_points": 29},
    "power/ftl-queued": {"distinct_points": 10},
    "power/ftl-basic": {"distinct_points": 15},
    "media/linkbench-small":
        {"op_counts": {"read": 8, "program": 229, "erase": 3}},
    "media/ftl-basic":
        {"op_counts": {"read": 37, "program": 247, "erase": 5}},
    "command/linkbench-small": {"share_commands": 23},
    "command/sqlite-share": {"share_commands": 8},
    "cluster-kill/cluster-small": {"acked_writes": 92},
    "cluster-media/cluster-media": {"acked_writes": 92},
}

#: cell -> (explicit sites, sha256, fired, crashed, aborted)
VERDICTS = {
    "power/linkbench-small": (
        24, "753bbff208b2340ab9d6bbf2feb3deb711c4d5b41383bd30b3fab3ce2c232c08",
        24, 24, 0),
    "power/ftl-basic": (
        24, "29bc28ad555d7c0127508ce7318bf4edf40a6c87d8797c6038bcb8c9f9af93e3",
        24, 24, 0),
    "media/linkbench-small": (
        24, "9f6f05b8caa16d2f7d2278690855113114ff166cf562142d35b2b1c7ae90b20d",
        23, 2, 0),
    "media/ftl-basic": (
        50, "18ae0031d96442376b09033736f6562f8801bb13f4594e7ac6a90432046b49d5",
        50, 3, 4),
    "command/linkbench-small": (
        24, "c7919e7f713cb022a99e83d47eface5917726962db9ea1570f138f0e6bdcd23d",
        24, 9, 0),
    "command/sqlite-share": (
        24, "3308a9480f0b8f99f4fb8c2a29e783c97554188b9295ee042968b0c86890205c",
        23, 13, 0),
    "cluster-kill/cluster-small": (
        24, "4533d27dcb0a8ed42742def9289019b5da9d86624a2847d3d63abdef78f53020",
        24, 0, 0),
    "cluster-media/cluster-media": (
        24, "fedbb183233977d8cfd40d6e61cd0d2e58f3af4816c0e0d45a4cfc9636bbb2c7",
        24, 0, 0),
}

CHAOS_SHA = "13592775b44765f9792b41118ae665bade61761e5dd09d1af9e2b864b8a4db3e"
CHAOS_TOTALS = {"kills": 8, "mid_rebalance_kills": 3, "storms": 6,
                "busy_faults": 9, "failovers": 10, "migrated_keys": 24,
                "ryw_checks": 274}


def canon_site(site):
    return (site.family, site.mode, site.nth, site.op, site.flavor,
            site.power_point, site.power_nth, site.seed)


def canon_result(res):
    extras = tuple(sorted(
        (key, tuple(value) if isinstance(value, list) else value)
        for key, value in res.extras.items()))
    return (canon_site(res.site), res.fired, res.crashed, res.aborted,
            tuple(res.violations), extras)


def digest(items):
    return hashlib.sha256(repr(list(items)).encode()).hexdigest()


def evenly(items, limit):
    """The parent's ``sample_evenly``, verbatim."""
    total = len(items)
    return [items[i * total // limit] for i in range(limit)]


_ENUMERATED = {}


def enumerated(cell):
    """``(family, factory, sites, counts)`` for ``"family/workload"``,
    every mode the harness supports, enumerated once per session."""
    if cell not in _ENUMERATED:
        family_name, workload = cell.split("/")
        family = FAMILIES[family_name]
        factory = family.harnesses[workload]
        sites, counts = family.enumerate(factory,
                                         family.resolve_modes(factory))
        _ENUMERATED[cell] = (family, factory, sites, counts)
    return _ENUMERATED[cell]


@pytest.mark.parametrize("cell", sorted(SITES))
def test_enumerated_sites_match_parent(cell):
    __, __, sites, counts = enumerated(cell)
    count, sha = SITES[cell]
    assert len(sites) == count
    assert digest(canon_site(site) for site in sites) == sha
    assert counts == COUNTS[cell]


def test_enumeration_is_the_same_under_a_compact_l2p():
    # The CI cell sweeps ftl-basic under --l2p delta: the backing changes
    # the DRAM representation, not the checkpoints the run reaches.
    factory = functools.partial(WORKLOADS["ftl-basic"], l2p="delta")
    assert factory(FaultPlan()).ssd.ftl.fwd.name == "delta"
    sites, __ = FAMILIES["power"].enumerate(factory, ("power-cut",))
    assert (len(sites), digest(canon_site(site) for site in sites)) \
        == SITES["power/ftl-basic"]


@pytest.mark.parametrize("cell", sorted(VERDICTS))
def test_site_verdicts_match_parent(cell):
    family, factory, sites, __ = enumerated(cell)
    picked, sha, fired, crashed, aborted = VERDICTS[cell]
    report = sweep(family, factory, cell, sites=evenly(sites, picked))
    assert report.ok, report.failures
    summary = report.summary()
    assert (summary["explored"], summary["fired"], summary["crashed"],
            summary["aborted"], summary["violations"]) \
        == (picked, fired, crashed, aborted, 0)
    assert digest(canon_result(res) for res in report.results) == sha


def test_cluster_chaos_seeds_match_parent():
    family = FAMILIES["cluster-chaos"]
    report = sweep(family, ClusterChaosHarness, "cluster-chaos",
                   sites=seed_sites(3))
    assert report.ok, report.failures
    assert digest(canon_result(res) for res in report.results) == CHAOS_SHA
    summary = report.summary()
    assert {key: summary[key] for key in CHAOS_TOTALS} == CHAOS_TOTALS


# ------------------------------------------------------------- planted bug


class _Stats:
    """Guard and router stats in one: every counter any family reads."""
    retries = fallbacks = failovers = replayed_records = repl_applied = 1
    media_trips = proactive_promotions = media_storms = 1
    acked_writes = migrated_keys = replica_reads = 0


class LeakyHarness:
    """A harness whose recovery silently drops one acknowledged key.

    Real enough for every family to enumerate and arm — a small SSD
    taking writes, reads and a SHARE, one ack per write on the sweep's
    plan — and a stand-in wherever a family reads evidence."""

    name = "leaky"
    LOST = 4
    stats = _Stats()
    steps = kills = storms = busy_faults = ryw_checks = 0
    mid_rebalance_kill = False

    def __init__(self, faults, l2p="flat"):
        self.faults = faults
        self.ssd = _small_ssd(faults, SimClock(), l2p)
        self.router = self          # ``harness.router.stats``
        self.violations = []        # the chaos family's inline checks
        # Acked during setup and never touched by run(): whatever is
        # injected, these must survive.
        self.durable = {lpn: ("kept", lpn) for lpn in (3, 4, 5)}
        for lpn, value in self.durable.items():
            self.ssd.write(lpn, value)

    def guards(self):
        return [self]               # ``guard.stats``

    def run(self):
        for lpn in range(3):
            self.ssd.write(lpn, ("v", lpn))
            self.faults.cluster.on_ack("shard0")
            self.ssd.read(lpn)
        try:
            self.ssd.share(8, 3, 1)
        except DeviceError:
            self.ssd.write(8, self.durable[3])   # the two-phase fallback

    def recover(self):
        self.ssd.power_cycle()
        self.ssd.trim(self.LOST)    # the planted bug
        return [DeviceState("leaky", self.ssd, 2)]

    def check_engine(self):
        ftl = self.ssd.ftl
        return [f"leaky: acked key {lpn} lost"
                for lpn, value in sorted(self.durable.items())
                if not ftl.is_mapped(lpn) or ftl.read(lpn) != value]


@pytest.fixture(params=list(FAMILIES))
def leaky(request, monkeypatch):
    """Each family, with the leaky harness registered as a workload."""
    family = FAMILIES[request.param]
    factory = LeakyHarness
    if family.seeded:   # built from a seed, not a plan
        factory = lambda seed, l2p="flat": LeakyHarness(FaultPlan(), l2p)
    monkeypatch.setitem(family.harnesses, "leaky", factory)
    return family


def test_engine_catches_a_planted_lost_write(leaky):
    sink = MemorySink()
    report = sweep(leaky, leaky.harnesses["leaky"], "leaky", cap=6, sink=sink)
    assert report.results
    assert not report.ok
    for res in report.results:
        assert f"leaky: acked key {LeakyHarness.LOST} lost" in \
            " ".join(res.violations), (str(res.site), res.violations)
    summary = sink.records[-1]
    assert summary["ok"] is False
    assert summary["violations"] >= len(report.results)


def test_cli_exits_1_on_a_planted_lost_write(leaky, tmp_path, capsys):
    out = tmp_path / "leaky.jsonl"
    code = crashexplore_main(["--family", leaky.name, "--workload", "leaky",
                              "--max-points", "6", "--out", str(out)])
    assert code == 1
    assert f"acked key {LeakyHarness.LOST} lost" in capsys.readouterr().err
    summary = json.loads(out.read_text().splitlines()[-1])
    assert summary["type"] == "crashcheck-summary"
    assert summary["family"] == leaky.name
    assert summary["ok"] is False
