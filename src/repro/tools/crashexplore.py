"""Exhaustive fault sweeps from the command line.

Usage::

    python -m repro.tools.crashexplore --workload linkbench-small
    python -m repro.tools.crashexplore --workload ftl-basic \\
        --out report.jsonl --max-points 150
    python -m repro.tools.crashexplore --family media \\
        --workload ftl-basic --modes program-fail,erase-fail
    python -m repro.tools.crashexplore --family command \\
        --workload sqlite-share
    python -m repro.tools.crashexplore --family cluster-kill --max-points 40
    python -m repro.tools.crashexplore --family cluster-media --max-points 20
    python -m repro.tools.crashexplore --family cluster-chaos --seeds 3
    python -m repro.tools.crashexplore --workload ftl-basic --l2p delta
    python -m repro.tools.crashexplore --list

Every run is the same loop (:mod:`repro.crashcheck.sweep`): enumerate the
sites one counted fault-free run of the workload reaches, re-run it once
per site with that site's fault injected exactly there, recover from the
persisted media, and check the full invariant set.  ``--family`` picks
what a site is — a power cut at a checkpoint (``power``, the default), a
chip-operation fault (``media``), a host-boundary SHARE command fault
(``command``), a shard kill or media storm at a cluster ack boundary
(``cluster-kill`` / ``cluster-media``), or a seeded chaos schedule
(``cluster-chaos``); the families table in ``docs/crash-consistency.md``
has each one's sites, armed faults, verdict rules and record fields.
``--modes`` narrows a family's mode list.  A family sweeps only the
harnesses it applies to (``--list`` shows them) and says so if asked for
another.

``--max-points N`` caps a run at N sites: every stratum (a site with its
occurrence counters dropped — each distinct checkpoint, mode × operation,
mode × flavor) gets a site first, the rest of the budget is spread evenly
over the remainder.

``--l2p`` (or the ``REPRO_L2P`` env var) switches the forward-map backing
of every device the sweep builds (see :mod:`repro.ftl.mapping`); the
summary record names the strategy the run resolved.

Each verdict is appended to the JSONL report as one ``{"type":
"crashcheck", "family": ..., ...}`` record — the same sink format the
telemetry subsystem uses — followed by one ``"crashcheck-summary"``
record.  Exit status is 0 when every invariant held, 1 when any was
violated, 2 on a usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional, Sequence

from repro.crashcheck.families import DEFAULT_SEEDS, FAMILIES, seed_sites
from repro.crashcheck.sweep import Family, sweep
from repro.ftl.mapping import STRATEGY_NAMES
from repro.obs.sinks import JsonlSink


def _sweep(args, family: Family, workload: str, modes, sink) -> int:
    """Run one sweep and print its summary; the exit status."""
    sites = seed_sites(args.seeds) if args.seeds is not None else None
    report = sweep(family, family.harnesses[workload], workload,
                   modes=modes, sites=sites, cap=args.max_points, sink=sink)
    summary = report.summary()
    counted = f"; counted {json.dumps(report.counts)}" if report.counts else ""
    print(f"[crashexplore] family {family.name} on {workload} "
          f"(l2p {report.l2p}): {summary['sites']} sites in "
          f"{summary['strata']} strata across modes "
          f"{', '.join(report.modes)}{counted}")
    if summary["explored"] < summary["sites"]:
        print(f"[crashexplore] budget cap: {summary['explored']} sites "
              f"reaching {summary['strata_explored']} of "
              f"{summary['strata']} strata (every stratum first, the rest "
              f"spread evenly)")
    columns = "".join(f"{summary[label]} {label.replace('_', ' ')}, "
                      for label, __ in family.columns)
    print(f"[crashexplore] explored {summary['explored']} sites: "
          f"{summary['fired']} fired, {summary['crashed']} crashed, "
          f"{summary['aborted']} typed aborts, {columns}"
          f"{summary['violations']} invariant violations")
    print(f"[crashexplore] report written to {args.out}")
    if report.ok:
        print("[crashexplore] all invariants held at every explored site")
        return 0
    if not args.quiet:
        for result in report.failures:
            for violation in result.violations:
                print(f"[crashexplore] FAIL {result.site}: {violation}",
                      file=sys.stderr)
    for violation in report.sweep_violations:
        print(f"[crashexplore] FAIL {violation}", file=sys.stderr)
    return 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.crashexplore",
        description="Systematic fault sweeps over the sites a workload "
                    "reaches: inject at each, recover, check invariants.")
    parser.add_argument("--family", default="power", choices=list(FAMILIES),
                        help="what a site is (default: power)")
    parser.add_argument("--workload", default=None,
                        help="harness to sweep (default: the family's "
                             "first; see --list)")
    parser.add_argument("--modes", default=None, metavar="M1,M2",
                        help="comma-separated subset of the family's modes "
                             "(default: every mode the harness supports)")
    parser.add_argument("--max-points", type=int, default=None, metavar="N",
                        help="explore at most N sites: every stratum "
                             "first, the rest spread evenly")
    parser.add_argument("--seeds", type=int, default=None, metavar="N",
                        help="run seeds 1..N of a seeded family "
                             f"(cluster-chaos; default: {DEFAULT_SEEDS})")
    parser.add_argument("--l2p", default=None, metavar="STRATEGY",
                        choices=sorted(STRATEGY_NAMES),
                        help="L2P mapping strategy for every device the "
                             f"sweep builds ({', '.join(STRATEGY_NAMES)}; "
                             "default: the REPRO_L2P env var, else flat)")
    parser.add_argument("--out", default="crashexplore-report.jsonl",
                        help="JSONL report path "
                             "(default: crashexplore-report.jsonl)")
    parser.add_argument("--list", action="store_true",
                        help="list families, their workloads and modes, "
                             "and exit")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress per-violation output")
    args = parser.parse_args(argv)

    if args.list:
        for family in FAMILIES.values():
            workloads = [name for name, factory in family.harnesses.items()
                         if family.applies(factory)]
            print(f"{family.name}: workloads {', '.join(workloads)}; "
                  f"modes {', '.join(family.modes)}")
        return 0

    family = FAMILIES[args.family]
    workload = args.workload or next(iter(family.harnesses))
    try:
        if workload not in family.harnesses:
            raise ValueError(
                f"family {family.name!r} does not sweep workload "
                f"{workload!r} (choose from {', '.join(family.harnesses)})")
        if args.seeds is not None and not (family.seeded and args.seeds > 0):
            raise ValueError(
                "--seeds takes a positive count and applies to seeded "
                "families only: "
                + ", ".join(f.name for f in FAMILIES.values() if f.seeded))
        modes = family.resolve_modes(
            family.harnesses[workload],
            args.modes.split(",") if args.modes else None)
    except ValueError as exc:
        print(f"[crashexplore] {exc}", file=sys.stderr)
        return 2
    # Harnesses resolve their FtlConfig through resolve_l2p_strategy(),
    # which reads this env var — setting it here switches every device
    # the sweep builds, enumeration and injection runs alike.
    previous = os.environ.get("REPRO_L2P")
    if args.l2p is not None:
        os.environ["REPRO_L2P"] = args.l2p
    sink = JsonlSink(args.out)
    try:
        return _sweep(args, family, workload, modes, sink)
    finally:
        sink.close()
        if args.l2p is not None:
            if previous is None:
                del os.environ["REPRO_L2P"]
            else:
                os.environ["REPRO_L2P"] = previous


if __name__ == "__main__":
    raise SystemExit(main())
