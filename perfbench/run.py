#!/usr/bin/env python3
"""perfbench: the repo's one measuring stick.

    python perfbench/run.py                        # all four workloads
    python perfbench/run.py --workload device-mixed --seed 7
    python perfbench/run.py --out perfbench/out/mine.json
    python perfbench/run.py --compare A.json B.json

With ``--trace 0|1`` (the form the benchmark driver uses) it runs one
workload once and prints, as its last line, one JSON object with the
end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``).  Without ``--trace`` it runs both for each selected
workload, prints every metric by name with its unit, and optionally
writes them all to ``--out``.

Every workload run happens in a fresh child process, one at a time, with
telemetry off (``REPRO_OBS``/``REPRO_L2P`` cleared) and a fixed
``PYTHONHASHSEED``.  Exit code is non-zero when a verify step fails, an
operation fails, or ``--compare`` finds a metric outside its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Metrics on the virtual clock or counted by the interpreter: identical
#: for identical code and seed, so ``--compare`` flags any difference.
EXACT_PREFIXES = ("virtual_", "nand_", "py_calls_per_op")


def load_contract() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def is_exact(metric: str) -> bool:
    return metric.startswith(EXACT_PREFIXES)


# ------------------------------------------------------------ child side

def child_main(args) -> int:
    """Run one workload in this (fresh) process and print its result."""
    import runner   # imports repro from this checkout's src/
    contract = load_contract()
    trace = args.trace == 1
    section = "per_layer" if trace else "end_to_end"
    trace_path = os.path.join(HERE, "out", f"trace-{args.workload}.json")
    result = runner.run_workload(args.workload, args.seed, args.seconds,
                                 trace, trace_path)
    if not result[section]:
        return 1    # an operation raised; the traceback is on stderr
    metrics = {}
    for entry in contract[section]:
        name = entry["name"]
        value = result[section][name]
        metrics[name] = {"value": value, "unit": entry["unit"]}
        print(f"{args.workload:16s} {name:44s} {value:>16.6f} "
              f"{entry['unit']}")
    for name, value in sorted(result["notes"].items()):
        print(f"{args.workload:16s} note:{name} = {value}")
    undeclared = sorted(set(result[section]) - set(metrics))
    if undeclared:
        print(f"metrics missing from BENCHMARK.json: {undeclared}",
              file=sys.stderr)
        return 1
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    return 0 if result["correct"] and not result["failed"] else 1


# ----------------------------------------------------------- parent side

def spawn(workload: str, seed: int, seconds: float, trace: int):
    """Run one workload in a fresh child; returns (exit code, result)."""
    env = dict(os.environ)
    env.pop("REPRO_OBS", None)
    env.pop("REPRO_L2P", None)
    env["PYTHONHASHSEED"] = "0"
    command = [sys.executable, os.path.abspath(__file__), "--child",
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, env=env, stdout=subprocess.PIPE,
                          text=True)
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    lines = done.stdout.strip().splitlines()
    result = None
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
    return done.returncode, result


def full_run(args, contract) -> int:
    names = [entry["name"] for entry in contract["workloads"]]
    selected = [args.workload] if args.workload else names
    report = {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "seconds": args.seconds,
        "workloads": {},
    }
    status = 0
    for workload in selected:
        entry = {}
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            code, result = spawn(workload, args.seed, args.seconds, trace)
            status = status or code
            if result is not None:
                entry[section] = result["metrics"]
                entry["correct"] = (entry.get("correct", True)
                                    and result["correct"])
                entry["ops_attempted"] = result["attempted"]
                entry["ops_failed"] = result["failed"]
        report["workloads"][workload] = entry
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(report, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.out}")
    return status


# ---------------------------------------------------------------- compare

def compare(path_a: str, path_b: str, contract) -> int:
    """Print each end-to-end metric's change from A to B against its
    bound; any change at all in an exact metric is marked.  Returns 1
    when a metric worsened past its bound or an exact metric differs."""
    with open(path_a) as handle:
        report_a = json.load(handle)
    with open(path_b) as handle:
        report_b = json.load(handle)
    same_inputs = (report_a.get("seed") == report_b.get("seed")
                   and report_a.get("seconds") == report_b.get("seconds"))
    if not same_inputs:
        print("seeds or run lengths differ: exact metrics are compared "
              "against their bounds only")
    status = 0
    for workload, entry_a in report_a["workloads"].items():
        entry_b = report_b["workloads"].get(workload)
        if entry_b is None:
            print(f"{workload}: missing from {path_b}")
            status = 1
            continue
        for metric in contract["end_to_end"]:
            name = metric["name"]
            a = entry_a["end_to_end"][name]["value"]
            b = entry_b["end_to_end"][name]["value"]
            change = (b - a) / a if a else 0.0
            worse = change if metric["better"] == "lower" else -change
            verdict = "ok"
            if worse > metric["bound"]:
                verdict = "WORSE THAN BOUND"
                status = 1
            elif same_inputs and is_exact(name) and a != b:
                verdict = "EXACT METRIC DIFFERS"
                status = 1
            print(f"{workload:16s} {name:24s} {a:>14.6f} -> {b:>14.6f} "
                  f"{change * 100:+8.3f} %  (bound {metric['bound'] * 100:g}"
                  f" %, {'exact' if is_exact(name) else 'noisy'})  "
                  f"{verdict}")
    return status


def main(argv=None) -> int:
    contract = load_contract()
    names = [entry["name"] for entry in contract["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=float(contract["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--out", help="write the full run's JSON here")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--child", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.compare:
        return compare(args.compare[0], args.compare[1], contract)
    if args.child:
        return child_main(args)
    if args.trace is not None:
        if not args.workload:
            parser.error("--trace needs --workload")
        return spawn(args.workload, args.seed, args.seconds, args.trace)[0]
    return full_run(args, contract)


if __name__ == "__main__":
    sys.exit(main())
