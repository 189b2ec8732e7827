"""Steadiness report: run a workload several times and compare the spread to the bounds.

Usage (from the repository root)::

    python3 perfbench/steadiness.py --workload reset-count --seeds 1 2 3 4 5
    python3 perfbench/steadiness.py --workload reset-count --seeds 1 2 3 --save set-a.json
    python3 perfbench/steadiness.py --compare set-a.json set-b.json

Each run is a fresh ``run.py`` process with its own seed.  For every
end-to-end metric the report prints the median, the quartiles
(``statistics.quantiles(values, n=4)``), the spread (quartile distance
over the median), the largest deviation from the median, and the
metric's bound from ``BENCHMARK.json``.  ``--compare`` sets two saved
sets side by side: the second median's change against the first, per
metric, beside the bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def bounds() -> Dict[str, dict]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        config = json.load(handle)
    return {metric["name"]: metric for metric in config["end_to_end"]}


def run_once(workload: str, seed: int, seconds: float) -> dict:
    completed = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=600, cwd=ROOT,
    )
    if completed.returncode != 0:
        raise RuntimeError(f"seed {seed} exited {completed.returncode}: {completed.stderr[-800:]}")
    lines = completed.stdout.strip().splitlines()
    outcome = json.loads(lines[-1])
    outcome["seed"] = seed
    outcome["report"] = lines[:-1]
    return outcome


def spread(values: List[float]) -> dict:
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / med,
        "largest_deviation": max(abs(value - med) for value in values) / med,
    }


def report(workload: str, runs: List[dict]) -> str:
    limits = bounds()
    lines = [f"{workload}: {len(runs)} runs, seeds {[run['seed'] for run in runs]}"]
    shares = ["{failed}/{attempted}".format(**run) for run in runs]
    lines.append(f"  failed/attempted per run: {shares}")
    lines.append(
        f"  {'metric':<14}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}{'maxdev':>9}{'bound':>8}"
    )
    for name in sorted(runs[0]["metrics"]):
        stats = spread([run["metrics"][name]["value"] for run in runs])
        bound = limits.get(name, {}).get("bound", float("nan"))
        lines.append(
            f"  {name:<14}{stats['median']:>12.6g}{stats['q1']:>12.6g}{stats['q3']:>12.6g}"
            f"{stats['spread']:>9.2%}{stats['largest_deviation']:>9.2%}{bound:>8.2f}"
        )
    return "\n".join(lines)


def compare(first: dict, second: dict) -> str:
    limits = bounds()
    lines = [f"{first['workload']}: set B median vs set A median"]
    for name in sorted(first["runs"][0]["metrics"]):
        a = statistics.median(run["metrics"][name]["value"] for run in first["runs"])
        b = statistics.median(run["metrics"][name]["value"] for run in second["runs"])
        change = (b - a) / a
        lines.append(
            f"  {name:<14} A {a:<12.6g} B {b:<12.6g} change {change:+.2%}  bound {limits[name]['bound']:.2f}"
        )
    return "\n".join(lines)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 6)))
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--save", help="write the runs to this JSON file")
    parser.add_argument("--compare", nargs=2, metavar=("SET_A", "SET_B"))
    args = parser.parse_args()
    if args.compare:
        sets = []
        for path in args.compare:
            with open(path, encoding="utf-8") as handle:
                sets.append(json.load(handle))
        print(compare(*sets))
        return 0
    if not args.workload:
        parser.error("--workload is required unless --compare is given")
    if args.seconds is None:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
            args.seconds = json.load(handle)["run_seconds"]
    runs = []
    for seed in args.seeds:
        runs.append(run_once(args.workload, seed, args.seconds))
        print(f"seed {seed}: " + json.dumps(runs[-1]["metrics"]), flush=True)
    print(report(args.workload, runs))
    if args.save:
        with open(args.save, "w", encoding="utf-8") as handle:
            json.dump({"workload": args.workload, "runs": runs}, handle, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
