"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload grid-average --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics (``setup_s``,
``scenario_s``, ``warm_sweep_s``, ``peak_rss_mib``); ``--trace 1`` is a
separate run of the same scenarios that prints the per-layer metrics.
Every scenario's output is checked; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Timings are normalised by reference loops (see
``reference.py``) and printed beside their raw seconds.
"""

from __future__ import annotations

import os
import sys

# One BLAS thread, set before NumPy is imported here or in any child.
for _variable in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_variable] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import time  # noqa: E402
from typing import List, Optional  # noqa: E402

from harness import (  # noqa: E402
    MIN_SCENARIOS,
    SCENARIO_SHARE,
    WARM_CELLS,
    Tally,
    Timed,
    guarded,
    measure_setup,
    open_store,
    warm_passes,
)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("grid-average", "reset-count", "async-events", "agent-sweep")

#: The agent sweep starts cold passes of its grid until this share is used.
AGENT_COLD_SHARE = 0.45
#: Fresh-interpreter set-ups per run; ``setup_s`` summarises them.
SETUP_REPEATS = 15


def run_vectorized(workload, seed: int, seconds: float, workdir: str, tally: Tally):
    from reference import Reference
    from repro.api import run_scenario

    started = time.perf_counter()
    spec, inputs = workload.scenario(seed, 0)
    result = guarded(tally, "warm-up", lambda: run_scenario(spec))
    if result is not None:
        tally.record("warm-up", workload.check(result, inputs))
    gc.collect()
    gc.freeze()

    timed = Timed(Reference(workload.reference))
    cold = []
    index = 1
    while index <= MIN_SCENARIOS or time.perf_counter() < started + SCENARIO_SHARE * seconds:
        spec, inputs = workload.scenario(seed, index)
        label = f"scenario {index}"
        index += 1
        result = guarded(tally, label, lambda: timed.run(lambda: run_scenario(spec)))
        if result is None:
            continue
        problems = workload.check(result, inputs)
        tally.record(label, problems)
        if not problems and len(cold) < WARM_CELLS:
            cold.append((spec, result))
    timed.close()

    store = open_store(workdir)
    for spec, result in cold:
        store.put(spec, result)
    warm = warm_passes(
        store, [spec for spec, _ in cold], [result for _, result in cold], started + seconds, tally
    )
    return timed, warm


def run_agent_sweep(workload, seed: int, seconds: float, workdir: str, tally: Tally):
    from reference import Reference
    from repro.api import SweepRunner
    from workloads import agent_grid

    started = time.perf_counter()
    grid = agent_grid(seed)
    store = open_store(workdir, "store-0")
    spec, inputs = workload.scenario(seed, 1)  # a cell outside the grid
    sweep = guarded(tally, "warm-up", lambda: SweepRunner(store=store).run([spec]))
    if sweep is not None:
        tally.record("warm-up", workload.check(sweep.results[0], inputs))
    gc.collect()
    gc.freeze()

    # Whole cold passes, each into a fresh store, until the scenario share
    # of the run is used; the warm passes then read the last one.
    timed = Timed(Reference(workload.reference))
    passes = 0
    while passes == 0 or time.perf_counter() < started + AGENT_COLD_SHARE * seconds:
        passes += 1
        store = open_store(workdir, f"store-{passes}")
        colds = []
        for index, (spec, inputs) in enumerate(grid):
            label = f"cold pass {passes} cell {index}"
            sweep = guarded(tally, label, lambda: timed.run(lambda: SweepRunner(store=store).run([spec])))
            if sweep is None:
                colds.append(None)
                continue
            problems = workload.check(sweep.results[0], inputs)
            if sweep.executed() != 1:
                problems.append("a cold cell was not executed")
            tally.record(label, problems)
            colds.append(sweep.results[0])
    timed.close()
    warm = warm_passes(store, [spec for spec, _ in grid], colds, started + seconds, tally)
    return timed, warm


def describe(name: str, summary: dict) -> str:
    return (
        f"{name}: {summary['value']:.6g} s normalised | raw {summary['raw']:.6g} s | "
        f"{summary['kind']} reference {summary['reference']:.6g} s "
        f"(nominal {summary['nominal']} s) | {summary['samples']} samples"
    )


def timed_run(workload_name: str, seed: int, seconds: float, workdir: str) -> dict:
    from workloads import WORKLOADS

    workload = WORKLOADS[workload_name]
    setup, _phases = measure_setup(workload_name, seed, workdir, SETUP_REPEATS)
    tally = Tally()
    if workload.sweep:
        scenarios, warm = run_agent_sweep(workload, seed, seconds, workdir, tally)
    else:
        scenarios, warm = run_vectorized(workload, seed, seconds, workdir, tally)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    summaries = {
        "setup_s": setup.summary(),
        "scenario_s": scenarios.summary(),
        "warm_sweep_s": warm.summary(),
    }
    print(f"workload {workload_name}, seed {seed}, {seconds:g} s measured")
    for name, summary in summaries.items():
        print(describe(name, summary))
    print(f"peak_rss_mib: {peak_rss_mib:.6g} MiB")
    for problem in tally.problems:
        print(f"FAILED {problem}")
    metrics = {name: {"value": summary["value"], "unit": "s"} for name, summary in summaries.items()}
    metrics["peak_rss_mib"] = {"value": peak_rss_mib, "unit": "MiB"}
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program to measure: {SRC}/repro is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    workdir = os.path.join(ROOT, ".perfbench-work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        if args.trace:
            from layers import traced_run

            outcome = traced_run(args.workload, args.seed, args.seconds, workdir)
        else:
            outcome = timed_run(args.workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass  # another run still uses it
    print(json.dumps(outcome))
    return 0


if __name__ == "__main__":
    sys.exit(main())
