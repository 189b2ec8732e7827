"""Set-up probe: one fresh interpreter up to the first ready scenario.

Usage: ``python3 perfbench/setup_child.py <workload> <seed> <workdir>``

Imports the program, validates the first scenario's spec, resolves its
plan, and builds what the scenario needs before it can run: the topology
and kernel for the vectorised workloads, or the result store and its code
fingerprint for the agent sweep.  It then prints one JSON line of phase
timings; the parent times the whole start, from spawn to that line.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def main() -> int:
    workload_name, seed, workdir = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    timings = {}
    started = time.perf_counter()
    import workloads
    from repro.api import BACKENDS, resolve_plan

    timings["import_s"] = time.perf_counter() - started

    workload = workloads.WORKLOADS[workload_name]
    started = time.perf_counter()
    if workload.sweep:
        spec = workloads.agent_grid(seed)[0][0]
    else:
        spec, _inputs = workload.scenario(seed, 0)
    plan = resolve_plan(spec)
    timings["plan_s"] = time.perf_counter() - started

    if workload.sweep:
        from repro.store import ResultStore, code_fingerprint

        started = time.perf_counter()
        ResultStore(tempfile.mkdtemp(prefix="setup-store-", dir=workdir))
        code_fingerprint(spec.protocol)
        timings["store_open_s"] = time.perf_counter() - started
    else:
        backend = BACKENDS.get(plan.backend)
        started = time.perf_counter()
        topology, _environment = backend.build_topology(spec)
        timings["topology_build_s"] = time.perf_counter() - started
        started = time.perf_counter()
        backend.build_kernel(spec, topology=topology)
        timings["kernel_build_s"] = time.perf_counter() - started
    sys.stdout.write(json.dumps(timings) + "\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
