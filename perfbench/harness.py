"""Timing and bookkeeping shared by the timed run (``run.py``) and the traced run (``layers.py``)."""

from __future__ import annotations

import gc
import json
import os
import sys
import time
from typing import Callable, List

HERE = os.path.dirname(os.path.abspath(__file__))

#: Share of ``--seconds`` given to scenarios; warm store passes get the rest.
SCENARIO_SHARE = 0.8
#: Timed scenarios run even when the time is up (so a warm pass has cells).
MIN_SCENARIOS = 6
#: Scenarios re-served from the store by each warm pass (vectorised workloads).
WARM_CELLS = 6
MIN_WARM_PASSES = 10


class Tally:
    """Operations attempted and failed, with the first few problems kept."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def record(self, label: str, problems: List[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 8:
                self.problems.append(f"{label}: {'; '.join(problems[:3])}")


class Timed:
    """Operations of one kind, each bracketed by reference timings.

    ``refs[i]`` is timed just before operation ``i`` and ``refs[i + 1]``
    just after it, so ``close()`` adds the last one.
    """

    def __init__(self, reference) -> None:
        self.reference = reference
        self.raw: List[float] = []
        self.refs: List[float] = []

    def mark(self) -> None:
        gc.collect()
        self.refs.append(self.reference.measure())

    def run(self, operation: Callable[[], object]):
        self.mark()
        started = time.perf_counter()
        try:
            outcome = operation()
        except BaseException:
            self.refs.pop()
            raise
        self.raw.append(time.perf_counter() - started)
        return outcome

    def close(self) -> None:
        self.mark()

    def normalised(self) -> List[float]:
        from reference import normalise_series

        return normalise_series(self.raw, self.refs, self.reference.nominal)

    def summary(self) -> dict:
        from reference import interquartile_mean

        return {
            "value": interquartile_mean(self.normalised()),
            "raw": interquartile_mean(self.raw),
            "reference": interquartile_mean(self.refs),
            "nominal": self.reference.nominal,
            "kind": self.reference.kind,
            "samples": len(self.raw),
        }


def guarded(tally: Tally, label: str, operation: Callable[[], object]):
    """Run ``operation``; an exception counts as a failed operation."""
    try:
        return operation()
    except Exception as exc:  # the run goes on; the failure is counted
        tally.record(label, [f"{type(exc).__name__}: {exc}"])
        return None


# -------------------------------------------------------------------- set-up
def measure_setup(workload: str, seed: int, workdir: str, repeats: int) -> tuple:
    """``repeats`` fresh-interpreter set-ups, each bracketed by startup references."""
    from reference import Reference, time_child

    env = dict(os.environ)
    argv = [sys.executable, os.path.join(HERE, "setup_child.py"), workload, str(seed), workdir]
    time_child(argv, env)  # untimed: compiles bytecode and fills the page cache
    timed = Timed(Reference("startup", env=env))
    phases = []
    for _ in range(repeats):
        timed.mark()
        seconds, line = time_child(argv, env)
        timed.raw.append(seconds)
        phases.append(json.loads(line))
    timed.close()
    return timed, phases


# ----------------------------------------------------------------- scenarios
def warm_passes(store, specs, colds, deadline: float, tally: Tally) -> Timed:
    """Serve ``specs`` from ``store`` through the sweep runner until ``deadline``."""
    from checks import check_warm
    from reference import Reference
    from repro.api import SweepRunner

    timed = Timed(Reference("sqlite", directory=store.root))
    passes = 0
    while passes < MIN_WARM_PASSES or time.perf_counter() < deadline:
        sweep = timed.run(lambda: SweepRunner(store=store).run(specs))
        passes += 1
        for index, problems in enumerate(check_warm(colds, sweep)):
            tally.record(f"warm pass {passes} cell {index}", problems)
    timed.close()
    return timed


def open_store(workdir: str, name: str = "store"):
    from reference import prepare_sqlite
    from repro.store import ResultStore

    directory = os.path.join(workdir, name)
    store = ResultStore(directory)
    prepare_sqlite(directory)  # the sqlite reference runs beside the store
    return store
