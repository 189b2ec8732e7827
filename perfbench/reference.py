"""Fixed reference loops and the normalisation arithmetic.

Host speed on a small shared machine drifts by tens of percent between
runs and within a run, so a raw wall time says as much about the machine
as about the program.  Every timed operation is therefore paired with a
reference loop of the same kind of work, timed right before it, and
reported at a nominal machine speed::

    normalised = raw * nominal_reference / measured_reference

where ``measured_reference`` is the mean of the reference timed just
before the operation and the one timed just after it (the next
operation's "before").  The loops below are fixed code: any change to
them changes every normalised figure and needs new nominal constants.
"""

from __future__ import annotations

import gzip
import json
import os
import sqlite3
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Sequence

import numpy as np

#: Reference seconds at the nominal machine speed: about the median of
#: each loop on the 2-core machine that set the bounds (README, "Reference
#: figures").  Normalised metrics are in seconds at that speed.  They are
#: constants: changing one rescales every normalised figure of its kind.
NOMINAL = {
    "numpy": 0.0120,
    "python": 0.0075,
    "sqlite": 0.0085,
    "startup": 0.1300,
}

_NUMPY_SIZE = 1 << 17
_NUMPY_REPEATS = 4
_PYTHON_ITEMS = 15000
_SQLITE_ROUNDS = 8


def normalise(raw: float, before: float, after: float, nominal: float) -> float:
    """``raw`` seconds at the nominal speed, given the bracketing references."""
    reference = 0.5 * (before + after)
    if reference <= 0.0:
        raise ValueError(f"reference time must be positive, got {reference!r}")
    return raw * nominal / reference


def normalise_series(raw: Sequence[float], refs: Sequence[float], nominal: float) -> List[float]:
    """Normalise ``raw[i]`` by ``refs[i]`` and ``refs[i + 1]`` (one more ref than ops)."""
    if len(refs) != len(raw) + 1:
        raise ValueError(f"need {len(raw) + 1} bracketing references, got {len(refs)}")
    return [normalise(value, refs[i], refs[i + 1], nominal) for i, value in enumerate(raw)]


# --------------------------------------------------------------------- loops
def _numpy_once() -> None:
    rng = np.random.default_rng(12345)
    values = np.linspace(0.0, 1.0, _NUMPY_SIZE)
    accumulator = np.zeros(_NUMPY_SIZE)
    for _ in range(_NUMPY_REPEATS):
        order = rng.permutation(_NUMPY_SIZE)
        gathered = values[order]
        np.add.at(accumulator, order[: _NUMPY_SIZE // 4], gathered[: _NUMPY_SIZE // 4])
        np.minimum(gathered, values, out=gathered)
        values = gathered
    float(accumulator.sum())


class _Cell:
    __slots__ = ("weight", "total")

    def __init__(self, weight: float, total: float):
        self.weight = weight
        self.total = total

    def merge(self, other: "_Cell") -> None:
        self.weight = 0.5 * (self.weight + other.weight)
        self.total = 0.5 * (self.total + other.total)


def _python_once() -> None:
    cells = {index: _Cell(1.0, float(index)) for index in range(512)}
    log: List[tuple] = []
    for step in range(_PYTHON_ITEMS):
        left = cells[(step * 7919) % 512]
        right = cells.get((step * 104729) % 509)
        left.merge(right)
        log.append((step, left.total / left.weight))
    json.dumps(log[-64:])


def _sqlite_once(directory: str) -> None:
    index_path = os.path.join(directory, "reference.db")
    blob_path = os.path.join(directory, "reference.json.gz")
    for step in range(_SQLITE_ROUNDS):
        connection = sqlite3.connect(index_path, timeout=30.0)
        try:
            with connection:
                connection.execute("SELECT hits FROM reference WHERE key = ?", ("k",)).fetchone()
        finally:
            connection.close()
        with gzip.open(blob_path, "rt", encoding="utf-8") as handle:
            json.load(handle)
        connection = sqlite3.connect(index_path, timeout=30.0)
        try:
            with connection:
                connection.execute(
                    "UPDATE reference SET hits = hits + 1, last_used = ? WHERE key = ?",
                    (float(step), "k"),
                )
        finally:
            connection.close()


def prepare_sqlite(directory: str) -> None:
    """Create the sqlite reference's index and blob in ``directory``."""
    os.makedirs(directory, exist_ok=True)
    connection = sqlite3.connect(os.path.join(directory, "reference.db"))
    try:
        with connection:
            connection.execute(
                "CREATE TABLE IF NOT EXISTS reference "
                "(key TEXT PRIMARY KEY, hits INTEGER, last_used REAL)"
            )
            connection.execute("INSERT OR REPLACE INTO reference VALUES ('k', 0, 0.0)")
    finally:
        connection.close()
    payload = {"rounds": [{"round_index": i, "truth": i * 0.5, "n_alive": 200} for i in range(30)]}
    with gzip.open(os.path.join(directory, "reference.json.gz"), "wt", encoding="utf-8") as handle:
        json.dump(payload, handle)


_STARTUP_CODE = (
    "import numpy, json, sqlite3, gzip, hashlib, sys; "
    "sys.stdout.write('ready\\n'); sys.stdout.flush()"
)


def time_child(argv: Sequence[str], env: Dict[str, str]) -> tuple:
    """Seconds from spawning ``argv`` until it prints its first line, and that line.

    The child is always waited for, so no process outlives the call.
    """
    started = time.perf_counter()
    process = subprocess.Popen(
        list(argv), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env
    )
    try:
        line = process.stdout.readline()
        elapsed = time.perf_counter() - started
        _out, err = process.communicate(timeout=120)
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
    if process.returncode != 0 or not line:
        raise RuntimeError(f"{argv[1:]} exited {process.returncode}: {err.strip()[-400:]}")
    return elapsed, line


class Reference:
    """Times one kind of reference loop; ``kind`` is a key of :data:`NOMINAL`."""

    def __init__(self, kind: str, *, directory: str = "", env: Dict[str, str] = None):
        if kind not in NOMINAL:
            raise ValueError(f"unknown reference kind {kind!r}")
        self.kind = kind
        self.nominal = NOMINAL[kind]
        self._directory = directory
        self._env = env if env is not None else dict(os.environ)

    def measure(self) -> float:
        """Seconds for one pass of the loop (best of three for the in-process loops)."""
        if self.kind == "startup":
            seconds, _line = time_child([sys.executable, "-c", _STARTUP_CODE], self._env)
            return seconds
        if self.kind == "numpy":
            body = _numpy_once
        elif self.kind == "python":
            body = _python_once
        else:
            directory = self._directory

            def body() -> None:
                _sqlite_once(directory)

        best = float("inf")
        for _ in range(3):
            started = time.perf_counter()
            body()
            best = min(best, time.perf_counter() - started)
        return best


def interquartile_mean(values: Sequence[float]) -> float:
    """Mean of the middle half of ``values`` (a quarter trimmed from each end).

    Per-operation timings carry occasional outliers in both directions;
    the middle half's mean keeps the median's robustness to them while
    using more of the samples, which halved the run-to-run spread of
    ``scenario_s`` on ``reset-count`` against the plain median.
    """
    ordered = sorted(values)
    cut = len(ordered) // 4
    return float(statistics.fmean(ordered[cut : len(ordered) - cut]))
