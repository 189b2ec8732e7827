"""Output checks, computed apart from the program.

Each check returns a list of problems (empty when the result is right).
Truths come from the benchmark's own copy of the inputs; the remaining
checks are properties the protocols must have (the error contracts after
a departure, a reset sketch forgets departed hosts, every message is
either delivered or lost, a store hit equals the run that wrote it).
"""

from __future__ import annotations

import dataclasses
import math
from typing import List, Sequence

import numpy as np

#: Relative standard error of a stochastic-averaging FM sketch with m bins
#: is about 0.78 / sqrt(m) (Flajolet–Martin); the count band is a multiple.
FM_ERROR = 0.78
#: Standard errors allowed between the post-departure estimate and the live count.
COUNT_BAND_SE = 5.0
#: Standard deviations allowed between the observed and the configured loss share.
LOSS_BAND_SD = 6.0


def survivors(n_hosts: int) -> int:
    """Hosts left after the correlated departure of the highest-valued half."""
    return n_hosts - round(n_hosts / 2)


def _close(actual: float, expected: float) -> bool:
    return abs(actual - expected) <= 1e-9 * max(1.0, abs(expected))


def _rounds_problems(result, rounds: int) -> List[str]:
    indices = [record.round_index for record in result.rounds]
    if indices != list(range(rounds)):
        return [f"expected rounds 0..{rounds - 1}, got {len(indices)} records {indices[:3]}..."]
    return []


def check_average(
    result, values: Sequence[float], *, rounds: int, departure: int, contraction: float
) -> List[str]:
    """Push-Sum truths, live counts and error contraction around the departure.

    Before ``departure`` the truth is the mean of every input; from it on,
    the mean of the lowest ``n - round(n/2)`` inputs.  The mean error over
    the last three rounds must be below ``contraction`` times the largest
    error of the first three rounds after the departure.
    """
    problems = _rounds_problems(result, rounds)
    if problems:
        return problems
    inputs = np.asarray(values, dtype=float)
    n = inputs.size
    live = survivors(n)
    before = float(np.mean(inputs))
    after = float(np.mean(np.sort(inputs)[:live]))
    for record in result.rounds:
        t = record.round_index
        truth, alive = (before, n) if t < departure else (after, live)
        if not _close(record.truth, truth):
            problems.append(f"round {t}: truth {record.truth!r} != mean of inputs {truth!r}")
        if record.n_alive != alive:
            problems.append(f"round {t}: n_alive {record.n_alive} != {alive}")
    errors = [record.stddev_error for record in result.rounds]
    peak = max(errors[departure : departure + 3])
    tail = float(np.mean(errors[-3:]))
    if not tail < contraction * peak:
        problems.append(
            f"error did not contract: last-3 mean {tail:.4g} vs {contraction} x peak {peak:.4g}"
        )
    return problems


def check_count(
    result, n_hosts: int, *, rounds: int, departure: int, bins: int, window: int
) -> List[str]:
    """Count-Sketch-Reset truths, live counts and the post-cutoff estimate.

    The estimate is the mean of ``mean_estimate`` over the last ``window``
    rounds, which the workload places after every departed identifier's
    counters have passed the cutoff.  It must lie within
    :data:`COUNT_BAND_SE` sketch standard errors of the live count (in log
    space) and be nearer the live count than the pre-departure count.
    """
    problems = _rounds_problems(result, rounds)
    if problems:
        return problems
    live = survivors(n_hosts)
    for record in result.rounds:
        t = record.round_index
        alive = n_hosts if t < departure else live
        if record.truth != float(alive):
            problems.append(f"round {t}: truth {record.truth!r} != {alive}")
        if record.n_alive != alive:
            problems.append(f"round {t}: n_alive {record.n_alive} != {alive}")
    estimate = float(np.mean([record.mean_estimate for record in result.rounds[-window:]]))
    if not estimate > 0.0:
        return problems + [f"post-cutoff estimate {estimate!r} is not positive"]
    band = COUNT_BAND_SE * FM_ERROR / math.sqrt(bins)
    if abs(math.log(estimate / live)) > band:
        problems.append(
            f"post-cutoff estimate {estimate:.1f} outside exp(+-{band:.3f}) of live count {live}"
        )
    if not abs(estimate - live) < abs(estimate - n_hosts):
        problems.append(
            f"post-cutoff estimate {estimate:.1f} is nearer the old count {n_hosts} than {live}"
        )
    return problems


def check_delivery(result, *, loss: float) -> List[str]:
    """Every live host's push is delivered or lost; the loss share is binomial."""
    problems = []
    delivered = lost = 0
    for record in result.rounds:
        if record.messages_delivered + record.messages_lost != record.n_alive:
            problems.append(
                f"round {record.round_index}: delivered {record.messages_delivered} + lost "
                f"{record.messages_lost} != live hosts {record.n_alive}"
            )
        delivered += record.messages_delivered
        lost += record.messages_lost
    sent = delivered + lost
    if sent == 0:
        return problems + ["no messages were sent"]
    share = lost / sent
    sd = math.sqrt(loss * (1.0 - loss) / sent)
    if abs(share - loss) > LOSS_BAND_SD * sd:
        problems.append(f"loss share {share:.4f} outside {loss} +- {LOSS_BAND_SD} x {sd:.4f}")
    return problems


def _same(a, b) -> bool:
    if isinstance(a, float) and isinstance(b, float) and math.isnan(a) and math.isnan(b):
        return True
    return a == b


def results_equal(cold, warm) -> bool:
    """Field-by-field equality of two results (NaN equals NaN)."""
    if (cold.protocol_name, cold.aggregate, cold.seed) != (warm.protocol_name, warm.aggregate, warm.seed):
        return False
    if cold.metadata != warm.metadata or len(cold.rounds) != len(warm.rounds):
        return False
    for left, right in zip(cold.rounds, warm.rounds):
        for field in dataclasses.fields(left):
            if not _same(getattr(left, field.name), getattr(right, field.name)):
                return False
    return True


def check_warm(cold_results: Sequence, sweep_result) -> List[List[str]]:
    """Per warm cell, its problems: it must be a store hit equal to its cold result."""
    if len(sweep_result.results) != len(cold_results):
        problem = f"warm pass returned {len(sweep_result.results)} cells, expected {len(cold_results)}"
        return [[problem] for _ in cold_results]
    problems = []
    for index, (cold, warm, cached) in enumerate(
        zip(cold_results, sweep_result.results, sweep_result.cached)
    ):
        cell = []
        if not cached:
            cell.append(f"warm cell {index} was executed, not served from the store")
        if not results_equal(cold, warm):
            cell.append(f"warm cell {index} differs from its cold result")
        problems.append(cell)
    return problems
