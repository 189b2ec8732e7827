"""Tests of the benchmark's own logic: output checks, normalisation, span trees.

Run from the repository root::

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import copy
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from checks import (  # noqa: E402
    check_average,
    check_count,
    check_delivery,
    check_warm,
    results_equal,
    survivors,
)
from layers import outermost, span_tree  # noqa: E402
from reference import interquartile_mean, normalise, normalise_series  # noqa: E402
from repro.api import SweepResult, run_scenario  # noqa: E402
from repro.simulator import SimulationResult  # noqa: E402
from repro.simulator.result import RoundRecord  # noqa: E402
from workloads import WORKLOADS, agent_grid, derive_seeds, inputs_of  # noqa: E402


# ------------------------------------------------------------- normalisation
def test_normalise_scales_by_the_mean_bracketing_reference():
    assert normalise(2.0, 0.1, 0.3, 0.2) == pytest.approx(2.0)
    assert normalise(1.0, 0.05, 0.05, 0.1) == pytest.approx(2.0)
    assert normalise(0.6, 0.04, 0.02, 0.015) == pytest.approx(0.3)


def test_normalise_series_pairs_each_operation_with_its_neighbours():
    raw = [1.0, 1.0, 3.0]
    refs = [0.1, 0.3, 0.1, 0.2]
    assert normalise_series(raw, refs, 0.2) == pytest.approx([1.0, 1.0, 4.0])
    with pytest.raises(ValueError):
        normalise_series(raw, refs[:-1], 0.2)
    with pytest.raises(ValueError):
        normalise(1.0, 0.0, 0.0, 0.2)


def test_interquartile_mean_drops_a_quarter_from_each_end():
    assert interquartile_mean([1.0, 2.0, 3.0, 100.0]) == pytest.approx(2.5)
    assert interquartile_mean([5.0, 1.0, 9.0, 2.0, 3.0, 4.0, 0.0, 6.0]) == pytest.approx(3.5)
    assert interquartile_mean([2.0, 4.0, 9.0]) == pytest.approx(5.0)


# ----------------------------------------------------------- synthetic runs
def average_result(values, *, rounds=10, departure=5, tail_error=1.0):
    """A result that obeys every push-sum property for ``values``."""
    values = np.asarray(values, dtype=float)
    live = survivors(values.size)
    result = SimulationResult(protocol_name="push-sum-revert", aggregate="average", seed=0)
    for t in range(rounds):
        after = t >= departure
        truth = float(np.mean(np.sort(values)[:live])) if after else float(np.mean(values))
        error = 10.0 if t == departure else tail_error if t >= rounds - 3 else 5.0
        result.append(RoundRecord(t, truth, live if after else values.size, truth, error, error, error))
    return result


def count_result(n_hosts, *, rounds=10, departure=4, estimate=None):
    live = survivors(n_hosts)
    estimate = float(live) if estimate is None else estimate
    result = SimulationResult(protocol_name="count-sketch-reset", aggregate="count", seed=0)
    for t in range(rounds):
        alive = live if t >= departure else n_hosts
        mean = estimate if t >= departure else float(n_hosts)
        result.append(RoundRecord(t, float(alive), alive, mean, 1.0, 1.0, 1.0))
    return result


VALUES = np.random.default_rng(0).uniform(0.0, 100.0, 40)


def test_check_average_passes_a_correct_result():
    assert check_average(average_result(VALUES), VALUES, rounds=10, departure=5, contraction=0.75) == []


@pytest.mark.parametrize("alteration", ["shift_truth", "drop_round", "wrong_alive", "no_contraction"])
def test_check_average_fails_an_altered_result(alteration):
    result = average_result(VALUES, tail_error=9.0 if alteration == "no_contraction" else 1.0)
    if alteration == "shift_truth":
        result.rounds[7].truth += 1e-3
    elif alteration == "drop_round":
        del result.rounds[3]
    elif alteration == "wrong_alive":
        result.rounds[6].n_alive += 1
    assert check_average(result, VALUES, rounds=10, departure=5, contraction=0.75)


def test_check_count_passes_and_fails():
    kwargs = dict(rounds=10, departure=4, bins=64, window=3)
    assert check_count(count_result(2500), 2500, **kwargs) == []
    assert check_count(count_result(2500, estimate=1300.0), 2500, **kwargs) == []
    # Nearer the pre-departure count than the live one.
    assert check_count(count_result(2500, estimate=1950.0), 2500, **kwargs)
    # Outside the band of the live count.
    assert check_count(count_result(2500, estimate=700.0), 2500, **kwargs)
    shifted = count_result(2500)
    shifted.rounds[2].truth = 2499.0
    assert check_count(shifted, 2500, **kwargs)
    dropped = count_result(2500)
    dropped.rounds.pop()
    assert check_count(dropped, 2500, **kwargs)


def test_check_delivery_passes_and_fails():
    result = count_result(100, rounds=60)
    for record in result.rounds:
        record.messages_lost = record.n_alive // 10
        record.messages_delivered = record.n_alive - record.messages_lost
    assert check_delivery(result, loss=0.1) == []
    result.rounds[3].messages_delivered -= 1
    assert check_delivery(result, loss=0.1)
    for record in result.rounds:
        record.messages_lost = record.n_alive // 2
        record.messages_delivered = record.n_alive - record.messages_lost
    assert check_delivery(result, loss=0.1)


def test_check_warm_passes_and_fails():
    cold = [average_result(VALUES), count_result(300)]
    warm = SweepResult(axis_names=["scenario"], results=copy.deepcopy(cold), cached=[True, True])
    assert check_warm(cold, warm) == [[], []]
    changed = copy.deepcopy(warm)
    changed.results[1].rounds[4].mean_estimate += 1.0
    assert check_warm(cold, changed)[1]
    executed = copy.deepcopy(warm)
    executed.cached[0] = False
    assert check_warm(cold, executed)[0]
    short = SweepResult(axis_names=["scenario"], results=cold[:1], cached=[True])
    assert all(check_warm(cold, short))


def test_results_equal_treats_nan_as_equal():
    left = average_result(VALUES)
    left.rounds[0].stddev_error = float("nan")
    right = copy.deepcopy(left)
    assert results_equal(left, right)
    right.rounds[0].stddev_error = 0.0
    assert not results_equal(left, right)


# --------------------------------------------------------- the real program
def test_agent_cell_passes_its_checks_and_fails_altered_copies():
    workload = WORKLOADS["agent-sweep"]
    spec, inputs = agent_grid(3)[0]
    result = run_scenario(spec)
    assert workload.check(result, inputs) == []
    shifted = copy.deepcopy(result)
    shifted.rounds[-1].truth += 0.5
    assert workload.check(shifted, inputs)
    dropped = copy.deepcopy(result)
    dropped.rounds.pop(10)
    assert workload.check(dropped, inputs)
    leaky = copy.deepcopy(result)
    leaky.rounds[2].messages_lost += 1
    assert workload.check(leaky, inputs)


def test_inputs_match_the_program_workload():
    spec, inputs = WORKLOADS["reset-count"].scenario(5, 2)
    np.testing.assert_array_equal(inputs, np.asarray(spec.build_values()))
    spec, inputs = agent_grid(5)[4]
    np.testing.assert_array_equal(inputs, np.asarray(spec.build_values()))
    assert inputs_of(spec).shape == (spec.n_hosts,)


def test_seeds_are_deterministic_and_distinct():
    assert derive_seeds(7, 3) == derive_seeds(7, 3)
    assert derive_seeds(7, 3) != derive_seeds(7, 4)
    assert derive_seeds(7, 3) != derive_seeds(8, 3)


# --------------------------------------------------------------- span trees
def test_span_tree_and_outermost():
    def span(name, seconds, depth):
        return {"kind": "span", "name": name, "seconds": seconds, "depth": depth}

    records = [
        span("b", 1.0, 2), span("a", 3.0, 1), {"kind": "event", "name": "x"},
        span("a", 0.5, 2), span("c", 1.0, 1), span("root", 5.0, 0), span("a", 2.0, 0),
    ]
    roots = span_tree(records)
    assert [node.name for node in roots] == ["root", "a"]
    assert [child.name for child in roots[0].children] == ["a", "c"]
    assert roots[0].self_seconds == pytest.approx(1.0)
    assert outermost(roots, {"a"}) == pytest.approx(5.5)
    assert outermost(roots, {"a"}, {"c"}) == pytest.approx(5.0)
    assert outermost(roots, {"a", "c"}) == pytest.approx(6.0)
