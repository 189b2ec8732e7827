"""The four benchmark workloads: their inputs, specs and output checks.

Every scenario has the same mid-run event: the correlated departure of
the highest-valued half of the hosts (the paper's Fig. 10 case).  Inputs
are drawn by the benchmark from the run seed; the program receives only
the spec, whose ``uniform`` workload draws the same values from the same
seed (``numpy.random.default_rng(seed).uniform(0, 100, n)``), so every
truth below is computed from the benchmark's own copy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

import numpy as np

from repro.api import ScenarioSpec, Sweep

from checks import check_average, check_count, check_delivery

DEPARTURE = {"event": "failure", "model": "correlated", "fraction": 0.5, "highest": True}


def derive_seeds(seed: int, index: int, count: int = 2) -> List[int]:
    """Independent 31-bit seeds for scenario ``index`` of run seed ``seed``."""
    state = np.random.SeedSequence([int(seed), int(index)]).generate_state(count)
    return [int(value) % (2**31) for value in state]


def inputs_of(spec: ScenarioSpec) -> np.ndarray:
    """The host values of ``spec``'s uniform workload, drawn by the benchmark.

    A spec without a workload seed draws its values with the scenario seed.
    """
    seed = spec.workload_params.get("seed", spec.seed)
    return np.random.default_rng(seed).uniform(0.0, 100.0, size=spec.n_hosts)


@dataclass(frozen=True)
class Workload:
    """One workload: a scenario generator plus the check for its output.

    ``reference`` names the reference loop (:mod:`reference`) that
    normalises its scenario time; ``sweep`` marks the agent-engine grid,
    whose scenarios are the cells of one :class:`~repro.api.Sweep`.
    """

    name: str
    reference: str
    build: Callable[[int, int], ScenarioSpec]
    check: Callable[[object, np.ndarray], List[str]]
    sweep: bool = False

    def scenario(self, seed: int, index: int) -> Tuple[ScenarioSpec, np.ndarray]:
        """Spec and the benchmark's copy of the inputs for scenario ``index``."""
        spec_seed, workload_seed = derive_seeds(seed, index)
        spec = self.build(spec_seed, workload_seed)
        return spec, inputs_of(spec)


# ------------------------------------------------------------- grid-average
GRID_HOSTS, GRID_ROUNDS, GRID_DEPARTURE = 100_000, 40, 20


def _grid_spec(spec_seed: int, workload_seed: int) -> ScenarioSpec:
    return ScenarioSpec(
        name="grid-average",
        protocol="push-sum-revert",
        protocol_params={"reversion": 0.1},
        environment="grid",
        n_hosts=GRID_HOSTS,
        rounds=GRID_ROUNDS,
        mode="exchange",
        seed=spec_seed,
        workload_params={"seed": workload_seed},
        events=(dict(DEPARTURE, round=GRID_DEPARTURE),),
        backend="vectorized",
    )


def _grid_check(result, inputs) -> List[str]:
    return check_average(
        result, inputs, rounds=GRID_ROUNDS, departure=GRID_DEPARTURE, contraction=0.75
    )


# -------------------------------------------------------------- reset-count
RESET_HOSTS, RESET_ROUNDS, RESET_DEPARTURE = 1000, 24, 8
RESET_BINS, RESET_BITS, RESET_WINDOW = 64, 18, 5


def _reset_spec(spec_seed: int, workload_seed: int) -> ScenarioSpec:
    return ScenarioSpec(
        name="reset-count",
        protocol="count-sketch-reset",
        protocol_params={"bins": RESET_BINS, "bits": RESET_BITS},
        n_hosts=RESET_HOSTS,
        rounds=RESET_ROUNDS,
        mode="exchange",
        seed=spec_seed,
        workload_params={"seed": workload_seed},
        events=(dict(DEPARTURE, round=RESET_DEPARTURE),),
        backend="vectorized",
    )


def _reset_check(result, inputs) -> List[str]:
    return check_count(
        result,
        RESET_HOSTS,
        rounds=RESET_ROUNDS,
        departure=RESET_DEPARTURE,
        bins=RESET_BINS,
        window=RESET_WINDOW,
    )


# ------------------------------------------------------------- async-events
ASYNC_HOSTS, ASYNC_SAMPLES, ASYNC_DEPARTURE = 50_000, 30, 15


def _async_spec(spec_seed: int, workload_seed: int) -> ScenarioSpec:
    return ScenarioSpec(
        name="async-events",
        protocol="push-sum-revert",
        protocol_params={"reversion": 0.1},
        n_hosts=ASYNC_HOSTS,
        rounds=ASYNC_SAMPLES,
        mode="exchange",
        seed=spec_seed,
        workload_params={"seed": workload_seed},
        network="latency",
        network_params={"distribution": "uniform", "low": 0, "high": 2},
        engine="events",
        engine_params={
            "rates": {"distribution": "heterogeneous", "fast": 2.0, "slow": 0.25, "fast_fraction": 0.5},
            "synchronized": False,
        },
        events=(dict(DEPARTURE, round=ASYNC_DEPARTURE),),
        backend="vectorized",
    )


def _async_check(result, inputs) -> List[str]:
    return check_average(
        result, inputs, rounds=ASYNC_SAMPLES, departure=ASYNC_DEPARTURE, contraction=0.75
    )


# -------------------------------------------------------------- agent-sweep
AGENT_HOSTS, AGENT_ROUNDS, AGENT_DEPARTURE, AGENT_LOSS = 200, 30, 15, 0.1
AGENT_SEEDS, AGENT_REVERSIONS = 12, (0.05, 0.1, 0.2)


def _agent_spec(spec_seed: int, workload_seed: int, reversion: float = 0.1) -> ScenarioSpec:
    # No workload seed: the values are drawn with the scenario seed, so a
    # Sweep over "seed" varies the inputs too.
    del workload_seed
    return ScenarioSpec(
        name="agent-sweep",
        protocol="push-sum-revert",
        protocol_params={"reversion": reversion},
        n_hosts=AGENT_HOSTS,
        rounds=AGENT_ROUNDS,
        mode="push",
        seed=spec_seed,
        network="bernoulli-loss",
        network_params={"p": AGENT_LOSS},
        events=(dict(DEPARTURE, round=AGENT_DEPARTURE),),
        backend="agent",
    )


def _agent_check(result, inputs) -> List[str]:
    return check_average(
        result, inputs, rounds=AGENT_ROUNDS, departure=AGENT_DEPARTURE, contraction=0.9
    ) + check_delivery(result, loss=AGENT_LOSS)


def agent_grid(seed: int) -> List[Tuple[ScenarioSpec, np.ndarray]]:
    """The 12-seed x 3-reversion grid of run seed ``seed``, in sweep order."""
    seeds = derive_seeds(seed, 0, AGENT_SEEDS)
    sweep = Sweep.over(
        _agent_spec(seeds[0], 0),
        **{"seed": seeds, "protocol_params.reversion": list(AGENT_REVERSIONS)},
    )
    return [(spec, inputs_of(spec)) for spec in sweep.specs()]


WORKLOADS: Dict[str, Workload] = {
    "grid-average": Workload("grid-average", "numpy", _grid_spec, _grid_check),
    "reset-count": Workload("reset-count", "numpy", _reset_spec, _reset_check),
    "async-events": Workload("async-events", "numpy", _async_spec, _async_check),
    "agent-sweep": Workload("agent-sweep", "python", _agent_spec, _agent_check, sweep=True),
}
