"""The traced run: per-layer metrics for one workload.

It repeats the timed run's scenarios with two sources of spans, both
feeding one in-memory :class:`repro.obs.TraceRecorder`:

* timers this file wraps around the program's public entry points
  (kernel ``step``/``estimates``/subset primitives, topology
  ``sample_matching``, ``ResultStore.get``/``put``, ``ScenarioSpec.key``),
  installed for a traced scenario and removed after it;
* the program's own spans, reached through the ``probe=`` arguments of
  ``run_scenario``, ``SweepRunner`` and ``ResultStore`` (``resolve``,
  ``execute``, ``sampling``, ``scatter``, ``ageing``, ``csr_rebuild``,
  ``drain``, ``ticks``, the agent round phases, ``blob_read``...).

Untraced scenarios alternate with traced ones, so the tracing overhead is
measured in the same run.  Layer metrics that a workload never exercises
read 0.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Sequence, Tuple

import numpy as np

#: Spans that give structure but name no layer of their own.
STRUCTURAL = {"execute", "build", "round", "drain", "ticks", "store_get", "store_put"}
#: The program's own phase spans (what ``repro.obs`` attributes today).
PROGRAM_PHASES = {
    "sampling", "matching", "scatter", "ageing", "csr_rebuild", "component_labelling",
    "blob_read", "blob_write", "events", "begin_round", "push", "exchange", "finalize", "record",
}
#: Outermost spans that count as time inside a timed layer call (the run
#: loop is the rest of ``execute``).
LAYER_CALLS = {
    "vectorized.step", "vectorized.estimates", "vectorized.subset", "sparse.matching",
    "store.get", "store.put", "api.spec_key",
    "sampling", "matching", "scatter", "ageing", "csr_rebuild", "component_labelling",
}


@dataclass
class Node:
    name: str
    seconds: float
    children: List["Node"] = field(default_factory=list)

    @property
    def self_seconds(self) -> float:
        return self.seconds - sum(child.seconds for child in self.children)


def span_tree(records: Sequence[dict]) -> List[Node]:
    """Rebuild the span forest from finish-ordered records with depths.

    Children finish before their parent, so when a span at depth ``d``
    finishes, the depth ``d + 1`` spans collected since its previous
    sibling are exactly its children.
    """
    pending: Dict[int, List[Node]] = defaultdict(list)
    for record in records:
        if record["kind"] != "span":
            continue
        depth = record["depth"]
        node = Node(record["name"], record["seconds"], pending.pop(depth + 1, []))
        pending[depth].append(node)
    return pending.get(0, [])


def walk(nodes: Sequence[Node], ancestors: Tuple[str, ...] = ()) -> Iterator[Tuple[Node, Tuple[str, ...]]]:
    for node in nodes:
        yield node, ancestors
        yield from walk(node.children, ancestors + (node.name,))


def outermost(nodes: Sequence[Node], names: set, blocking: set = frozenset()) -> float:
    """Seconds in spans named in ``names`` with no ancestor in ``names | blocking``."""
    stop = set(names) | set(blocking)
    return sum(
        node.seconds
        for node, ancestors in walk(nodes)
        if node.name in names and not stop.intersection(ancestors)
    )


def self_total(nodes: Sequence[Node], name: str) -> float:
    return sum(node.self_seconds for node, _ in walk(nodes) if node.name == name)


def spans(nodes: Sequence[Node], name: str) -> List[float]:
    return [node.seconds for node, _ in walk(nodes) if node.name == name]


def subtree(nodes: Sequence[Node], name: str) -> List[Node]:
    return [node for node, _ in walk(nodes) if node.name == name]


def mean(values: Sequence[float]) -> float:
    return float(statistics.fmean(values)) if values else 0.0


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


# ------------------------------------------------------------ instrumentation
class Tracer:
    """The recorder of one traced operation plus the counts the wrappers keep."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        from repro.obs import TraceRecorder

        self.recorder = TraceRecorder()
        self.kernels: list = []
        self.matchings: List[Tuple[int, int]] = []
        self.ticks = 0
        #: How many calls of each wrapped span are open right now.
        self.active: Dict[str, int] = defaultdict(int)

    def tree(self) -> List[Node]:
        return span_tree(self.recorder.records)


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Wrap the public entry points in spans on ``tracer``'s recorder."""
    from repro.api import ScenarioSpec
    from repro.simulator.sparse import CSRTopology
    from repro.simulator.vectorized import VectorizedCountSketchReset, VectorizedPushSumRevert
    from repro.store import ResultStore

    installed = []

    def wrap(cls, name, span, after=None):
        original = getattr(cls, name)
        owned = name in cls.__dict__

        def wrapper(self, *args, **kwargs):
            tracer.active[span] += 1
            try:
                with tracer.recorder.span(span):
                    outcome = original(self, *args, **kwargs)
                if after is not None:
                    after(self, args, outcome)
            finally:
                tracer.active[span] -= 1
            return outcome

        setattr(cls, name, wrapper)
        installed.append((cls, name, original, owned))

    def built(kernel, _args, _outcome):
        tracer.kernels.append(kernel)

    def ticked(_kernel, args, _outcome):
        # A tick batch is an outermost step_subset, or an outermost
        # revert_subset (the latency path of the calendar reverts each
        # bucket's ticking hosts itself).
        if tracer.active["vectorized.subset"] == 1 and not tracer.active["vectorized.step"]:
            tracer.ticks += len(args[0])

    def matched(_topology, args, outcome):
        tracer.matchings.append((2 * len(outcome[0]), len(args[0])))

    for kernel_class in (VectorizedPushSumRevert, VectorizedCountSketchReset):
        wrap(kernel_class, "__init__", "vectorized.kernel_build", built)
        wrap(kernel_class, "step", "vectorized.step")
        wrap(kernel_class, "estimates", "vectorized.estimates")
    wrap(VectorizedPushSumRevert, "step_subset", "vectorized.subset", ticked)
    wrap(VectorizedPushSumRevert, "revert_subset", "vectorized.subset", ticked)
    for name in ("emit_push", "apply_deliveries", "merge_pairs"):
        wrap(VectorizedPushSumRevert, name, "vectorized.subset")
    wrap(CSRTopology, "sample_matching", "sparse.matching", matched)
    wrap(ResultStore, "get", "store.get")
    wrap(ResultStore, "put", "store.put")
    wrap(ScenarioSpec, "key", "api.spec_key")
    try:
        yield tracer
    finally:
        for cls, name, original, owned in reversed(installed):
            if owned:
                setattr(cls, name, original)
            else:
                delattr(cls, name)


def kernel_mib(kernel) -> float:
    """Bytes of the kernel's NumPy arrays, from their sizes."""
    return sum(
        value.nbytes for value in vars(kernel).values() if isinstance(value, np.ndarray)
    ) / 2**20


def scenario_layers(tracer: Tracer, spec, result, wall: float) -> Dict[str, float]:
    """Per-layer figures of one traced scenario (0 where a layer did no work)."""
    roots = tracer.tree()
    rounds = max(len(result.rounds), 1)
    execute = subtree(roots, "execute")
    execute_s = sum(node.seconds for node in execute)
    agent = result.metadata.get("backend") == "agent"
    events = spec.engine == "events"
    subset_s = outermost(roots, {"vectorized.subset"}, {"vectorized.step"})
    layer_calls = LAYER_CALLS | ({"round"} if agent else set())
    matched = sum(pair[0] for pair in tracer.matchings)
    live = sum(pair[1] for pair in tracer.matchings)
    figures = {
        "api.resolve_plan_s": mean(spans(roots, "resolve")),
        "api.run_loop_s": execute_s - outermost(execute, layer_calls),
        "sparse.matching_s": outermost(roots, {"sparse.matching"}) / rounds,
        "sparse.csr_rebuild_s": outermost(roots, {"csr_rebuild"}),
        "sparse.matched_fraction": matched / live if live else 0.0,
        "vectorized.step_s": outermost(roots, {"vectorized.step"}) / rounds,
        "vectorized.sampling_s": self_total(roots, "sampling") / rounds,
        "vectorized.scatter_s": self_total(roots, "scatter") / rounds,
        "vectorized.ageing_s": self_total(roots, "ageing") / rounds,
        "vectorized.estimates_s": mean(spans(roots, "vectorized.estimates")),
        "vectorized.subset_s": subset_s,
        "vectorized.state_mib": kernel_mib(tracer.kernels[-1]) if tracer.kernels else 0.0,
        "events.calendar_s": execute_s - subset_s if events else 0.0,
        "events.buckets": float(len(spans(roots, "drain"))),
        "events.ticks": float(tracer.ticks) if events else 0.0,
        "engine.round_s": sum(spans(execute, "round")) / rounds if agent else 0.0,
        "engine.push_s": sum(spans(roots, "push")) / rounds,
        "engine.record_s": sum(spans(roots, "record")) / rounds,
        "engine.messages": float(
            sum(record.messages_delivered + record.messages_lost for record in result.rounds)
        ) if agent else 0.0,
    }
    named = {node.name for node, _ in walk(roots)} - STRUCTURAL | ({"round"} if agent else set())
    figures["_share_layers"] = (outermost(roots, named) + figures["api.run_loop_s"]) / wall
    figures["_share_program"] = outermost(roots, PROGRAM_PHASES) / wall
    return figures


def payload_timings(results: Sequence) -> Tuple[float, float]:
    """Mean seconds to encode a result to the store's JSON and to decode it back."""
    from repro.simulator import SimulationResult

    encode, decode = [], []
    for result in results:
        started = time.perf_counter()
        text = json.dumps(result.to_payload(), separators=(",", ":"))
        encode.append(time.perf_counter() - started)
        started = time.perf_counter()
        SimulationResult.from_payload(json.loads(text))
        decode.append(time.perf_counter() - started)
    return mean(encode), mean(decode)


# ---------------------------------------------------------------- the run
def traced_run(workload_name: str, seed: int, seconds: float, workdir: str) -> dict:
    from reference import Reference
    from repro.api import SweepRunner, run_scenario
    from repro.obs import NULL_PROBE
    from harness import (
        MIN_SCENARIOS,
        MIN_WARM_PASSES,
        SCENARIO_SHARE,
        WARM_CELLS,
        Tally,
        Timed,
        guarded,
        measure_setup,
        open_store,
    )
    from checks import check_warm
    from workloads import WORKLOADS, agent_grid

    workload = WORKLOADS[workload_name]
    setup, phases = measure_setup(workload_name, seed, workdir, 3)
    started = time.perf_counter()
    tally = Tally()
    tracer = Tracer()
    plain = Timed(Reference(workload.reference))
    traced = Timed(Reference(workload.reference))
    per_scenario: List[Dict[str, float]] = []
    cold: List[tuple] = []
    store = open_store(workdir)

    def traced_op(operation):
        tracer.reset()
        with instrument(tracer):
            return traced.run(operation)

    if workload.sweep:
        grid = agent_grid(seed)
        spec, inputs = workload.scenario(seed, 1)
        sweep = guarded(tally, "warm-up", lambda: SweepRunner(store=store).run([spec]))
        if sweep is not None:
            tally.record("warm-up", workload.check(sweep.results[0], inputs))
        for index, (spec, inputs) in enumerate(grid):
            label = f"cell {index}"
            if index % 2:
                def operation():
                    store.probe = tracer.recorder
                    return SweepRunner(store=store, probe=tracer.recorder).run([spec])

                sweep = guarded(tally, label, lambda: traced_op(operation))
            else:
                store.probe = NULL_PROBE
                sweep = guarded(tally, label, lambda: plain.run(lambda: SweepRunner(store=store).run([spec])))
            if sweep is None:
                continue
            tally.record(label, workload.check(sweep.results[0], inputs))
            cold.append((spec, sweep.results[0]))
            if index % 2:
                figures = scenario_layers(tracer, spec, sweep.results[0], traced.raw[-1])
                tree = tracer.tree()
                figures["store.put_s"] = mean(spans(tree, "store.put"))
                per_scenario.append(figures)
        put_seconds = [figures["store.put_s"] for figures in per_scenario]
    else:
        spec, inputs = workload.scenario(seed, 0)
        result = guarded(tally, "warm-up", lambda: run_scenario(spec))
        if result is not None:
            tally.record("warm-up", workload.check(result, inputs))
        index = 1
        while index <= MIN_SCENARIOS or time.perf_counter() < started + SCENARIO_SHARE * seconds:
            spec, inputs = workload.scenario(seed, index)
            label = f"scenario {index}"
            if index % 2:
                result = guarded(
                    tally, label, lambda: traced_op(lambda: run_scenario(spec, probe=tracer.recorder))
                )
                if result is not None:
                    per_scenario.append(scenario_layers(tracer, spec, result, traced.raw[-1]))
            else:
                result = guarded(tally, label, lambda: plain.run(lambda: run_scenario(spec)))
            index += 1
            if result is None:
                continue
            tally.record(label, workload.check(result, inputs))
            if len(cold) < WARM_CELLS:
                cold.append((spec, result))
        tracer.reset()
        store.probe = tracer.recorder
        with instrument(tracer):
            for spec, result in cold:
                store.put(spec, result)
        put_seconds = spans(tracer.tree(), "store.put")
    plain.close()
    traced.close()

    # Warm passes, all traced: store reads, key hashing, sweep bookkeeping.
    specs = [spec for spec, _ in cold]
    colds = [result for _, result in cold]
    warm_gets, warm_keys, overheads = [], [], []
    while len(overheads) < MIN_WARM_PASSES or time.perf_counter() < started + seconds:
        tracer.reset()
        store.probe = tracer.recorder
        with instrument(tracer):
            began = time.perf_counter()
            sweep = SweepRunner(store=store, probe=tracer.recorder).run(specs)
            wall = time.perf_counter() - began
        for cell, problems in enumerate(check_warm(colds, sweep)):
            tally.record(f"warm cell {cell}", problems)
        tree = tracer.tree()
        warm_gets.extend(spans(tree, "store.get"))
        warm_keys.extend(spans(tree, "api.spec_key"))
        overheads.append(wall - outermost(tree, {"store.get"}))
    store.probe = NULL_PROBE
    stats = store.stats()
    encode_s, decode_s = payload_timings(colds)

    def phase(name: str) -> float:
        return median([entry.get(name, 0.0) for entry in phases])

    def layer(name: str) -> float:
        return median([figures[name] for figures in per_scenario])

    untraced_s = plain.summary()["value"]
    traced_s = traced.summary()["value"]
    values = {
        "api.import_s": phase("import_s"),
        "api.resolve_plan_s": layer("api.resolve_plan_s"),
        "api.run_loop_s": layer("api.run_loop_s"),
        "api.spec_key_s": median(warm_keys),
        "api.sweep_overhead_s": median(overheads),
        "sparse.topology_build_s": phase("topology_build_s"),
        "sparse.matching_s": layer("sparse.matching_s"),
        "sparse.csr_rebuild_s": layer("sparse.csr_rebuild_s"),
        "sparse.matched_fraction": layer("sparse.matched_fraction"),
        "vectorized.kernel_build_s": phase("kernel_build_s"),
        "vectorized.step_s": layer("vectorized.step_s"),
        "vectorized.sampling_s": layer("vectorized.sampling_s"),
        "vectorized.scatter_s": layer("vectorized.scatter_s"),
        "vectorized.ageing_s": layer("vectorized.ageing_s"),
        "vectorized.estimates_s": layer("vectorized.estimates_s"),
        "vectorized.subset_s": layer("vectorized.subset_s"),
        "vectorized.state_mib": layer("vectorized.state_mib"),
        "events.calendar_s": layer("events.calendar_s"),
        "events.buckets": layer("events.buckets"),
        "events.ticks": layer("events.ticks"),
        "engine.round_s": layer("engine.round_s"),
        "engine.push_s": layer("engine.push_s"),
        "engine.record_s": layer("engine.record_s"),
        "engine.messages": layer("engine.messages"),
        "store.put_s": median(put_seconds),
        "store.get_s": median(warm_gets),
        "store.encode_s": encode_s,
        "store.decode_s": decode_s,
        "store.blob_kib": stats["total_bytes"] / max(stats["entries"], 1) / 1024.0,
        "obs.trace_overhead": traced_s / untraced_s,
    }
    units = {"sparse.matched_fraction": "ratio", "vectorized.state_mib": "MiB", "events.buckets": "count",
             "events.ticks": "count", "engine.messages": "count", "store.blob_kib": "KiB",
             "obs.trace_overhead": "ratio"}

    print(f"workload {workload_name}, seed {seed}, traced run of {seconds:g} s")
    print(f"setup (traced run, 3 starts): {setup.summary()['value']:.6g} s normalised")
    print(
        f"obs.trace_overhead: {values['obs.trace_overhead']:.4f} = traced scenario_s "
        f"{traced_s:.6g} s ({len(traced.raw)} scenarios) / untraced {untraced_s:.6g} s "
        f"({len(plain.raw)} scenarios), both normalised"
    )
    share_layers = layer("_share_layers")
    share_program = layer("_share_program")
    print(
        f"share of traced scenario time in the named layers: {share_layers:.1%} "
        f"(the program's own obs phase spans alone: {share_program:.1%})"
    )
    for name, value in values.items():
        unit = units.get(name, "s")
        note = "" if value else "   (layer not exercised by this workload)"
        print(f"{name}: {value:.6g} {unit}{note}")
    for problem in tally.problems:
        print(f"FAILED {problem}")
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units.get(name, "s")} for name, value in values.items()},
    }
