"""The traced run: per-layer metrics measured from outside the program.

One traced run covers the first ``TRACE_STREAMS`` streams of the round
(the same inputs the timed run starts with) four times over:

1. untraced, for the raw rate, the reference outputs and the counters
   the program already returns (``stats()`` of the policies);
2. under ``cProfile``, for each layer's self time and primitive-call
   count, and the engine-path counts (``begin_block`` and ``submit``
   calls);
3. with the program's own ``PhaseProfiler`` passed in through
   ``profiler=``, for the engine's phase spans;
4. ``sharded`` only: the process-pool reference leg, timing
   ``simulate_stream_parallel`` against the sequential engine.

Every traced pass must reproduce the untraced outputs bit for bit.
Layers are the program's modules (see ``LAYERS``); a builtin such as
``list.append`` is charged to the layer of the Python function that
called it, and numpy's functions and methods to ``numpy``.
"""

from __future__ import annotations

import cProfile
import multiprocessing
import os
import pstats
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import cases
from repro.core.multisource import MultiSourcePOSGGrouping
from repro.simulator import simulate_stream, simulate_stream_parallel
from repro.telemetry import PhaseProfiler

#: streams of the round the traced run covers
TRACE_STREAMS = 8
#: timed repeats of each process-pool leg
POOL_REPEATS = 3

#: layer name -> module paths under ``src/repro`` (a trailing ``/`` is a
#: whole package)
LAYERS = {
    "sketches": ("sketches/",),
    "core.scheduler": ("core/scheduler.py",),
    "core.matrices": ("core/matrices.py",),
    "core.instance": ("core/instance.py",),
    "core.multisource": ("core/multisource.py",),
    "core.grouping": ("core/grouping.py",),
    "simulator.run": ("simulator/run.py",),
    "simulator.parallel": ("simulator/parallel.py", "simulator/supervisor.py"),
    "telemetry": ("telemetry/",),
    "workloads": ("workloads/",),
}
#: layers whose self time is reported as ``<layer>.self_s``
SELF_LAYERS = (
    "sketches", "core.scheduler", "core.matrices", "core.instance",
    "core.multisource", "core.grouping", "simulator.run", "telemetry", "numpy",
)
#: layers whose primitive calls per tuple are reported
CALL_LAYERS = (
    "sketches", "core.scheduler", "core.matrices", "core.multisource",
    "simulator.run", "telemetry",
)
#: metrics of the process-pool leg; they read 0 where the leg does not run
POOL_METRICS = (
    "simulator.parallel.coordinated_tuples_per_s",
    "simulator.parallel.plain_w1_tuples_per_s",
    "simulator.parallel.plain_w2_tuples_per_s",
    "simulator.run.plain_tuples_per_s",
    "simulator.parallel.merge_stall_s",
    "simulator.parallel.shard_busy_s",
    "simulator.parallel.segments",
    "simulator.parallel.fallback_tuples",
    "simulator.parallel.discarded_tuples",
)
#: PhaseProfiler span names reported as ``span.<name>_s``
SPANS = ("hash", "estimate", "route", "fold", "window_close", "control")


#: the program's package directory, as cProfile spells file names
_PACKAGE = (Path(cases.__file__).resolve().parent.parent / "src" / "repro").as_posix() + "/"


def _layer_of(key) -> str | None:
    """Layer of a cProfile entry; ``None`` for a builtin outside numpy."""
    filename, _, name = key
    path = filename.replace(os.sep, "/")
    if path == "~":
        return "numpy" if "numpy" in name else None
    if "/numpy/" in path:
        return "numpy"
    if not path.startswith(_PACKAGE):
        return "python.other"
    module = path[len(_PACKAGE):]
    for layer, prefixes in LAYERS.items():
        for prefix in prefixes:
            if module.startswith(prefix) if prefix.endswith("/") else module == prefix:
                return layer
    return "repro.other"


def _profile_layers(profile: cProfile.Profile) -> dict:
    """Self seconds and primitive calls per layer, and calls per function.

    ``functions`` maps ``(layer, function name)`` to primitive calls.
    """
    entries = pstats.Stats(profile).stats
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    functions: dict[tuple[str, str], int] = {}
    total_calls = 0
    for key, (primitive, _, own, _, callers) in entries.items():
        total_calls += primitive
        layer = _layer_of(key)
        if layer is not None:
            self_s[layer] = self_s.get(layer, 0.0) + own
            calls[layer] = calls.get(layer, 0) + primitive
            functions[(layer, key[2])] = functions.get((layer, key[2]), 0) + primitive
            continue
        # a builtin: charge each caller's share to the caller's layer
        for caller, (_, _, share, _) in callers.items():
            owner = _layer_of(caller) or "python.other"
            self_s[owner] = self_s.get(owner, 0.0) + share
    return {
        "self_s": self_s,
        "calls": calls,
        "total_calls": total_calls,
        "functions": functions,
    }


def _same_outputs(a, b) -> bool:
    return (
        np.array_equal(a.stats.completions, b.stats.completions)
        and np.array_equal(a.stats.assignments, b.stats.assignments)
        and a.control_messages == b.control_messages
        and a.control_bits == b.control_bits
        and a.state_transitions == b.state_transitions
    )


def _counters(results) -> dict[str, int]:
    """Counters the program returns, summed over the untraced passes."""
    sync_rounds = window_closes = gossip = retained = 0
    for result in results:
        policy = result.policy
        stats = policy.stats() if isinstance(policy, MultiSourcePOSGGrouping) else policy.scheduler.stats()
        sync_rounds += stats["sync_rounds_completed"]
        gossip += stats.get("gossip_updates", 0)
        window = policy.config.window_size
        for instance in range(cases.K):
            window_closes += policy.tracker(instance).stats()["tuples_executed"] // window
        if result.lineage is not None:
            retained += len(result.lineage.records())
        if result.flight is not None:
            retained += sum(len(timeline) for timeline in result.flight.timelines())
        if result.audit is not None:
            retained += result.audit.samples
        if policy.telemetry.enabled:
            retained += len(policy.telemetry.tracer.events())
    return {
        "core.scheduler.sync_rounds": sync_rounds,
        "core.instance.window_closes": window_closes,
        "core.multisource.gossip_updates": gossip,
        "telemetry.retained_samples": retained,
    }


def _timed(call):
    began = time.perf_counter()
    result = call()
    return result, time.perf_counter() - began


def _pool_leg(item: cases.Input) -> tuple[dict, list[str]]:
    """Time the process pool against the sequential engine on one stream.

    Each leg runs ``POOL_REPEATS`` times and reports its median rate;
    every repeat must reproduce the sequential outputs.  The pool's own
    accounting comes from the plain two-worker leg: with coordination on,
    every segment routes in the parent, so the coordinated leg's workers
    stay idle.
    """
    stream = item.stream
    workers = min(2, len(os.sched_getaffinity(0)))
    errors = []

    def leg(coordinated: bool, pool_workers: int | None, want=None):
        rates = []
        for _ in range(POOL_REPEATS):
            policy = MultiSourcePOSGGrouping(
                cases.SHARDS, cases.sharded_config(coordinated)
            )
            rng = np.random.default_rng(item.policy_seed)
            if pool_workers is None:
                result, elapsed = _timed(
                    lambda: simulate_stream(stream, policy, k=cases.K, rng=rng)
                )
            else:
                result, elapsed = _timed(
                    lambda: simulate_stream_parallel(
                        stream, policy, workers=pool_workers, k=cases.K, rng=rng
                    )
                )
            rates.append(stream.m / elapsed)
            if want is not None and not _same_outputs(result, want):
                errors.append(
                    f"process pool (coordinated={coordinated}, "
                    f"workers={pool_workers}) differs from the sequential engine"
                )
        return result, statistics.median(rates)

    coordinated, _ = leg(True, None)
    _, coordinated_rate = leg(True, workers, coordinated)
    plain, plain_rate = leg(False, None)
    _, w1_rate = leg(False, 1, plain)
    plain_w2, w2_rate = leg(False, workers, plain)
    for child in multiprocessing.active_children():
        child.join(timeout=30)
    if multiprocessing.active_children():
        errors.append("process-pool workers still alive after the run")
    info = plain_w2.parallel
    return {
        "simulator.parallel.coordinated_tuples_per_s": coordinated_rate,
        "simulator.parallel.plain_w1_tuples_per_s": w1_rate,
        "simulator.parallel.plain_w2_tuples_per_s": w2_rate,
        "simulator.run.plain_tuples_per_s": plain_rate,
        "simulator.parallel.merge_stall_s": float(info["merge_stall_seconds"]),
        "simulator.parallel.shard_busy_s": float(sum(info["shard_busy_seconds"])),
        "simulator.parallel.segments": info["segments"],
        "simulator.parallel.fallback_tuples": info["fallback_tuples"],
        "simulator.parallel.discarded_tuples": info["discarded_speculative_tuples"],
    }, errors


def _unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("calls_per_tuple"):
        return "calls/tuple"
    if name.endswith("_s"):
        return "s"
    if name.endswith("ratio"):
        return "ratio"
    return "count"


def traced_run(workload: cases.Workload, seed: int) -> dict:
    """Run the four legs and return the result object to print.

    Each pass of each leg is one operation; the pool leg is one more.
    """
    errors: list[str] = []
    failed = 0
    generate_s = []
    inputs = []
    for index in range(TRACE_STREAMS):
        item, elapsed = _timed(lambda: cases.make_input(workload, seed, index))
        inputs.append(item)
        generate_s.append(elapsed)
    tuples = sum(item.stream.m for item in inputs)

    # warm-up, then the untraced leg
    cases.run_pass(workload, inputs[0])
    plain = []
    plain_s = 0.0
    for item in inputs:
        result, elapsed = _timed(lambda: cases.run_pass(workload, item))
        plain_s += elapsed
        plain.append(result)
        reference = None
        if workload.name == "observed":
            reference = cases.run_pass(cases.WORKLOADS["single"], item)
        outcome = cases.check_pass(workload, item, result, reference)
        errors.extend(outcome.errors)
        failed += bool(outcome.errors)

    profile = cProfile.Profile()
    profiled_s = 0.0
    for item, untraced in zip(inputs, plain):
        began = time.perf_counter()
        profile.enable()
        result = cases.run_pass(workload, item)
        profile.disable()
        profiled_s += time.perf_counter() - began
        if not _same_outputs(result, untraced):
            errors.append("profiled pass differs from the untraced pass")
            failed += 1

    phases = PhaseProfiler()
    for item, untraced in zip(inputs, plain):
        if not _same_outputs(cases.run_pass(workload, item, profiler=phases), untraced):
            errors.append("phase-profiled pass differs from the untraced pass")
            failed += 1
    span_self: dict[str, float] = {}
    for span in phases.report()["spans"]:
        span_self[span["name"]] = span_self.get(span["name"], 0) + span["self_ns"] / 1e9

    layers = _profile_layers(profile)
    functions = layers["functions"]
    metrics: dict[str, float] = {}
    for layer in SELF_LAYERS:
        metrics[f"{layer}.self_s"] = layers["self_s"].get(layer, 0.0)
    for layer in CALL_LAYERS:
        metrics[f"{layer}.calls_per_tuple"] = layers["calls"].get(layer, 0) / tuples
    metrics["python.calls_per_tuple"] = layers["total_calls"] / tuples
    metrics["core.scheduler.block_segments"] = functions.get(
        ("core.scheduler", "begin_block"), 0
    )
    metrics["core.scheduler.per_tuple_routes"] = functions.get(
        ("core.scheduler", "submit"), 0
    )
    metrics.update(_counters(plain))
    for name in SPANS:
        metrics[f"span.{name}_s"] = span_self.get(name, 0.0)
    metrics["simulator.raw_tuples_per_s"] = tuples / plain_s
    metrics["trace.overhead_ratio"] = profiled_s / plain_s
    metrics["workloads.generate_s"] = statistics.median(generate_s)

    if workload.name == "sharded":
        pool, pool_errors = _pool_leg(inputs[0])
        errors.extend(pool_errors)
        failed += bool(pool_errors)
    else:
        pool = dict.fromkeys(POOL_METRICS, 0)
    metrics.update(pool)

    attempted = 3 * len(inputs) + (1 if workload.name == "sharded" else 0)
    for message in errors:
        print(f"error: {message}", file=sys.stderr)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": _unit(name)}
            for name, value in sorted(metrics.items())
        },
    }
