"""The benchmark's workloads: inputs made from the seed, one pass, checks.

A *pass* simulates one stream through one freshly built policy with
``simulate_stream``, the program's public entry point.  A *round* is one
pass over each of the workload's streams, in order; a run times whole
rounds.  Every pass is checked against a FIFO replay computed here,
apart from the program, from the stream's arrivals and base times and
the assignments the pass returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.core import POSGConfig, POSGGrouping
from repro.core.config import CoordinationConfig
from repro.core.multisource import GOSSIP_BITS, SNOOP_BITS, MultiSourcePOSGGrouping
from repro.simulator import simulate_stream
from repro.telemetry import AuditConfig, FlightRecorderConfig, TelemetryRecorder
from repro.telemetry.lineage import LineageConfig
from repro.workloads.synthetic import Stream, default_stream

#: downstream operator instances (the paper's k)
K = 5
#: upstream scheduler shards of the ``sharded`` workload
SHARDS = 4


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: which policy runs, on which streams."""

    name: str
    #: distinct streams per round; their mean damps the seed-to-seed
    #: spread of the simulated latency metrics
    streams_per_round: int
    #: item universe ``n`` of the Zipf-1.0 default stream
    universe: int


WORKLOADS = {
    "single": Workload("single", streams_per_round=64, universe=4_096),
    "sharded": Workload("sharded", streams_per_round=64, universe=128),
    "observed": Workload("observed", streams_per_round=64, universe=4_096),
}


def sharded_config(coordinated: bool = True) -> POSGConfig:
    """The sizing of the ``multisource`` experiment (s=4, N=256, 2x16)."""
    return POSGConfig(
        window_size=256,
        rows=2,
        cols=16,
        coordination=CoordinationConfig() if coordinated else None,
    )


@dataclass(frozen=True)
class Input:
    """One stream of a round and the seed of its policy's hash family."""

    stream: Stream
    policy_seed: int


def make_input(workload: Workload, seed: int, index: int) -> Input:
    """Stream ``index`` of the round; the same arguments give the same input."""
    stream_seed, policy_seed = np.random.SeedSequence([seed, index]).generate_state(2)
    stream = default_stream(seed=int(stream_seed), n=workload.universe)
    return Input(stream, int(policy_seed))


def make_inputs(workload: Workload, seed: int) -> list[Input]:
    """Every stream of the round."""
    return [
        make_input(workload, seed, index)
        for index in range(workload.streams_per_round)
    ]


def make_policy(workload: Workload, telemetry=None):
    """A fresh, unbound policy for one pass."""
    if workload.name == "sharded":
        return MultiSourcePOSGGrouping(SHARDS, sharded_config())
    if telemetry is not None:
        return POSGGrouping(POSGConfig.paper_defaults(), telemetry=telemetry)
    return POSGGrouping(POSGConfig.paper_defaults())


def run_pass(workload: Workload, item: Input, profiler=None):
    """Simulate one stream; returns the ``SimulationResult``."""
    rng = np.random.default_rng(item.policy_seed)
    if workload.name == "observed":
        recorder = TelemetryRecorder()
        return simulate_stream(
            item.stream,
            make_policy(workload, telemetry=recorder),
            k=K,
            rng=rng,
            telemetry=recorder,
            audit=AuditConfig(),
            flight=FlightRecorderConfig(),
            lineage=LineageConfig(),
            profiler=profiler,
        )
    return simulate_stream(
        item.stream, make_policy(workload), k=K, rng=rng, profiler=profiler
    )


def control_bits(result) -> int:
    """Control traffic of a pass: engine messages plus billed coordination.

    The engine counts matrices, sync requests and sync replies; gossip
    digests and snooped sync-reply values are billed on the schedulers.
    """
    bits = result.control_bits
    policy = result.policy
    if isinstance(policy, MultiSourcePOSGGrouping):
        stats = policy.stats()
        bits += stats["gossip_billed"] * (policy.sources - 1) * GOSSIP_BITS
        bits += stats["snoop_published"] * SNOOP_BITS
    return bits


def replay_fifo(stream: Stream, assignments: list[int]) -> tuple[list, list]:
    """Start and finish clocks of FIFO non-preemptive service.

    The workloads use zero data-plane latency and uniform instances, so
    a tuple reaches its instance at its arrival time and runs for its
    base time.
    """
    busy = [0.0] * K
    starts = []
    finishes = []
    for arrival, work, instance in zip(
        stream.arrivals.tolist(), stream.base_times.tolist(), assignments
    ):
        ready = busy[instance]
        start = arrival if arrival > ready else ready
        finish = start + work
        busy[instance] = finish
        starts.append(start)
        finishes.append(finish)
    return starts, finishes


class Checked(NamedTuple):
    """What a checked pass contributes to the end-to-end metrics."""

    latency_mean_ms: float
    latency_p99_ms: float
    control_kbits: float
    #: empty when every check held
    errors: tuple[str, ...]


def check_pass(workload: Workload, item: Input, result, reference=None) -> Checked:
    """Check one pass; ``reference`` is the plain ``single`` result on the
    same input, required for ``observed``."""
    stream = item.stream
    errors: list[str] = []
    assignments = np.asarray(result.stats.assignments)
    completions = np.asarray(result.stats.completions)
    kbits = control_bits(result) / 1000.0
    if len(assignments) != stream.m or len(completions) != stream.m:
        return Checked(0.0, 0.0, kbits, ("output length differs from the stream",))
    if assignments.min() < 0 or assignments.max() >= K:
        return Checked(0.0, 0.0, kbits, (f"assignment outside [0, {K})",))
    starts, finishes = replay_fifo(stream, assignments.tolist())
    replayed = np.asarray(finishes) - stream.arrivals
    if not np.array_equal(completions, replayed):
        differ = int(np.count_nonzero(completions != replayed))
        errors.append(f"{differ} completions differ from the FIFO replay")

    if workload.name == "sharded":
        for shard, stats in enumerate(result.policy.stats()["per_source"]):
            if stats["state"] == "round_robin" or stats["sync_rounds_completed"] < 1:
                errors.append(f"shard {shard} never left ROUND_ROBIN")
    if workload.name == "observed":
        if reference is None:
            raise ValueError("observed passes are checked against single's")
        if not np.array_equal(assignments, reference.stats.assignments):
            errors.append("assignments differ from the unobserved run")
        if not np.array_equal(completions, reference.stats.completions):
            errors.append("completions differ from the unobserved run")
        errors.extend(_check_lineage(result.lineage, stream, starts, finishes))

    return Checked(
        float(replayed.mean()),
        float(np.percentile(replayed, 99)),
        kbits,
        tuple(errors),
    )


def _check_lineage(tracer, stream: Stream, starts, finishes) -> list[str]:
    """Every sampled span matches the replay and partitions exactly."""
    spans = tracer.spans()
    expected = list(range(0, stream.m, tracer.sample_every))
    if [span["index"] for span in spans] != expected:
        return [f"lineage sampled {len(spans)} spans, expected {len(expected)}"]
    arrivals = stream.arrivals
    bad = 0
    for span in spans:
        index = span["index"]
        completion = span["completion_ms"]
        delay, wait, service = (
            span["scheduling_delay"], span["queue_wait"], span["service_time"]
        )
        if (
            span["arrival_ms"] != arrivals[index]
            or span["start_ms"] != starts[index]
            or span["finish_ms"] != finishes[index]
            or delay + wait + service != completion
        ):
            bad += 1
    return [f"{bad} lineage spans disagree with the replay"] if bad else []
