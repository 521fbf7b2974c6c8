#!/usr/bin/env python3
"""End-to-end benchmark of the POSG simulator.

Run from the repository root::

    python3 perfbench/run.py --workload single --seed 1 --seconds 20 --trace 0

``--trace 0`` times whole rounds of untraced passes for ``--seconds`` and
prints the end-to-end metrics; ``--trace 1`` makes one traced run and
prints the per-layer metrics (see ``layers.py``).  Either way the last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  README.md describes the
workloads, the metrics and the reference host.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("single", "sharded", "observed")
#: set-ups per run; ``setup_s`` reports their median
SETUP_REPEATS = 5


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def os_threads() -> int:
    """Threads of this process, native ones included where visible."""
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return threading.active_count()


class QuietGuard:
    """Tells whether only the benchmark's own thread is running.

    The reference kernel must time the host, not the host plus leftover
    threads or worker processes of the program.
    """

    def __init__(self) -> None:
        self._baseline = os_threads()

    def quiet(self) -> bool:
        return (
            threading.active_count() == 1
            and not multiprocessing.active_children()
            and os_threads() <= self._baseline
        )


def timed_run(workload, seed: int, seconds: float, import_s: float) -> dict:
    """Set up, warm up, then time whole rounds for ``seconds``."""
    import cases
    import kernel

    perf = time.perf_counter
    guard = QuietGuard()
    kernel_times: list[float] = []
    quiet: list[bool] = []

    def time_kernel() -> None:
        gc.collect()
        quiet.append(guard.quiet())
        kernel_times.append(kernel.time_kernel())

    references: dict[int, object] = {}

    def check(index: int, item, result):
        reference = None
        if workload.name == "observed":
            if index not in references:
                references[index] = cases.run_pass(cases.WORKLOADS["single"], item)
            reference = references[index]
        return cases.check_pass(workload, item, result, reference)

    attempted = 0
    failed = 0
    errors: list[str] = []

    # host speed right after the imports scales the import time
    for _ in range(3):
        time_kernel()
    reference_s = kernel.KERNEL_REFERENCE_S
    import_scaled = import_s * reference_s / statistics.median(kernel_times)
    setup_scaled = []
    for _ in range(SETUP_REPEATS):
        began = perf()
        inputs = cases.make_inputs(workload, seed)
        warm = cases.run_pass(workload, inputs[0])
        elapsed = perf() - began
        attempted += 1
        outcome = check(0, inputs[0], warm)
        if outcome.errors:
            failed += 1
            errors.extend(outcome.errors)
        del warm
        time_kernel()
        host = (kernel_times[-2] + kernel_times[-1]) / 2.0
        setup_scaled.append(elapsed * reference_s / host)

    m = sum(item.stream.m for item in inputs)
    first_round: list = []
    raw_rates: list[float] = []
    scaled_rates: list[float] = []
    rounds = 0
    deadline = perf() + seconds
    while rounds == 0 or perf() < deadline:
        for index, item in enumerate(inputs):
            before = len(kernel_times) - 1
            began = perf()
            result = cases.run_pass(workload, item)
            elapsed = perf() - began
            outcome = check(index, item, result)
            del result
            time_kernel()
            attempted += 1
            if rounds == 0:
                first_round.append(outcome)
            elif outcome[:3] != first_round[index][:3]:
                outcome = outcome._replace(
                    errors=outcome.errors + ("pass differs from round 1",)
                )
            if outcome.errors or not (quiet[before] and quiet[before + 1]):
                failed += 1
                errors.extend(outcome.errors or ("program thread alive",))
                continue
            # host speed during the pass: mean of the kernels around it
            host = (kernel_times[before] + kernel_times[before + 1]) / 2.0
            raw = item.stream.m / elapsed
            raw_rates.append(raw)
            scaled_rates.append(raw * host / reference_s)
        rounds += 1

    for message in sorted(set(errors)):
        print(f"error: {message}", file=sys.stderr)
    kernel_median = statistics.median(kernel_times)
    passes = len(first_round)
    metrics = {
        "tuples_per_s": (
            statistics.median(scaled_rates) if scaled_rates else 0.0, "1/s"
        ),
        "setup_s": (import_scaled + statistics.median(setup_scaled), "s"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
        ),
        "sim_latency_mean_ms": (
            sum(c.latency_mean_ms for c in first_round) / passes, "ms"
        ),
        "sim_latency_p99_ms": (
            sum(c.latency_p99_ms for c in first_round) / passes, "ms"
        ),
        "control_kbits": (
            sum(c.control_kbits for c in first_round) / passes, "kbit"
        ),
    }
    print(
        f"{workload.name}: {rounds} rounds of {passes} passes "
        f"({m} tuples/round), raw median "
        f"{statistics.median(raw_rates) if raw_rates else 0.0:.0f} t/s, "
        f"kernel median {kernel_median * 1e3:.2f} ms, "
        f"import {import_s:.3f} s, cpu_count {os.cpu_count()}"
    )
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }


def stop_children() -> None:
    """Stop and reap every process this run started.

    Besides the pool's workers, the program's shared-memory arena starts
    the multiprocessing resource tracker, which is no ``active_children``
    entry and would otherwise outlive this process by a moment.
    """
    for child in multiprocessing.active_children():
        child.terminate()
        child.join(timeout=10)
    from multiprocessing import resource_tracker

    # closing its pipe ends the tracker; ``_stop`` then waits for it
    resource_tracker._resource_tracker._stop()


def main(argv=None) -> int:
    try:
        return _main(argv)
    finally:
        stop_children()


def _main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import cases  # imports numpy and the program: part of set-up time

    import_s = time.perf_counter() - _STARTED
    workload = cases.WORKLOADS[args.workload]
    if args.trace:
        import layers

        outcome = layers.traced_run(workload, args.seed)
    else:
        outcome = timed_run(workload, args.seed, args.seconds, import_s)
    print(json.dumps(outcome))
    return 0


if __name__ == "__main__":
    sys.exit(main())
