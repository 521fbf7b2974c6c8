#!/usr/bin/env python3
"""Steadiness check: run each workload in fresh processes, print the spread.

Run from the repository root::

    python3 perfbench/steady.py                      # every workload, 10 runs
    python3 perfbench/steady.py --workload sharded --runs 5

Each run is ``perfbench/run.py`` in a new process with its own seed
(``--first-seed``, ``--first-seed + 1``, ...).  For every metric the
command prints the median, the quartiles (``statistics.quantiles(n=4)``),
the spread ``(q3 - q1) / median`` against the metric's bound in
``BENCHMARK.json``, and max/min.  The bounds there were set from this
command's output; rerun it on any new host.  The last line is the same
summary as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    completed = subprocess.run(
        [
            sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
        check=False,
    )
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise RuntimeError(
            f"{workload} seed {seed} exited {completed.returncode}: "
            f"{completed.stderr.strip()[-2000:]}"
        )
    return json.loads(lines[-1])


def summarize(values: list[float], bound: float | None) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    low = min(values)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "max_over_min": max(values) / low if low else float("inf"),
        "bound": bound,
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be >= 1")

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    bounds = {metric["name"]: metric.get("bound") for metric in declared}
    summary: dict = {
        "provenance": {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "machine": platform.machine(),
            "runs": args.runs,
            "seconds": args.seconds,
            "trace": args.trace,
        },
        "workloads": {},
    }
    print(f"cpu_count {os.cpu_count()}, python {platform.python_version()}, "
          f"{args.runs} runs of {args.seconds} s, trace {args.trace}")
    for workload in args.workload or names:
        results = [
            run_once(workload, args.first_seed + offset, args.seconds, args.trace)
            for offset in range(args.runs)
        ]
        attempted = sum(result["attempted"] for result in results)
        failed = sum(result["failed"] for result in results)
        missing = set(bounds) - set(results[0]["metrics"])
        if missing:
            print(f"{workload}: metrics not reported: {sorted(missing)}")
        rows = {}
        print(f"\n{workload}: {failed}/{attempted} operations failed, "
              f"correct in {sum(r['correct'] for r in results)}/{len(results)} runs")
        print(f"  {'metric':44} {'median':>14} {'q1':>14} {'q3':>14} "
              f"{'spread':>8} {'bound':>6} {'max/min':>8}")
        for name in results[0]["metrics"]:
            values = [result["metrics"][name]["value"] for result in results]
            row = summarize(values, bounds.get(name))
            rows[name] = row
            bound = "" if row["bound"] is None else f"{row['bound']:.2f}"
            flag = ""
            if name == "setup_s":
                # set-up time is held to its median only, not its spread
                flag = "  (spread exempt)"
            elif row["bound"] is not None and row["spread"] >= row["bound"] / 3:
                flag = "  spread >= bound/3"
            print(f"  {name:44} {row['median']:14.6g} {row['q1']:14.6g} "
                  f"{row['q3']:14.6g} {row['spread']:8.4f} {bound:>6} "
                  f"{row['max_over_min']:8.4f}{flag}")
        summary["workloads"][workload] = {
            "attempted": attempted,
            "failed": failed,
            "metrics": rows,
        }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
