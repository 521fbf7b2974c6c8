"""Fixed reference kernel that measures how fast the host runs right now.

The kernel is a frozen miniature of the simulator's hot path, written
here without importing anything from ``repro``: blocks of 512 items are
hashed and their estimates gathered with numpy, then a scalar loop over
plain Python lists makes the greedy least-loaded pick over five
instances and the FIFO service update, and the block's first column is
folded back into the table.  Its inputs are fixed, so a change to the
program cannot move it; timed between passes, it gives the host-speed
factor by which ``tuples_per_s`` and ``setup_s`` are scaled.
"""

from __future__ import annotations

import time

import numpy as np

#: items per kernel call (about 19 ms on the reference host)
KERNEL_ITEMS = 16_384
#: median seconds per kernel call on the reference host (2 vCPU,
#: Python 3.11; see README.md); scaled metrics are quoted at this speed
KERNEL_REFERENCE_S = 0.019
#: checksum every call must reproduce, so that a silently changed
#: kernel cannot make old and new figures incomparable
KERNEL_CHECKSUM = 14315717.5

_BLOCK = 512
_MULTIPLIERS = np.array([[3], [5], [7], [11]], dtype=np.int64)
_PRIME = (1 << 61) - 1


def reference_kernel() -> float:
    """Run the kernel once and return its checksum."""
    index = np.arange(KERNEL_ITEMS, dtype=np.int64)
    items = (index * 2_654_435_761) % 4_096
    works = (1.0 + (index * 40_503) % 64).tolist()
    arrivals = (index * 6.5).tolist()
    table = np.arange(4 * 54, dtype=np.float64).reshape(4, 54) % 64 + 1.0
    rows = np.arange(4)
    loads = [0.0] * 5
    busy = [0.0] * 5
    finishes: list[float] = []
    assignments: list[int] = []
    finish_append = finishes.append
    assign_append = assignments.append
    for low in range(0, KERNEL_ITEMS, _BLOCK):
        buckets = (items[low:low + _BLOCK] * _MULTIPLIERS + 17) % _PRIME % 54
        estimates = table[rows[:, None], buckets].min(axis=0).tolist()
        for offset, estimate in enumerate(estimates):
            position = low + offset
            best = loads[0]
            target = 0
            for candidate in range(1, 5):
                if loads[candidate] < best:
                    best = loads[candidate]
                    target = candidate
            loads[target] += estimate
            arrival = arrivals[position]
            ready = busy[target]
            start = arrival if arrival > ready else ready
            finish = start + works[position]
            busy[target] = finish
            finish_append(finish)
            assign_append(target)
        np.add.at(table, (rows, buckets[:, 0]), 1.0)
    waits = np.asarray(finishes) - np.asarray(arrivals)
    # every term is a multiple of 0.5 far below 2**53, so the sum is exact
    return float(waits.sum()) + float(np.bincount(assignments, minlength=5)[0])


def time_kernel() -> float:
    """Seconds one kernel call takes now; raises if the kernel changed."""
    began = time.perf_counter()
    checksum = reference_kernel()
    elapsed = time.perf_counter() - began
    if checksum != KERNEL_CHECKSUM:
        raise RuntimeError(
            f"reference kernel checksum {checksum!r} != {KERNEL_CHECKSUM!r}"
        )
    return elapsed
