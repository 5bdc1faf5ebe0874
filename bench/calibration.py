"""A fixed calibration kernel that tracks how fast this host runs right now.

On a shared host the same code runs at different speeds from one minute to
the next: other tenants change clock frequencies and contend for the core.
The benchmark times this kernel around every campaign and around every
cold set-up, and scales the measured times to the kernel's reference
speed, so a run measures the program, not the spell of load it met.

The kernel does the kinds of work the simulator does: a binary-heap event
queue, dict updates, a path-compressing union-find and small numpy
operations.  It touches no qecfabric code and runs with the garbage
collector paused, so neither a change to the program nor the objects the
program keeps alive can change its time.
"""

from __future__ import annotations

import gc
import heapq
import time

import numpy as np

#: Kernel time that defines the reference speed.  It is the kernel's typical
#: time on a shared 2-vCPU x86-64 virtual machine, so calibrated figures
#: there read close to raw ones; any fixed value would do.
REFERENCE_S = 0.020


def kernel() -> int:
    heap, totals = [], {}
    for i in range(10000):
        heapq.heappush(heap, ((i * 7919) % 1009, i, i % 97))
    while heap:
        t, _, k = heapq.heappop(heap)
        totals[k] = totals.get(k, 0) + t
    parent = list(range(6000))
    for k in range(6000):
        a, b = k, (k * 31) % 6000
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        while parent[b] != b:
            parent[b] = parent[parent[b]]
            b = parent[b]
        if a != b:
            parent[a] = b
    x = np.arange(64, dtype=np.uint8)
    acc = 0
    for _ in range(600):
        x = x ^ (x >> 1)
        acc += int(x.sum())
    return len(totals) + acc


def kernel_s() -> float:
    """Wall time of one kernel run, in seconds."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter_ns()
        kernel()
        return (time.perf_counter_ns() - t0) / 1e9
    finally:
        if was_enabled:
            gc.enable()
