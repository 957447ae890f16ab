"""Clocks for the benchmark: CPU time, and a reference kernel that measures
how fast the host runs at the moment.

On a shared host other tenants slow the benchmark for seconds to minutes at
a time, and CPU time slows with wall time, so no statistic over one run's own
timings removes it.  The benchmark therefore runs a fixed reference kernel
between the calls it times and scales each call by the host's speed at that
moment: ``REFERENCE_S / mean(kernel time before, kernel time after)``.  The
kernel uses none of the package's code, so a change to the package cannot
move it.  It mixes a Python loop of scalar float arithmetic, like the
pure-Python stepper, with numpy passes over a 1 MB array, like the
stationary quadrature.
"""

from __future__ import annotations

import resource
import time

import numpy as np

# About the time of one reference() call, between the workloads' calls, on a
# quiet 2-vCPU Intel Xeon VM at 2.0 GHz (Python 3.11, numpy 2.4), so scaled
# times read roughly as seconds on that machine when it is quiet.
REFERENCE_S = 0.002

_GRID = np.linspace(0.0, 3.0, 1 << 17)


def cpu_seconds() -> float:
    """User + system time of this process, all its threads, and its
    waited-for children."""
    return sum(r.ru_utime + r.ru_stime for r in (
        resource.getrusage(resource.RUSAGE_SELF),
        resource.getrusage(resource.RUSAGE_CHILDREN),
    ))


def _kernel() -> float:
    x, acc = 1.0, 0.0
    for i in range(10000):
        x += 0.01 * (2.0 - x) + (0.001 if i & 1 else -0.001)
        acc += x * x
    density = np.exp(-2.0 * (_GRID - x) ** 2)
    return acc + float(np.dot(density, _GRID)) / float(density.sum())


def reference() -> float:
    """Seconds one run of the reference kernel takes now."""
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0


def speed(before: float, after: float) -> float:
    """How many reference seconds one measured second is worth between two
    reference() runs: below 1 when the host is slower than the reference."""
    return REFERENCE_S / (0.5 * (before + after))
