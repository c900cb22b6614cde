"""A fixed computation that measures how fast this machine runs right now.

On a shared host the same work can take 1.7 times longer from one second
to the next, when other tenants contend for the core.  The benchmark times
``kernel()`` just before and just after every round and rescales the
round's wall time to ``REFERENCE_S``:

    normalised = wall * REFERENCE_S / mean(kernel time before, after)

so a reported time reads as seconds at the speed at which the kernel takes
``REFERENCE_S``.  The kernel mixes the three kinds of work the workloads
do: an interpreter-bound recursion over Python ints, small numpy vectors
stepped in a Python loop, and fancy indexing over a 2-D table.  It never
calls nimcash, so a change to the package cannot move it.
"""

from __future__ import annotations

import time

import numpy as np

# Kernel time on a 2-vCPU x86-64 host with Python 3.11 and numpy 2.4 when no
# other tenant contends for the core (0.041-0.043 s; 0.066-0.077 s when one does).
REFERENCE_S = 0.042


def kernel() -> int:
    lo = [0] * 12001
    hi = [0] * 12001
    for n in range(3, 12001):
        hi[n] = max(lo[n - a] for a in (1, 2, 3))
        lo[n] = min(hi[n - a] + a for a in (1, 2, 3) if lo[n - a] <= hi[n])
    x = np.zeros(256, dtype=bool)
    y = np.ones(256, dtype=bool)
    for _ in range(3000):
        x[1:] |= ~y[:-1]
        y = x ^ y
    table = np.arange(300 * 300).reshape(300, 300) % 7 == 0
    i, j = np.arange(300)[:, None], np.arange(300)[None, :]
    acc = np.zeros((300, 300), dtype=bool)
    for a in range(1, 49):
        acc |= table[(j + a) % 300, i]
    return lo[-1] + int(acc.sum()) + int(y.sum())


def measure() -> float:
    """Wall time of one kernel run, in seconds."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start
