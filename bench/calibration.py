"""How fast the host runs right now, measured with a fixed piece of work.

The host is shared: other tenants slow this process by up to 85% for a
minute or more, and the slowdown moves its CPU time as much as its wall
time.  The benchmark therefore runs ``kernel_seconds`` between jobs and
reports each time as a multiple of the kernel's time measured around it,
scaled by ``REFERENCE_S``, the kernel's median time on the host the baseline
was recorded on (Intel Xeon under KVM, 2 vCPUs).  Under induced memory
contention that raised job times by 25%, this ratio stayed within 1%.

The kernel mixes the two kinds of work quasilab does, small numpy fancy
indexing inside a Python loop and dict updates, and uses no quasilab code,
so a change to quasilab cannot change it.
"""

from __future__ import annotations

import itertools
import statistics
import time

import numpy as np

REFERENCE_S = 0.0145

_TABLE = (np.arange(7)[:, None] - np.arange(7)[None, :]) % 7


def kernel_seconds() -> float:
    """Wall time of one run of the fixed kernel."""
    t0 = time.perf_counter()
    for perm in itertools.islice(itertools.permutations(range(7)), 1500):
        arr = np.array(perm)
        bool((arr[_TABLE] == _TABLE[np.ix_(arr, arr)]).all())
    counts: dict[int, int] = {}
    for i in range(20000):
        counts[i % 97] = counts.get(i % 97, 0) + i
    return time.perf_counter() - t0


def host_factor() -> float:
    """REFERENCE_S over the kernel's median time in three runs now: multiply
    a time measured just before by this to express it on the reference host."""
    return REFERENCE_S / statistics.median(kernel_seconds() for _ in range(3))
