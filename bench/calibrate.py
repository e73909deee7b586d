"""Host-speed reference: fixed kernels that do not use sympllt.

The benchmark host is a shared virtual machine whose speed drifts by up to
a factor of two over seconds to minutes, as other tenants load the same
physical cores.  The drift moves the wall time of every operation, so run
to run medians of raw times wander more than any change worth detecting.
Running a fixed kernel next to each operation measures the host's speed at
that moment; ``workload.run_loop`` divides each operation's time by it.

Contention does not slow all code alike, so the kernel for a workload
is the candidate whose time, measured alternately with pieces of that
workload on the contended host, tracked the workload's time best:
small-matrix Cholesky, products and eigensolves for ``check-suite`` and
``diagnose-file``, and fixed-order products of order 100 to 200 for
``sweep-random``.  Pure-Python integer mixing and float parsing slowed
far more than the workloads that contain them, and order-400 products
tracked ``diagnose-file`` worse than the small-matrix kernel.  The
kernels must never change: a change would shift every normalised time.
"""

import math
from time import perf_counter

import numpy as np


def _spd(n):
    # symmetric, entries in [-2, 2] off the diagonal, strictly diagonally
    # dominant: positive definite without a BLAS call
    r = np.cos(np.arange(n * n, dtype=np.float64).reshape(n, n) * 0.7)
    return r + r.T + 2.0 * n * np.eye(n)


_MATRICES = {}


def _matrix(n):
    # built on first use, so a process holds only its own kernel's inputs
    if n not in _MATRICES:
        _MATRICES[n] = _spd(n)
    return _MATRICES[n]


def _product(a, b):
    out = np.zeros((a.shape[0], b.shape[1]))
    for k in range(a.shape[1]):
        out += a[:, k:k + 1] * b[k:k + 1, :]
    return out


def _cholesky(a):
    n = a.shape[0]
    work = a.copy()
    low = np.zeros_like(work)
    for j in range(n):
        d = math.sqrt(work[j, j])
        low[j, j] = d
        if j + 1 < n:
            col = work[j + 1:, j] / d
            low[j + 1:, j] = col
            work[j + 1:, j + 1:] -= col[:, None] * col[None, :]
    return low


def small():
    """check-suite and diagnose-file: Cholesky, products and eigensolves
    up to order 96, dominated by per-call overhead."""
    for n in (6, 12, 24, 40, 96):
        a = _matrix(n)
        _product(_cholesky(a), a)
        np.linalg.eigvalsh(a)


def mid():
    """sweep-random: rank-1-update products at orders 100 to 200."""
    for n in (100, 150, 200):
        _product(_matrix(n), _matrix(n))


# Each kernel with its time on the reference host (2-vCPU Xeon with
# AVX-512, numpy 2.4, OpenBLAS, one BLAS thread) when not contended.
# Normalised times are in seconds at that speed.
KERNELS = {
    "small": (small, 0.004),
    "mid": (mid, 0.018),
}


def measure(name, min_seconds):
    """Mean time of kernel ``name`` over repetitions lasting at least
    ``min_seconds``, as a share of its reference time (1.0 = reference
    speed, 1.5 = half again slower).

    One untimed call first refills the caches the previous work evicted,
    so the reading does not depend on what ran before it.
    """
    kernel, reference_s = KERNELS[name]
    kernel()
    reps = 0
    start = perf_counter()
    while True:
        kernel()
        reps += 1
        elapsed = perf_counter() - start
        if elapsed >= min_seconds:
            return elapsed / reps / reference_s
