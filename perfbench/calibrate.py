"""Machine-speed calibration for timings taken on a shared host.

On a shared 2-CPU host the same pipeline run took anywhere from 0.8 s to
2.1 s within a few minutes, as neighbouring load came and went. A
calibration kernel is a fixed piece of work owned by the benchmark: it calls
no finegrid code, so no change to the program can move it. Timed between
pipeline runs, it tracks the host's current speed, and ``speed_factor``
converts a wall time to seconds at the reference speed, at which the kernel
takes its reference time.

Contention slows kinds of work by different amounts: interpreted scalar code
slowed about twice as much as large numpy array passes. So each workload is
calibrated with the kernel that does the same kind of work as its dominant
layer.
"""

from __future__ import annotations

import math
from time import perf_counter

import numpy as np

_rng = np.random.default_rng(20190416)
_VALUES = _rng.random(50_000)
_QUERIES = _rng.random((1024, 2))
_TRAIN = _rng.random((819, 2))
_FEATURES = _rng.random((300, 11, 2)) - 0.5
_TARGETS = _rng.random((300, 11))
_SPLIT_X = _rng.random((300, 120))
_SPLIT_Z = _rng.random((300, 120))


def _python_work():
    """Scalar arithmetic, dict updates and a float text round trip, as in
    region tests and grid text I/O."""
    total = 0.0
    for i in range(80_000):
        total += math.sqrt(i) * 0.5
    tally: dict = {}
    for i in range(40_000):
        tally[i % 97] = tally.get(i % 97, 0) + i
    text = " ".join(repr(float(v)) for v in _VALUES[:20_000])
    total += sum(float(t) for t in text.split())


def _array_work():
    """One chunk of brute-force distances and a stable sort, as in neighbour search."""
    diff = _QUERIES[:, None, :] - _TRAIN[None, :, :]
    d2 = (diff * diff).sum(axis=2)
    order = np.argsort(d2, axis=1, kind="stable")[:, :12]
    np.take_along_axis(d2, order, axis=1)


def _solve_work():
    """Small cubic design matrices and least-squares fits, as in HYPPO's LOO refits."""
    for _ in range(4):
        for feats, z in zip(_FEATURES, _TARGETS):
            design = np.ones((11, 10))
            j = 1
            for total in range(1, 4):
                for a in range(total + 1):
                    design[:, j] = feats[:, 0] ** a * feats[:, 1] ** (total - a)
                    j += 1
            np.linalg.lstsq(design, z, rcond=1e-10)


def _split_work():
    """Sorts and prefix sums over small arrays, as in tree growth."""
    sizes = np.arange(1, 120)
    for _ in range(10):
        for xs, zs in zip(_SPLIT_X, _SPLIT_Z):
            order = np.argsort(xs, kind="stable")
            c1 = np.cumsum(zs[order])
            sse = c1[:-1] ** 2 / sizes + (c1[-1] - c1[:-1]) ** 2 / sizes[::-1]
            int(np.argmax(sse))


# kernel name -> (work, its time in seconds on an idle 2-CPU x86-64 host
# with Python 3.11 and numpy 2.4)
KERNELS = {
    "python": (_python_work, 0.04),
    "arrays": (_array_work, 0.085),
    "solves": (_solve_work, 0.065),
    "splits": (_split_work, 0.055),
}


def kernel(name: str) -> float:
    """Run one calibration kernel; returns its wall time in seconds."""
    work, _ = KERNELS[name]
    start = perf_counter()
    work()
    return perf_counter() - start


def speed_factor(name: str, kernel_before: float, kernel_after: float) -> float:
    """What converts a wall time to the reference speed, from the kernel
    times measured just before and just after it."""
    return KERNELS[name][1] / ((kernel_before + kernel_after) / 2.0)
