"""Machine-speed calibration for timings on a shared, drifting machine.

The speed of a small shared VM can drift by a factor of two within
minutes.  A fixed kernel, independent of `tractdim`, runs after every
timed step; a step's wall time is scaled by REFERENCE_S over the median
kernel time just before and just after it.  The kernel mixes what the
package spends its time on: numpy calls on scalars, vectorised
transcendental expressions on multi-megabyte arrays, and plain Python
arithmetic.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

# Kernel time on a quiet 2-core x86-64 VM; a scaled time equals the wall
# time a quiet machine of that kind would have taken.
REFERENCE_S = 0.1

# Kernel runs after each step.  One run's time scatters by about ±20%;
# the median of three on each side of a step is steadier.
SAMPLES_PER_STEP = 3

_X = np.linspace(1.0, 2.0, 1 << 19)
_A = np.empty_like(_X)
_B = np.empty_like(_X)


def kernel_seconds() -> float:
    """Wall time of one run of the calibration kernel."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(1, 18000):
        s = np.float64(i) * 1e-3
        c = 0.5 * np.exp(-s)
        acc += float(s + np.log1p(-c)) + float(np.arcsin(min(1.0, c)))
    for _ in range(16):
        # in place: the allocator state an op leaves behind must not
        # change the kernel's time
        np.exp(np.negative(_X, out=_A), out=_A)
        np.log1p(_A, out=_A)
        np.arcsin(np.minimum(np.divide(0.5, _X, out=_B), 1.0, out=_B), out=_B)
        acc += float(np.sum(np.add(_A, _B, out=_A)))
    for i in range(1, 120000):
        acc += math.log1p(1.0 / i)
    if not math.isfinite(acc):
        raise ArithmeticError("calibration kernel produced a non-finite value")
    return time.perf_counter() - t0


def _samples() -> list:
    return [kernel_seconds() for _ in range(SAMPLES_PER_STEP)]


class Calibrated:
    """Times the steps of ops.  Each step's wall time is also scaled by the
    median of the kernel runs just before and just after it."""

    def __init__(self):
        self.last = _samples()
        self.wall = 0.0
        self.scaled = 0.0

    def step(self, fn, *args, **kwargs):
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        dt = time.perf_counter() - t0
        after = _samples()
        self.wall += dt
        self.scaled += dt * REFERENCE_S / statistics.median(self.last + after)
        self.last = after
        return result
