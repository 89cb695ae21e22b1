"""The host's current speed, read from a fixed reference kernel.

The benchmark runs on a shared host whose speed changes by up to 1.7x over
minutes as other tenants load the same physical cores, while the
process's own CPU time stays equal to its wall time.  Two runs of the same
code far apart in time then differ more than any useful regression bound.
So the benchmark times this module's reference kernel between operations,
all through a run, and reports its times scaled to a host on which the
kernel takes ``NOMINAL_S``:

    scaled time = measured time * NOMINAL_S / mean kernel time in the same pass

The kernel is the benchmark's own code and never changes with the
program, so a slower program still reads slower.  It mixes the three
kinds of work the program does: interpreted Python loops, numpy calls on
small arrays and ``scipy.integrate.quad`` with a Python integrand.  The
raw times are printed and recorded beside the scaled ones.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
from scipy import integrate

NOMINAL_S = 2.5e-3  # about the kernel's median on the 2-vCPU Xeon baseline host
SAMPLE_EVERY_S = 0.1  # keeps the kernel near 2.5% of a run
_ARRAY = np.random.default_rng(0).random(100)


def _integrand(x):
    return x * np.exp(-x) / (1.0 + x * x)


def kernel() -> float:
    s = 0
    for i in range(10_000):
        s += i * i % 7
    b = _ARRAY
    for _ in range(200):
        b = np.sqrt(b * 1.0001 + 0.5)
        b = np.where(b > 1.2, b - 0.1, b)
    return s + float(b.sum()) + integrate.quad(_integrand, 0.0, 5.0)[0]


class HostSpeed:
    """Kernel timings, taken when asked; ``maybe_sample`` takes one at
    most every ``SAMPLE_EVERY_S``."""

    def __init__(self):
        self.samples: list[float] = []
        self.last = float("-inf")

    def sample(self) -> None:
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.samples.append(t1 - t0)
        self.last = t1

    def maybe_sample(self) -> None:
        if time.perf_counter() - self.last >= SAMPLE_EVERY_S:
            self.sample()

    def take_factor(self) -> float:
        """Scale factor for the time since the last call: ``NOMINAL_S``
        over the mean kernel time in it.  The mean, not the median: the
        slow samples are the ones that tell how much of the time the host
        was slow, and on recorded mc-verdict passes the mean made 30 s
        windows agree within 6% (IQR/median) where the median left 17%."""
        factor = NOMINAL_S / statistics.fmean(self.samples)
        self.samples = []
        return factor
