"""Machine-speed probe for scaling measured times.

On a shared 2-vCPU Xeon virtual machine the speed of identical code changed
by up to 2x within seconds, with no steal time reported, and raw wall times
of identical runs spread by 25% and more.  A fixed NumPy kernel that does
not touch ldvortex is timed while the workload runs; a time divided by the
mean kernel time and multiplied by NOMINAL_S is the time at the speed where
the kernel takes NOMINAL_S.  A change to ldvortex cannot change the kernel,
so it moves only the measured time.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

NOMINAL_S = 0.003
PERIOD_S = 0.25
_X = np.linspace(0.0, 1.0, 401)


def kernel_seconds() -> float:
    """One timed run of the reference kernel (about 3 ms): small-array
    NumPy calls from a Python loop, like the solvers' inner loops."""
    t0 = time.perf_counter()
    for _ in range(250):
        d = np.diff(_X) / 0.01
        float(np.sum(d * d + _X[1:] * _X[:-1]))
    return time.perf_counter() - t0


class SpeedProbe:
    """Times the kernel on entry, on exit and every PERIOD_S seconds in
    between, from a timer signal in the main thread."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (start, duration)

    def _sample(self, *_signal_args) -> None:
        start = time.perf_counter()
        self.samples.append((start, kernel_seconds()))

    def __enter__(self) -> "SpeedProbe":
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample()

    def mean_s(self) -> float:
        return statistics.fmean(d for _, d in self.samples)

    def inside(self, t0: float, t1: float) -> float:
        """The probe's own time within [t0, t1]."""
        return sum(d for start, d in self.samples if t0 <= start <= t1)

    def scaled(self, t0: float, t1: float, seconds: float) -> float:
        """`seconds` spent in [t0, t1], less the probe's own time there,
        at nominal speed."""
        return (seconds - self.inside(t0, t1)) * NOMINAL_S / self.mean_s()
