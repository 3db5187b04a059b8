"""Machine-speed calibration of wall times.

On a shared host the speed one process gets can change by up to a factor
of two from one second to the next (seen on a 2-core Xeon VM), and the
process's CPU time moves with its wall time, so neither alone measures the
program. A :class:`SpeedClock`
times a fixed calibration kernel (small einsums and a scatter like those of
eggmix's assembly, small banded Cholesky solves like those of its mass
matrices, a small dense solve and a pure-Python loop) before and
after every call and, from a SIGALRM timer, every ``INTERVAL`` seconds
inside it. A kernel run of duration ``k`` gives the speed factor
``REFERENCE_S / k``. The calibrated duration of an interval is its wall time,
less the kernel runs inside it, times the mean speed factor of the kernel
runs inside it and the nearest one on each side: wall seconds at the speed
at which the kernel takes ``REFERENCE_S``.
"""

from __future__ import annotations

import bisect
import signal
import time

import numpy as np
import scipy.linalg

REFERENCE_S = 0.005     # kernel duration that defines calibrated seconds
INTERVAL = 0.2          # seconds between kernel runs inside a call

_rng = np.random.default_rng(20190407)
_W = _rng.standard_normal((32, 16, 9))
_C = _rng.standard_normal((32, 9, 2))
_IDX = _rng.integers(0, 160, (32, 9))
_A = _rng.standard_normal((24, 24)) + 24.0 * np.eye(24)
_B = _rng.standard_normal((24, 4))
_BAND = np.array([[4.0] * 12, [1.0] * 11 + [0.0], [0.2] * 10 + [0.0] * 2])
_CHOL = scipy.linalg.cholesky_banded(_BAND, lower=True)
_R = _rng.standard_normal((12, 12))


def kernel() -> float:
    """One run of the calibration kernel; returns the last value computed
    so that no step can be skipped."""
    acc = 0.0
    for _ in range(16):
        x = np.einsum("eqa,eac->eqc", _W, _C)
        g = np.einsum("eqc,eqc->eq", x, x)
        r = np.einsum("eqa,eqc->eac", _W, x / (g[..., None] + 1.0))
        out = np.zeros((160, 2))
        np.add.at(out, _IDX, r)
        acc += float(np.linalg.solve(_A, _B)[0, 0]) + float(out[0, 0])
    for _ in range(16):
        y = scipy.linalg.cho_solve_banded((_CHOL, True), _R)
        acc += float(scipy.linalg.cho_solve_banded((_CHOL, True), y.T)[0, 0])
    table = {}
    for i in range(3000):
        table[i & 63] = acc
        acc += (i * 7 % 13) * 1e-9
    return acc


class SpeedClock:
    """Kernel samples ``(end time, speed factor)`` in time order and the
    intervals the timer spent on kernel runs. Use as a context manager
    around timed calls; call :meth:`sample` after each call."""

    def __init__(self, interval: float = INTERVAL):
        self.interval = interval
        self.times: list[float] = []
        self.factors: list[float] = []
        self.pauses: list[tuple[float, float]] = []
        self._saved = None
        self._busy = False

    def sample(self):
        self._busy = True
        try:
            t0 = time.perf_counter()
            kernel()
            t1 = time.perf_counter()
        finally:
            self._busy = False
        self.times.append(t1)
        self.factors.append(REFERENCE_S / (t1 - t0))
        return t0, t1

    def _on_alarm(self, signum, frame):
        if not self._busy:      # a timer tick during a sample is dropped
            self.pauses.append(self.sample())

    def __enter__(self):
        self.sample()
        self._saved = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._saved)
        return False

    def measure(self, a: float, b: float) -> tuple[float, float]:
        """(wall, calibrated) seconds of the interval [a, b], both without
        the kernel runs inside it. Needs a sample before ``a`` and one after
        ``b``."""
        paused = sum(max(0.0, min(e, b) - max(s, a)) for s, e in self.pauses)
        wall = b - a - paused
        lo = bisect.bisect_left(self.times, a)
        hi = bisect.bisect_right(self.times, b)
        if lo == 0 or hi == len(self.times):
            raise ValueError("interval not bracketed by kernel samples")
        factors = self.factors[lo - 1:hi + 1]
        return wall, wall * sum(factors) / len(factors)
