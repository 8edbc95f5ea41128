"""Machine-speed calibration of the benchmark's timings.

The CPU time a fixed piece of work takes on a small shared VM drifts between
a fast and a slow state, about 1.6x apart, switching every few seconds to
minutes (README.md, "Noise").  A run's raw medians therefore say more about
the host than about qthermo.  To take the host out, the benchmark times a
fixed calibration kernel in its own process, in the same mix of small
complex numpy arrays and Python arithmetic that qthermo runs per state,
every ``INTERVAL_S`` while requests run.  A request's times are then scaled by
``NOMINAL_S / k``, where ``k`` is the kernel's median duration over the
samples taken during the request and the ``NEIGHBOURS`` nearest on each side.  The scaled times
read as seconds on a machine where the kernel takes ``NOMINAL_S``.

The kernel never calls qthermo, so a change to the program moves the scaled
times as it moves the raw ones.  Kernel time that falls inside a request is
subtracted from the request's wall and CPU time.  While pool threads run,
the kernel would share the CPUs with them, so the timer skips that sample
and the next one is taken between requests (``catch_up``).
"""

from __future__ import annotations

import bisect
import math
import signal
import statistics
import threading
import time

import numpy as np

#: kernel duration that scaled times refer to (s)
NOMINAL_S = 1.0e-3
#: time between kernel samples (s)
INTERVAL_S = 0.25
#: samples on each side of a request that its scale factor also uses
NEIGHBOURS = 2
WARMUP_MAX_S = 10.0

_rng = np.random.default_rng(20241109)
_RHO = _rng.standard_normal((4, 4)) + 1j * _rng.standard_normal((4, 4))
_RHO = (_RHO + _RHO.conj().T) / 8.0


def kernel() -> float:
    """A fixed load of about a millisecond, in the mix qthermo runs per state:
    small complex arrays handled through numpy's Python API, and Python
    float arithmetic.  It calls no BLAS or LAPACK routine, so it neither
    wakes nor waits for OpenBLAS threads, whose state depends on the program."""
    acc = 0.0
    rho = _RHO
    for _ in range(40):
        h = 0.5 * (rho + rho.conj().T)
        acc += float(np.abs(h - rho).max()) + float(np.trace(h).real)
        acc += float(np.einsum("abcb->ac", h.reshape(2, 2, 2, 2))[0, 0].real)
        acc += float(np.isfinite(h).all())
        acc += sum(j * 0.5 for j in range(30))
    return acc


def _warm_up() -> float:
    """Run the kernel until ten calls in a row take less than twice the
    fastest call so far (at most ``WARMUP_MAX_S``); returns the time taken.
    The first calls in a fresh process are slower than later ones."""
    start = time.perf_counter()
    fastest, steady = math.inf, 0
    while steady < 10 and time.perf_counter() - start < WARMUP_MAX_S:
        t0 = time.perf_counter()
        kernel()
        dt = time.perf_counter() - t0
        fastest = min(fastest, dt)
        steady = steady + 1 if dt < 2 * fastest else 0
    return time.perf_counter() - start


class Speedometer:
    """Kernel samples over a run, and the scale factor they give a request."""

    def __init__(self):
        self.times: list[float] = []      # sample midpoints, increasing
        self.durations: list[float] = []  # kernel wall time of each sample
        self.spent_wall = 0.0             # total kernel wall time
        self.spent_cpu = 0.0              # total process CPU time during the kernel
        self._last = -math.inf
        self.warmup_s = _warm_up()

    def sample(self) -> None:
        c0, t0 = time.process_time(), time.perf_counter()
        kernel()
        t1, c1 = time.perf_counter(), time.process_time()
        self.times.append(0.5 * (t0 + t1))
        self.durations.append(t1 - t0)
        self.spent_wall += t1 - t0
        self.spent_cpu += c1 - c0
        self._last = t1

    def _on_alarm(self, signum, frame) -> None:
        if threading.active_count() == 1:
            self.sample()

    def start(self) -> None:
        """Sample every INTERVAL_S from a timer signal, also inside requests."""
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def catch_up(self) -> None:
        """Sample now if the timer skipped its last turn."""
        if time.perf_counter() - self._last >= INTERVAL_S:
            self.sample()

    def factor(self, t0: float, t1: float) -> float:
        """NOMINAL_S over the median kernel duration of the samples taken in
        [t0, t1] and of the NEIGHBOURS nearest on each side.  The median
        discards a sample that a stray interrupt lengthened."""
        lo = max(bisect.bisect_left(self.times, t0) - NEIGHBOURS, 0)
        hi = bisect.bisect_right(self.times, t1) + NEIGHBOURS
        return NOMINAL_S / statistics.median(self.durations[lo:hi])
