"""Host speed, sampled alongside the workload.

The benchmark host is a shared virtual machine whose CPU speed changes by up
to a factor of two from one minute to the next, for every kind of code the
workloads run. A SIGALRM handler runs a fixed reference every ``PERIOD_S``
and records how long it took, so the host's speed during any interval of the
run is known. (A CPU-time timer such as ITIMER_VIRTUAL would make the kernel
report process CPU time in whole ticks.) The reference has three parts in
the style of the program's own work, because under load the host slows each
kind of work by a different and changing amount: numpy calls on a small
array, which is how the integrator and the LHZ layer spend their time; the
creation of small Python objects, as in parsing, input generation and table
rendering; and a small symmetric eigensolve, as in the quantum layer. A
sample's slowness is the mean of the three parts' times over their nominal
times. Dividing a CPU time by the interval's slowness (the median of
its samples) gives the time the same work takes at nominal speed. The
reference uses numpy, so numpy must be imported before a probe starts.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.05  # seconds between samples
# reference times that count as slowness 1: about the fastest tenth of the
# samples seen on a loaded 2-vCPU virtual machine
NOMINAL_NUMPY_S = 100e-6
NOMINAL_OBJECTS_S = 130e-6
NOMINAL_EIGEN_S = 140e-6
_VECTOR = np.ones(7)
_MATRIX = np.add.outer(np.arange(32.0), np.arange(32.0)) % 7


class _Item:
    pass


def _numpy_part() -> np.ndarray:
    acc = _VECTOR
    for _ in range(60):
        acc = acc * _VECTOR + _VECTOR
    return acc


def _objects_part() -> dict:
    items = {}
    for i in range(400):
        item = _Item()
        item.value = i
        items[i] = item
    return items


def _reference() -> float:
    """Slowness of the host right now, from one run of each part."""
    t0 = time.perf_counter()
    _numpy_part()
    t1 = time.perf_counter()
    _objects_part()
    t2 = time.perf_counter()
    np.linalg.eigvalsh(_MATRIX)
    t3 = time.perf_counter()
    return ((t1 - t0) / NOMINAL_NUMPY_S + (t2 - t1) / NOMINAL_OBJECTS_S
            + (t3 - t2) / NOMINAL_EIGEN_S) / 3


class SpeedProbe:
    """Owns the SIGALRM timer; ``samples`` holds the slowness of each sample."""

    def __init__(self):
        self.samples: list[float] = []
        _reference()  # the first calls initialise LAPACK; keep them out of the samples
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def _sample(self, signum, frame) -> None:
        self.samples.append(_reference())

    def sample(self, count: int) -> list[float]:
        """Slowness of ``count`` back-to-back references run now, to time the
        host around a short measurement. They are not added to ``samples``:
        run back to back, the reference finds its caches warm and reads
        faster than when the timer interrupts other work."""
        return [_reference() for _ in range(count)]

    def mark(self) -> int:
        return len(self.samples)

    def slowness(self, window: tuple[int, int]) -> float:
        """Median slowness over the samples in a (lo, hi) mark window; a
        window too short to hold a sample takes one on the spot."""
        lo, hi = window
        pooled = self.samples[lo:hi]
        if not pooled:
            self._sample(None, None)
            pooled = self.samples[-1:]
        return statistics.median(pooled)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
