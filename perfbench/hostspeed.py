"""Host speed reference: a fixed slice of work timed around every interval.

On a shared virtual machine such as the reference host, single-thread
speed drifts by tens of percent over tens of seconds, for interpreter-bound
and BLAS-bound code alike; without correction the run-to-run spread of the
timings there is wider than any useful regression bound.  A slice of
fixed work that is the benchmark's own, never the program's, is therefore
timed right before and right after every timed interval (each operation
and each set-up probe).
The interval's reported time is its measured time divided by the host
factor, the mean of those two slice times over ``REFERENCE_SLICE_S``: that
is, seconds on the reference host.  The measured seconds and the factors
are kept in the run's detail file.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# Median slice time on the reference host (2-CPU Intel Xeon VM, numpy 2.4
# with OpenBLAS on one thread).
REFERENCE_SLICE_S = 0.038


class Reference:
    """Interpreter-bound rotations on a 169x169 complex matrix plus zgemm."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._small = rng.standard_normal((169, 169)) + 1j * rng.standard_normal((169, 169))
        self._large = rng.standard_normal((400, 400)) + 1j * rng.standard_normal((400, 400))
        self._rot = np.array([[0.8, 0.6], [-0.6, 0.8]], dtype=np.complex128)
        self.slice()  # the first slice pays one-off costs; it is not a sample

    def slice(self) -> float:
        """Time one slice of the fixed work."""
        start = perf_counter()
        a = self._small.copy()
        rot = self._rot
        for p in range(80):
            for q in range(p + 1, p + 8):
                a[[p, q], :] = rot.conj().T @ a[[p, q], :]
                a[:, [p, q]] = a[:, [p, q]] @ rot
        c = self._large
        for _ in range(2):
            c = c @ self._large
            c /= np.abs(c).max()
        return perf_counter() - start


def host_factor(before: float, after: float) -> float:
    """How much slower than the reference host the interval between two slices ran."""
    return (before + after) / 2.0 / REFERENCE_SLICE_S
