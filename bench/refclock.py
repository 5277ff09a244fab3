"""Timings adjusted for the speed of the machine at the moment they were taken.

The shared 2-core host this benchmark was written on changes speed by up to
2x over tens of seconds: the same ten golden passes took 1.2 to 2.5 s within
three minutes, and the raw throughput of identical cyclic_newton runs spread
by 28% (IQR over median) across ten runs.  So the benchmark times a *slice*
of fixed reference work between tasks: exact elimination on a fixed rational
matrix, pure standard library, so that no change to higherlocal can change
it, and made of the same kind of work (``Fraction`` arithmetic on growing
integers) as the program's hot paths.  A timing is scaled by
``SLICE_S / (mean of the slices just before and after it)``: the seconds it
would have taken with the machine at the speed at which a slice takes
``SLICE_S``.  Of the references tried on cyclic_newton over four minutes
(this one, a 20 x 20 elimination, a precision-64 series product) and of
the windows of slices tried (1 to 8 on each side), this one with the two
nearest slices left the smallest spread over runs of three cycles: 0.04,
against 0.16 raw.  ``run.py`` prints the raw wall times beside the adjusted
ones.
"""

from __future__ import annotations

import time
from fractions import Fraction
from typing import Callable, Iterable, List

# median time of one slice on the 2-core Xeon the benchmark was written on
# (Python 3.11.7); it only sets the scale of adjusted timings
SLICE_S = 0.023
SLICE_CALLS = 4
# a slice is taken before a task once this much task time has passed since
# the last one, which keeps the slices under a tenth of a run
EVERY_S = 0.3

_N = 12


def reference_work() -> None:
    """Gaussian elimination over Q on a fixed 12 x 12 matrix."""
    M = [
        [Fraction((i * 7 + j * 13) % 11 - 5, 1 + (i + 2 * j) % 5) for j in range(_N)]
        for i in range(_N)
    ]
    for c in range(_N):
        p = next((r for r in range(c, _N) if M[r][c]), None)
        if p is None:
            continue
        M[c], M[p] = M[p], M[c]
        for r in range(c + 1, _N):
            f = M[r][c] / M[c][c]
            if f:
                M[r] = [a - f * b for a, b in zip(M[r], M[c])]


def time_slice() -> float:
    t0 = time.perf_counter()
    for _ in range(SLICE_CALLS):
        reference_work()
    return time.perf_counter() - t0


def measure(jobs: Iterable[Callable[[], float]], every_s: float = EVERY_S):
    """Run jobs that return their own raw seconds, with slices between them.

    Returns (raw seconds, adjusted seconds, seconds spent in slices); a
    job's adjusted seconds are its raw seconds scaled by the mean of the
    slices just before and just after it.
    """
    slices: List[float] = []
    before: List[int] = []  # per job: index of the slice just before it
    raw: List[float] = []
    since = float("inf")
    for job in jobs:
        if since >= every_s:
            slices.append(time_slice())
            since = 0.0
        before.append(len(slices) - 1)
        raw.append(job())
        since += raw[-1]
    slices.append(time_slice())
    adjusted = [
        t * SLICE_S / ((slices[i] + slices[i + 1]) / 2) for t, i in zip(raw, before)
    ]
    return raw, adjusted, sum(slices)
