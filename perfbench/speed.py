"""Speed probe: how fast the host runs right now, relative to a reference.

A core of a shared host slows down and speeds up by ±20 % over tens of
seconds, as its neighbours' load changes.  The probe times five small
kernels that use the same machinery as privsig: float and dict work in
the interpreter, `Fraction` arithmetic, numpy object arrays and a compiled
numpy sort.  The speed index is the geometric mean of each kernel's time
over its reference time.  Dividing a duration by the index measured around
it takes the host's drift out; on a sample of grid_tables ops it cut the
spread of 15-second averages from 0.18 to 0.03.
"""

from __future__ import annotations

import math
import statistics
import time
from fractions import Fraction

import numpy as np


def _float_loop():
    x = 0.0
    for i in range(20000):
        x += (i % 7) * 0.5
    return x


def _fractions():
    total = Fraction(0)
    for i in range(1, 120):
        total += Fraction(i, i * i + 1)
    return total


def _object_array():
    arr = np.array([Fraction(i, 7) for i in range(300)], dtype=object)
    for _ in range(3):
        arr = arr * Fraction(3, 5) + Fraction(1, 3)
    return arr.sum()


def _numpy_sort():
    arr = np.arange(20000, 0, -1, dtype=float)
    for _ in range(5):
        arr.sort()
        arr = arr[::-1].copy()
    return arr


def _dict_work():
    table = {}
    for i in range(5000):
        table[(i, i % 13)] = str(i)
    return sorted(table.items())


#: (kernel, its time in seconds on the reference host: a 2-vCPU Xeon at
#: 2.1 GHz with Python 3.11 and numpy 2.4).
KERNELS = (
    (_float_loop, 1.9e-3),
    (_fractions, 0.5e-3),
    (_object_array, 4.9e-3),
    (_numpy_sort, 0.65e-3),
    (_dict_work, 2.6e-3),
)
REPEATS = 3


def speed_index():
    """Geometric mean over the kernels of (median time / reference time):
    above 1 when the host is slower than the reference."""
    logs = []
    for kernel, reference in KERNELS:
        times = []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            kernel()
            times.append(time.perf_counter() - t0)
        logs.append(math.log(statistics.median(times) / reference))
    return math.exp(statistics.fmean(logs))
