"""The machine's current speed, read from a fixed reference computation.

On a small shared VM the same computation runs up to 1.8x slower in spells
from a fraction of a second to minutes, with CPU time and wall time moving
together (the host's cores are busy, not the guest's scheduler), so no
choice of run length or statistic keeps two sets of runs within their
bounds.  The benchmark therefore runs a chunk of work -- integer
elimination in pure Python, a small numpy descent loop, big-integer
arithmetic or a bare interpreter start, all part of the benchmark and never
of the program -- before every measured item, and reports each item's time
scaled to the speed at which a chunk takes its reference time ``ref_s``:

    scaled = measured * ref_s / mean(chunks within WINDOW_S of the item)

The mean, not the median: the speed flips between a fast and a slow level
many times a second, and an item feels the average of the two.  A slow
spell does not slow every kind of work alike, so each workload weights the
three kinds as its own work slowed in slow spells: the interpreter follows
``pattern``, numpy ``kernels`` and the big integers ``rational_rank`` best.
A cli command is mostly interpreter start-up, which none of the three
follows well, so the cli workload's chunk starts a bare interpreter.

A change to the program moves the scaled times as it moves the measured
ones; a slow spell of the machine moves the chunks as well and cancels.
(A program that left threads running between items would slow the chunks
too; the search runs with threads=1, and the cli's processes have ended
before the next chunk.)  The measured figures and the ratio of scaled to
measured time are printed on the '#' lines.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import subprocess
import sys
import time

import numpy as np

# Seconds per unit of each kind of work on the reference machine (2-vCPU
# VM, Python 3.11, numpy 2.4, one OpenBLAS thread) in a fast spell; scaled
# times are seconds there
UNIT_REF_S = {"py": 0.00021, "np": 0.00036, "big": 0.00033, "spawn": 0.045}
WINDOW_S = 1.0

_M = [[(i * 7 + j * 13) % 17 - 8 for j in range(16)] for i in range(16)]
_X = np.random.default_rng(0).standard_normal((16, 4))
_Y = np.random.default_rng(1).standard_normal((4, 16))
_B = [3 ** (700 + i) + 12345 for i in range(40)]  # 1110-1170 bits


def _py() -> None:
    """Fraction-free elimination of a 16 x 16 integer matrix."""
    w, prev, pr = [row[:] for row in _M], 1, 0
    for pc in range(16):
        piv = next((i for i in range(pr, 16) if w[i][pc] != 0), None)
        if piv is None:
            continue
        w[pr], w[piv] = w[piv], w[pr]
        for i in range(pr + 1, 16):
            for j in range(pc + 1, 16):
                w[i][j] = (w[pr][pc] * w[i][j] - w[i][pc] * w[pr][j]) // prev
            w[i][pc] = 0
        prev = w[pr][pc]
        pr += 1


def _np() -> None:
    """Fifty steps of a small gradient descent."""
    a, b = _X.copy(), _Y.copy()
    for _ in range(50):
        g = np.maximum(a @ b, 0.0) - 0.1
        a -= 1e-4 * (g @ b.T)
        b -= 1e-4 * (a.T @ g)


def _big() -> None:
    """Products, remainders and quotients of 1100-bit integers."""
    acc = 1
    for i in range(40):
        acc = acc * _B[i] % (_B[(i + 7) % 40] + 1)
    for i in range(30):
        acc += _B[i] * _B[i + 2] // _B[i + 1]


def _spawn() -> None:
    """Start and end a bare interpreter, as every cli command does."""
    subprocess.run([sys.executable, "-c", "pass"], check=True, capture_output=True)


UNITS = {"py": _py, "np": _np, "big": _big, "spawn": _spawn}


class Gauge:
    """Chunk timings of one process, each stamped with its midpoint.

    ``mix`` gives the units of each kind of work in a chunk (see the
    workloads' ``speed_mix``); a chunk takes ``self.ref_s`` in a fast spell."""

    def __init__(self, mix: dict):
        self.mix = mix
        self.ref_s = sum(n * UNIT_REF_S[kind] for kind, n in mix.items())
        for _ in range(5):  # warm caches before the first reading
            self.chunk()
        self.at: list[float] = []
        self.took: list[float] = []

    def chunk(self) -> None:
        for kind, n in self.mix.items():
            for _ in range(n):
                UNITS[kind]()

    def read(self) -> None:
        gc.disable()  # a collection of the program's garbage is not a reading
        t0 = time.perf_counter()
        self.chunk()
        t1 = time.perf_counter()
        gc.enable()
        self.at.append((t0 + t1) / 2)
        self.took.append(t1 - t0)

    def factor(self, start: float, end: float) -> float:
        """ref_s over the mean chunk within WINDOW_S of [start, end], which
        holds at least the readings right before and after the item."""
        lo = bisect.bisect_left(self.at, start - WINDOW_S)
        hi = bisect.bisect_right(self.at, end + WINDOW_S)
        return self.ref_s / statistics.fmean(self.took[lo:hi])
