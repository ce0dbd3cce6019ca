"""Speed-normalized timing for a shared machine.

On a shared host the speed of one core drifts over seconds as other
tenants load it: a fixed loop of pure-Python work measured here took
anywhere from 1.0x to 1.8x its fastest time, in phases lasting tens of
seconds, so wall times of the same request differed by 15-25% between
runs.  The benchmark therefore times each request together with a fixed
calibration workload run just before and just after it, and reports

    wall_time * REFERENCE_S / calibration_time

that is, seconds at the speed at which the calibration takes
``REFERENCE_S``.  The calibration touches nothing of ``abpc`` and runs
with the cyclic garbage collector off, so a change to the program moves
the reported time exactly as it moves the wall time, while a drift of
the machine moves both and mostly cancels (README.md gives the measured
residue).
"""

from __future__ import annotations

import gc
import statistics
import time
from fractions import Fraction

# About one ``_work()`` call in the fast phase of the host the figures in
# README.md come from (2 cores, Python 3.11).  It only sets the scale of
# the reported seconds; changing it would rescale every time metric.
REFERENCE_S = 0.0005


def _work():
    """Interpreter dispatch, dict and tuple allocation, str and Fraction
    arithmetic: the operations that dominate abpc's own time."""
    acc = 0
    table = {}
    for i in range(1500):
        acc += i * i % 7
        table[(i, i % 13)] = (i, str(i))
    f = Fraction(0)
    for i in range(1, 60):
        f += Fraction(1, i)
    return acc, len(table), f


def sample(repeats: int = 3) -> float:
    """Median time of ``repeats`` calibration calls, collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            _work()
            times.append(time.perf_counter() - t0)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times)


class Timer:
    """Times consecutive calls, each scaled by the calibration around it."""

    def __init__(self) -> None:
        self.before = sample()

    def __call__(self, fn):
        """Run ``fn()``; return (result, wall seconds, normalized seconds)."""
        t0 = time.perf_counter()
        try:
            out = fn()
        finally:
            wall = time.perf_counter() - t0
            after = sample()
            scale = REFERENCE_S / ((self.before + after) / 2)
            self.before = after
        return out, wall, wall * scale
