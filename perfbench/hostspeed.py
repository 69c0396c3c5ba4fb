"""The speed of the host while a run measures, from two fixed loops.

The reference machine is a share of a busy host: the same command runs up to
50% slower for minutes at a time, and its CPU time slows with its wall time.
A run's raw medians therefore move with the host's load, not only with the
program.  After each command, ``run.py`` times two loops that do not use
mbparse, in its own process, whose heap stays small and alike from one
version of mbparse to the next, and with the garbage collector off, so that
the loops' times depend on the host and not on the objects a command left.  ``interp`` is interpreter-bound like training and bundle loading;
``array`` compares and sorts numpy rows like the learner's distance kernel.
``run.py`` multiplies each time by the host's speed over the run (``speed``),
so a time reads as seconds on the reference machine.  A change to mbparse
moves the scaled times as it moves the raw ones; the loops never run mbparse
code.

The two loops react to the host's load more strongly than mbparse does, and
in different ways, so one loop alone over- or under-corrects; the geometric
mean of the two tracked the program best in trials on the reference machine.
"""

from __future__ import annotations

import gc
import math
import statistics
import time

import numpy as np

# Seconds of one repetition of each loop on the reference machine (2 vCPUs,
# x86_64, Python 3.11, numpy 2.4) in its slower state; in its faster state
# the loops take about half as long.
REFERENCE_S = {"interp": 0.038, "array": 0.027}
REPEATS = 3

_TABLE = (np.arange(8000 * 8, dtype=np.int64) * 7919 % 50).astype(np.int32).reshape(8000, 8)
_ROWS = _TABLE[:64].copy()


def _interp() -> int:
    counts: dict = {}
    for i in range(40000):
        key = ("w%d" % (i % 997), i % 7)
        counts[key] = counts.get(key, 0) + 1
    return len(counts)


def _array() -> float:
    dist = np.zeros((_ROWS.shape[0], _TABLE.shape[0]))
    for i in range(_TABLE.shape[1]):
        dist += 0.5 * (_ROWS[:, i : i + 1] != _TABLE[None, :, i])
    return float(np.sort(dist, axis=1)[:, 0].sum())


LOOPS = {"interp": _interp, "array": _array}


def measure() -> dict[str, list[float]]:
    """Seconds of each repetition of each loop, the loops interleaved."""
    times: dict[str, list[float]] = {name: [] for name in LOOPS}
    collecting = gc.isenabled()
    gc.disable()
    try:
        for _ in range(REPEATS):
            for name, loop in LOOPS.items():
                start = time.perf_counter()
                loop()
                times[name].append(time.perf_counter() - start)
    finally:
        if collecting:
            gc.enable()
    return times


def speed(measurements) -> float:
    """The host's speed during ``measurements`` (results of ``measure``)
    relative to the reference machine: per loop, reference time ÷ median
    measured time, and the geometric mean of the two.  Below 1 when the host
    ran slower than the reference."""
    measurements = list(measurements)
    ratios = [REFERENCE_S[name] / statistics.median(t for m in measurements for t in m[name])
              for name in LOOPS]
    return math.prod(ratios) ** (1.0 / len(ratios))
