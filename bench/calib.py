"""The frozen calibration kernel.

Host time on the shared 2-vCPU box drifts by tens of percent with the
neighbours' load, in wall clock and in ``process_time`` alike, so raw
seconds from two runs cannot be compared.  Every timed piece of work (a
*unit*) is therefore bracketed by this fixed kernel, and reported in
*calibrated seconds*::

    calibrated = wall * CAL_REF_S / mean(kernel_before, kernel_after)

i.e. the time the unit would have taken had the kernel run at its
reference speed throughout.  The kernel is half interpreter-bound and
half numpy-bound because the simulator is: the object pipeline is dict /
list / int bytecode, the vector slab is gather / ``where`` / ``sum`` on
int64 columns.

FROZEN: the iteration counts below were tuned once so the kernel takes
about ``CAL_REF_S`` on the idle reference box.  Changing them, or the
kernel body, rescales every calibrated number ever recorded — don't.
This module must import nothing from ``repro``.
"""

from __future__ import annotations

import statistics
import time
from typing import Callable, List, Sequence

import numpy as np

__all__ = [
    "CAL_REF_S",
    "CalibrationUnstable",
    "calibrate",
    "iqr_pct",
    "jitter_pct",
    "kernel",
]

#: the kernel's duration on the idle reference box, in seconds
CAL_REF_S = 0.100

#: interpreter half: iterations of the dict/list/int loop
_PY_ITERS = 150_000
#: numpy half: rounds of gather / where / sum over the int64 array
_NP_ROUNDS = 2_000
_NP_SIZE = 4096

_INDEX = (np.arange(_NP_SIZE, dtype=np.int64) * 2654435761) % _NP_SIZE
_BASE = np.arange(_NP_SIZE, dtype=np.int64)

#: what :func:`kernel` returns — proves the work was done as written
_CHECKSUM = 3077557005


class CalibrationUnstable(RuntimeError):
    """The calibration kernel itself is too noisy to scale anything by."""


def kernel() -> int:
    """Run the fixed work once; returns its checksum."""
    table = {}
    ring: List[int] = [0] * 64
    acc = 0
    for i in range(_PY_ITERS):
        key = (i * 7919) & 1023
        acc = (acc + table.get(key, i)) & 0xFFFFFFFF
        table[key] = acc ^ i
        ring[i & 63] = acc
        if i & 7 == 0:
            acc += ring[(i >> 3) & 63]
    values = _BASE.copy()
    total = 0
    for _ in range(_NP_ROUNDS):
        gathered = values[_INDEX]
        values = np.where(gathered & 1, gathered + 3, gathered >> 1)
        total += int(values.sum())
    return (acc + total) & 0xFFFFFFFFFFFF


def calibrate(clock: Callable[[], float] = time.perf_counter) -> float:
    """Seconds one kernel run takes right now."""
    start = clock()
    checksum = kernel()
    elapsed = clock() - start
    if checksum != _CHECKSUM:
        raise RuntimeError(
            f"calibration kernel returned {checksum}, not {_CHECKSUM}: it "
            f"no longer does the work every recorded number was scaled by")
    return elapsed


def iqr_pct(values: Sequence[float]) -> float:
    """Interquartile range as a percentage of the median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return 100.0 * (q3 - q1) / statistics.median(values)


def jitter_pct(values: Sequence[float]) -> float:
    """Median absolute difference between *consecutive* samples, as a
    percentage of the median: how far machine speed moves between two
    back-to-back kernel runs.  Drift over seconds (which :func:`iqr_pct`
    of a whole run shows, and which calibration exists to remove) barely
    registers here; speed that jumps from one 100 ms run to the next —
    which no calibration can follow — does.
    """
    steps = [abs(b - a) for a, b in zip(values, values[1:])]
    return 100.0 * statistics.median(steps) / statistics.median(values)
