"""Calibrated timing of units of work, and what the machine looked like.

A :class:`Meter` owns one run's calibration samples.  Every piece of work
goes through :meth:`Meter.timed`, which runs the calibration kernel before
and after it (consecutive units share the sample between them) and returns
a :class:`Timing` whose ``seconds`` / ``cpu_seconds`` are rescaled to the
reference machine speed (see :mod:`calib`).

The kernel runs at the workload's own parallelism: alone for workloads
that keep one core busy, and simultaneously in this process and one forked
helper for the 2-worker sweep — two busy cores on this box each run at
about two thirds of the speed one busy core gets, and a calibration taken
alone would not see that.
"""

from __future__ import annotations

import gc
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Sequence, Tuple

import numpy as np

from calib import (CAL_REF_S, CalibrationUnstable, calibrate, iqr_pct,
                   jitter_pct)

__all__ = [
    "Meter",
    "Timing",
    "cpu_clock",
    "machine_block",
    "peak_rss_mb",
    "percentile",
]

#: kernel runs per calibration: speed moves between two 100 ms runs, and
#: the mean of two tracks a unit's surroundings measurably better than one
_KERNEL_RUNS = 2
#: kernel runs in the start-of-run stability check
_BURST = 9
#: the check fails when back-to-back kernel runs differ by more than this
#: share of their median (see :func:`calib.jitter_pct`)
_JITTER_LIMIT_PCT = 25.0


def cpu_clock() -> float:
    """CPU seconds of this process plus every child already waited for."""
    return sum(os.times()[:4])


def _calibrate_pair() -> float:
    """The kernel in this process and a forked helper at once; their mean."""
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_end)
            os.write(write_end, repr(calibrate()).encode())
            status = 0
        finally:
            os._exit(status)
    os.close(write_end)
    try:
        mine = calibrate()
        theirs = float(os.read(read_end, 64))
    finally:
        os.close(read_end)
        os.waitpid(pid, 0)
    return (mine + theirs) / 2.0


@dataclass
class Timing:
    """One timed unit: raw numbers plus the calibration around it."""

    wall: float      #: raw wall-clock seconds
    cpu: float       #: raw CPU seconds, self + children waited for
    kernel: float    #: mean kernel seconds of the calibrations around it

    @property
    def scale(self) -> float:
        return CAL_REF_S / self.kernel

    @property
    def seconds(self) -> float:
        """Calibrated wall seconds."""
        return self.wall * self.scale

    @property
    def cpu_seconds(self) -> float:
        """Calibrated CPU seconds."""
        return self.cpu * self.scale


class Meter:
    """Calibration samples and timed units of one benchmark run."""

    def __init__(self, parallel: int = 1) -> None:
        self._kernel = calibrate if parallel == 1 else _calibrate_pair
        self.parallel = parallel
        #: kernel seconds of every kernel run so far
        self.samples: List[float] = []
        self._last = None
        self.loadavg = os.getloadavg()

    def calibrate(self) -> float:
        """One calibration: the mean of ``_KERNEL_RUNS`` kernel runs."""
        runs = [self._kernel() for _ in range(_KERNEL_RUNS)]
        self.samples.extend(runs)
        self._last = sum(runs) / len(runs)
        return self._last

    def check_stable(self) -> None:
        """Refuse to measure on a machine the kernel cannot track.

        Drift over seconds is what calibration corrects, and 20-30 % of it
        within a run is ordinary on a shared box; speed that jumps between
        back-to-back 100 ms kernel runs is not correctable, and numbers
        scaled by it should not be trusted.  One retry, then
        :class:`calib.CalibrationUnstable`.
        """
        for attempt in (1, 2):
            jitter = jitter_pct([self._kernel() for _ in range(_BURST)])
            if jitter <= _JITTER_LIMIT_PCT:
                return
            print(f"[bench] back-to-back calibrations differ by "
                  f"{jitter:.1f}% of their median (attempt {attempt}/2)",
                  file=sys.stderr)
            time.sleep(1.0)
        raise CalibrationUnstable(
            f"back-to-back calibration runs differ by {jitter:.1f}% of "
            f"their median, over {_JITTER_LIMIT_PCT:.0f}% twice in a row: "
            f"the machine is too noisy to report numbers"
        )

    def timed(self, work: Callable[[], Any]) -> Tuple[Any, Timing]:
        """Run ``work()`` between two calibrations."""
        gc.collect()
        before = self._last if self._last is not None else self.calibrate()
        cpu0 = cpu_clock()
        start = time.perf_counter()
        result = work()
        wall = time.perf_counter() - start
        cpu = cpu_clock() - cpu0
        after = self.calibrate()
        return result, Timing(wall, cpu, (before + after) / 2.0)

    def kernel_stats(self) -> Dict[str, float]:
        return {
            "calib.median_ms": 1e3 * statistics.median(self.samples),
            "calib.iqr_pct": iqr_pct(self.samples),
        }


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of ``values``."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


def _vm_hwm_kb(pid: int) -> int:
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


def peak_rss_mb(*live_pids: int) -> float:
    """Largest resident set, in MB, over this process, every child already
    waited for and the still-running ``live_pids``."""
    peaks = [
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    ]
    peaks.extend(_vm_hwm_kb(pid) for pid in live_pids)
    return max(peaks) / 1024.0


def machine_block(meter: Meter) -> Dict[str, Any]:
    """Where and under what conditions the numbers were taken."""
    block = {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "loadavg_at_start": list(meter.loadavg),
        "calibration_parallelism": meter.parallel,
        "cal_ref_ms": 1e3 * CAL_REF_S,
    }
    block.update(meter.kernel_stats())
    return block
