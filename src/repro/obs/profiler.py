"""Per-section wall-clock accounting of the engine step.

A slot is six named sections — failure-manager advance, delivery,
injection, TX, metrics sampling, monitor.  Attaching a profiler
(``engine.enable_profiler()``) replaces each section callable of the slot
body with a :meth:`StepProfiler.timed` wrapper; nothing else about the
slot changes, and an engine without a profiler runs the bare callables.
"""

from __future__ import annotations

import time
from typing import Callable, Dict

__all__ = ["StepProfiler"]

#: engine step sections, in execution order
SECTIONS = ("faults", "deliver", "inject", "tx", "sample", "monitor")


class StepProfiler:
    """Accumulates wall-clock time per engine-step section.

    Attributes:
        steps: timeslots advanced under the profiler so far.
        totals: section name -> cumulative seconds.
    """

    __slots__ = ("steps", "totals", "clock")

    def __init__(self) -> None:
        self.steps = 0
        self.totals: Dict[str, float] = {name: 0.0 for name in SECTIONS}
        #: the clock used to bracket sections (monotonic, sub-microsecond)
        self.clock = time.perf_counter

    def add(self, section: str, seconds: float, slots: int = 0) -> None:
        """Fold ``seconds`` into ``section`` and ``slots`` into the step
        count — the one way anything reaches the profile.  A backend that
        advances many slots in one opaque call (a shard segment) books the
        whole call as ``"tx"`` with the slots it advanced."""
        self.totals[section] += seconds
        self.steps += slots

    def timed(self, section: str, fn: Callable[..., None]
              ) -> Callable[..., None]:
        """``fn`` with every call's wall-clock folded into ``section``.

        TX is the one section that runs exactly once per slot in every
        pipeline, so its wrapper also counts the slot.
        """
        clock = self.clock
        add = self.add
        slots = 1 if section == "tx" else 0

        def timed_section(*args) -> None:
            started = clock()
            fn(*args)
            add(section, clock() - started, slots)

        return timed_section

    @property
    def total_seconds(self) -> float:
        """Wall-clock seconds across all sections."""
        return sum(self.totals.values())

    def report(self) -> Dict[str, object]:
        """Structured profile: totals, fractions and per-step means."""
        total = self.total_seconds
        sections = {}
        for name in SECTIONS:
            seconds = self.totals[name]
            sections[name] = {
                "seconds": seconds,
                "fraction": seconds / total if total > 0 else 0.0,
                "us_per_step": (
                    seconds * 1e6 / self.steps if self.steps else 0.0
                ),
            }
        return {
            "steps": self.steps,
            "seconds": total,
            "slots_per_sec": self.steps / total if total > 0 else 0.0,
            "sections": sections,
        }

    def format_report(self) -> str:
        """Human-readable rendering of :meth:`report`."""
        rep = self.report()
        lines = [
            f"step profile: {rep['steps']} slots in {rep['seconds']:.3f}s "
            f"({rep['slots_per_sec']:.0f} slots/sec)"
        ]
        for name in SECTIONS:
            sec = rep["sections"][name]
            lines.append(
                f"  {name:>8s}: {sec['seconds']:8.3f}s  "
                f"{100 * sec['fraction']:5.1f}%  "
                f"{sec['us_per_step']:8.2f} us/slot"
            )
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"StepProfiler(steps={self.steps}, "
            f"seconds={self.total_seconds:.3f})"
        )
