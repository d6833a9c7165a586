"""Multi-class simulation over an interleaved schedule (paper Section 3.2.2).

Interleaving runs several sub-schedules side by side on the same physical
ports: the master clock hands each timeslot to exactly one sub-schedule, and
each cell lives entirely within one sub-schedule.  We therefore model an
interleaved network as a set of independent :class:`~repro.sim.engine.Engine`
instances — one per sub-schedule, each with its own queues and coordinate
system — stepped only on the master slots the interleave pattern assigns to
them.

Flow classification follows the interleave's flow-size cutoffs: short flows
ride the low-latency (high-``h``) sub-schedule, long flows the
high-throughput one.

Latency accounting is kept in *master* timeslots so that sub-schedule
dilation (the paper's "a sub-schedule allocated half of the timeslots will
take twice as long") shows up in the measured FCTs exactly as it would in a
real deployment.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from ..core.interleave import InterleavedSchedule
from .config import SimConfig
from .engine import Engine, ScheduledFlow, check_slots
from .flows import CompletedFlows

__all__ = ["MultiClassSimulation"]


class MultiClassSimulation:
    """Drives one engine per sub-schedule under a shared master clock.

    Args:
        interleave: the interleaved schedule (shares and cutoffs).
        base_config: configuration template; ``n`` must match the
            sub-schedules and ``h`` is overridden per class.
        workload: master-clock flow arrivals ``(t, src, dst, cells, bytes)``.
    """

    def __init__(
        self,
        interleave: InterleavedSchedule,
        base_config: SimConfig,
        workload: Optional[Iterable[ScheduledFlow]] = None,
    ):
        self.interleave = interleave
        self.engines: List[Engine] = []
        for i, spec in enumerate(interleave.specs):
            if spec.schedule.n != base_config.n:
                raise ValueError(
                    f"sub-schedule {spec.name} is for {spec.schedule.n} nodes, "
                    f"config says {base_config.n}"
                )
            cfg = replace(base_config, h=spec.schedule.h, seed=base_config.seed + i)
            self.engines.append(Engine(cfg))
        self.t = 0
        self._pending: List[ScheduledFlow] = sorted(workload or [])
        self._next_flow = 0

    def schedule_flows(self, workload: Iterable[ScheduledFlow]) -> None:
        """Add master-clock flow arrivals (re-sorts the queue)."""
        remaining = self._pending[self._next_flow:]
        remaining.extend(workload)
        remaining.sort()
        self._pending = remaining
        self._next_flow = 0

    def step(self) -> None:
        """Advance the master clock by one timeslot."""
        t = self.t
        owner = self.interleave.owner(t)
        self._dispatch_flows(t)
        engine = self.engines[owner]
        _, sub_t = self.interleave.sub_timeslot(t)
        schedule = engine.schedule
        # The sub-engine runs one of *its* slots — its TX link comes from
        # the sub-slot — but every timestamp it records is a master
        # timestamp, and receivers decode their current phase from the
        # master clock (the sub-engine's wall time).
        engine.t = t
        engine._slot(
            t,
            schedule.phase_of(sub_t),
            schedule.offset_of(sub_t),
            schedule.phase_of(t),
        )
        self.t = t + 1

    def _dispatch_flows(self, t: int) -> None:
        pending = self._pending
        while self._next_flow < len(pending) and pending[self._next_flow][0] <= t:
            arrival, src, dst, cells, size_bytes = pending[self._next_flow]
            self._next_flow += 1
            cls = self.interleave.classify_flow(cells)
            self.engines[cls].schedule_flows([(arrival, src, dst, cells, size_bytes)])

    def run(self, duration: int) -> None:
        """Run ``duration`` master timeslots."""
        end = self.t + check_slots(duration, "duration")
        while self.t < end:
            self.step()

    def run_until_quiescent(self, max_extra: int = 1_000_000) -> None:
        """Run until all engines drain (or the safety cap is hit)."""
        deadline = self.t + check_slots(max_extra, "max_extra")
        while self.t < deadline and any(
            e._pending_flows or e.flows.active_count or e._in_flight
            for e in self.engines
        ) or self._next_flow < len(self._pending):
            if self.t >= deadline:
                break
            self.step()

    # ------------------------------------------------------------------ #
    # telemetry

    def attach_telemetry(self) -> List[object]:
        """Attach a time-series recorder to every sub-schedule engine.

        Returns the recorders in class order; engines that already carry a
        recorder keep it.  Each class records its own per-window series
        (master-clock timestamps), which is the per-class breakdown the
        interleaving experiments report.
        """
        from ..obs.timeseries import TimeSeriesRecorder

        recorders = []
        for engine in self.engines:
            recorder = engine.telemetry
            if recorder is None:
                recorder = TimeSeriesRecorder().attach(engine)
            recorders.append(recorder)
        return recorders

    def telemetry_by_class(self) -> Dict[int, Dict[str, List[int]]]:
        """Per-class time series (class index -> column dict)."""
        return {
            i: engine.telemetry.to_dict()
            for i, engine in enumerate(self.engines)
            if engine.telemetry is not None
        }

    # ------------------------------------------------------------------ #
    # results

    def completed_flows(self) -> CompletedFlows:
        """All completed flows across classes (master-clock FCTs), class
        by class."""
        return CompletedFlows(np.concatenate(
            [engine.flows.completed.table() for engine in self.engines]))

    def completed_by_class(self) -> Dict[int, CompletedFlows]:
        """Completed flows grouped by sub-schedule index."""
        return {i: engine.flows.completed
                for i, engine in enumerate(self.engines)}

    def total_delivered_cells(self) -> int:
        """Payload cells delivered across every class."""
        return sum(e.metrics.payload_cells_delivered for e in self.engines)
