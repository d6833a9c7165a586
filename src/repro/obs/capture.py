"""Ambient telemetry capture for experiment runs.

The experiment modules build their engines internally, so the runner cannot
instrument them directly.  :class:`TelemetryCapture` is the ambient hook:
inside a ``with TelemetryCapture() as cap:`` block, every
:class:`~repro.sim.engine.Engine` constructed anywhere in the process is
automatically fitted with a :class:`~repro.obs.timeseries.TimeSeriesRecorder`
and an in-memory :class:`~repro.obs.events.EventLog`; ``cap.collect()``
then yields one payload per run (manifest, summary, series) ready for the
runner's ``--telemetry`` artifacts.

:func:`repro.sim.parallel.sweep` cooperates across process boundaries:
workers forked while a capture is active wrap their cells in a private
capture and ship the collected payloads home with the cell results
(:class:`SweepTelemetry`), which the parent merges in grid order — so
telemetry from parallel sweeps is as deterministic as from sequential runs.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, List, Optional, Tuple

from ..sim import engine as _engine_mod
from .events import EventLog, RingSink
from .manifest import run_manifest
from .timeseries import TimeSeriesRecorder

__all__ = ["TelemetryCapture", "SweepTelemetry", "current_capture"]

#: the innermost active capture (None outside any capture context)
_current: Optional["TelemetryCapture"] = None


def current_capture() -> Optional["TelemetryCapture"]:
    """The active :class:`TelemetryCapture`, or None."""
    return _current


class SweepTelemetry:
    """A sweep cell's result bundled with its collected telemetry.

    Built in :func:`repro.sim.parallel.sweep` workers (where the parent's
    capture object is unreachable) and unpacked by the parent, which keeps
    the result and merges the telemetry into its own capture.
    """

    __slots__ = ("result", "runs", "runtimes", "events")

    def __init__(self, result, runs, runtimes, events):
        self.result = result
        self.runs = runs
        self.runtimes = runtimes
        self.events = events


class TelemetryCapture:
    """Collects telemetry from every engine built while active.

    Each new engine gets a :class:`TimeSeriesRecorder` (unless it already
    has one) and an in-memory event ring (added as an extra sink when the
    engine already has an event log).
    """

    def __init__(self) -> None:
        # (engine, recorder, ring, wall-clock at registration)
        self._live: List[Tuple[object, object, object, float]] = []
        self._foreign: List[SweepTelemetry] = []
        self._previous: Optional["TelemetryCapture"] = None

    # ------------------------------------------------------------------ #
    # context management

    def __enter__(self) -> "TelemetryCapture":
        global _current
        self._previous = _current
        _current = self
        _engine_mod._construction_hooks.append(self._on_engine)
        return self

    def __exit__(self, *exc) -> None:
        global _current
        _current = self._previous
        self._previous = None
        try:
            _engine_mod._construction_hooks.remove(self._on_engine)
        except ValueError:  # pragma: no cover - hook list externally cleared
            pass

    # ------------------------------------------------------------------ #
    # engine registration (called from Engine.__init__ via the hook list)

    def _on_engine(self, engine) -> None:
        recorder = engine.telemetry
        if recorder is None:
            recorder = TimeSeriesRecorder().attach(engine)
        ring = RingSink()
        if engine.events is None:
            EventLog([ring]).attach(engine)
        else:
            engine.events.add_sink(ring)
        self._live.append((engine, recorder, ring, time.perf_counter()))

    def merge(self, item: SweepTelemetry) -> None:
        """Fold telemetry shipped home by a sweep worker into this capture."""
        self._foreign.append(item)

    @contextmanager
    def suspended(self):
        """Temporarily stop registering newly built engines with this capture.

        Used by :func:`repro.sim.parallel.sweep` when it evaluates a cell
        in-process (sequential mode, or the pool-unavailable fallback) while
        this capture is active: the cell runs under its own private
        :class:`TelemetryCapture` whose bundle is merged in grid order, and
        suspending the outer hook prevents the same engines from *also*
        registering here out of order.
        """
        hooked = self._on_engine in _engine_mod._construction_hooks
        if hooked:
            _engine_mod._construction_hooks.remove(self._on_engine)
        try:
            yield
        finally:
            if hooked:
                _engine_mod._construction_hooks.append(self._on_engine)

    # ------------------------------------------------------------------ #
    # collection

    def _local(self):
        runs: List[Dict] = []
        runtimes: List[Dict] = []
        events: List[Dict] = []
        for i, (engine, recorder, ring, wall0) in enumerate(self._live):
            wall = time.perf_counter() - wall0
            manifest = run_manifest(engine, wall_seconds=wall)
            run: Dict[str, object] = {
                "index": i,
                "manifest": manifest["run"],
                "summary": engine.metrics.summary(),
                "series": recorder.to_dict(),
            }
            runtime_entry: Dict[str, object] = {
                "index": i, "runtime": manifest["runtime"]}
            if engine.monitor is not None:
                run["monitor"] = engine.monitor.report()
                # one code path for scorecards and ad-hoc runs: the sidecar
                # carries the same reduced metrics scenario scoring uses,
                # and the full report lands in the event stream (the emit
                # happens before the ring is drained below)
                runtime_entry["resilience"] = \
                    engine.monitor.scorecard_metrics()
                engine.monitor.emit_report_event()
            runs.append(run)
            runtimes.append(runtime_entry)
            for record in ring.records:
                events.append({
                    "run": i,
                    "t": record["t"],
                    "kind": record["kind"],
                    "payload": record["payload"],
                })
        return runs, runtimes, events

    def collect_bundle(self):
        """All captured telemetry: ``(runs, runtimes, events)``.

        Runs are indexed in capture order — local registrations first, then
        merged sweep-worker bundles in merge (grid) order — and event
        records carry the global run index of the run that emitted them.
        """
        all_runs: List[Dict] = []
        all_runtimes: List[Dict] = []
        all_events: List[Dict] = []

        def extend(runs, runtimes, events):
            base = len(all_runs)
            for run in runs:
                run = dict(run)
                run["index"] = base + run["index"]
                all_runs.append(run)
            for runtime in runtimes:
                runtime = dict(runtime)
                runtime["index"] = base + runtime["index"]
                all_runtimes.append(runtime)
            for event in events:
                event = dict(event)
                event["run"] = base + event["run"]
                all_events.append(event)

        extend(*self._local())
        for item in self._foreign:
            extend(item.runs, item.runtimes, item.events)
        return all_runs, all_runtimes, all_events

    def collect(self) -> List[Dict]:
        """Deterministic per-run payloads (manifest, summary, series)."""
        return self.collect_bundle()[0]

    def collect_runtime(self) -> List[Dict]:
        """Volatile per-run payloads (wall clock, RSS, versions)."""
        return self.collect_bundle()[1]

    def collect_events(self) -> List[Dict]:
        """All event records, stamped with their global run index."""
        return self.collect_bundle()[2]
