"""The public facade: batch ``simulate()`` and live ``open_session()``.

The library's power users build :class:`~repro.sim.engine.Engine` objects
directly — attach observers, drive loops, snapshot mid-run.  Most callers
want one of two things:

* "run this config on this workload and give me the numbers" —
  :func:`simulate`, the batch path::

      >>> from repro import SimConfig, simulate
      >>> from repro.workloads import poisson_workload, ShortFlowDistribution
      >>> cfg = SimConfig(n=16, h=2, duration=20_000)
      >>> wl = poisson_workload(cfg, ShortFlowDistribution(), load=0.2)
      >>> result = simulate(cfg, wl, drain=True)
      >>> result.summary["cells_delivered"] > 0
      True

* "keep this network running and let me interact with it" —
  :func:`open_session`, the live path::

      >>> from repro import open_session
      >>> session = open_session(cfg, telemetry=True)
      >>> session.submit(wl[:10])
      10
      >>> session.advance(1_000)
      1000
      >>> result = session.finish(drain=True)

Both wire the common observers behind the *identical* keyword set
(``telemetry=``, ``monitor=``, ``digest=``, ``events=`` — one shared
wiring helper), both expose checkpoint/resume with a single ``checkpoint=``
path, and both produce the same :class:`RunResult`.  Incremental
``Session.advance`` stepping is bit-exact with an equivalent batch
``simulate`` over the same flows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Optional

from .service.session import Session, _wire_observers
from .sim.checkpoint import (
    check_interval,
    load_checkpoint_or_none,
    remove_checkpoint,
    restore_engine,
)
from .sim.config import SimConfig
from .sim.engine import Engine, ScheduledFlow, check_slots
from .sim.flows import FlowTable
from .sim.metrics import MetricsCollector

__all__ = ["RunResult", "Session", "open_session", "simulate"]


@dataclass
class RunResult:
    """What one run — batch :func:`simulate` or live
    :meth:`Session.finish <repro.service.session.Session.finish>` —
    produced.

    Attributes:
        config: the configuration the run used.
        metrics: the engine's aggregate counters and distributions.
        flows: the flow table (active + completed flows, FCTs).
        summary: ``metrics.summary()`` — the headline numbers as a dict.
        telemetry: the attached time-series recorder, when requested.
        events: the attached structured event log, when requested.
        digest: the run's determinism digest value, when requested.
        resumed_from: the timeslot the run resumed from (None = from 0).
        engine: the engine itself, for anything not surfaced above.
    """

    config: SimConfig
    metrics: MetricsCollector
    flows: FlowTable
    summary: Dict[str, float] = field(default_factory=dict)
    telemetry: Optional[object] = None
    events: Optional[object] = None
    digest: Optional[int] = None
    resumed_from: Optional[int] = None
    engine: Optional[Engine] = None


def open_session(
    config: SimConfig,
    workload: Optional[Iterable[ScheduledFlow]] = None,
    *,
    source=None,
    telemetry: Any = None,
    monitor: Any = None,
    digest: bool = False,
    events: Any = None,
    failures=None,
    checkpoint=None,
    checkpoint_every: Optional[int] = None,
) -> Session:
    """Open a live :class:`~repro.service.session.Session`.

    The live twin of :func:`simulate`: the same config, workload and
    observer keywords, but instead of running to completion it returns a
    session you drive incrementally — ``advance(slots)`` between
    ``submit(flows)`` calls, durability snapshots via ``checkpoint=``,
    and ``finish()`` for the :class:`RunResult`.

    Args:
        config: the run's :class:`~repro.sim.config.SimConfig`.
        workload: flows to pre-schedule before the first advance.
        source: an :class:`~repro.workloads.streaming.OpenLoopSource`
            pulled automatically by every ``advance``.
        telemetry / monitor / digest / events: observer wiring, identical
            to :func:`simulate`.
        failures: a :class:`~repro.failures.FailureManager` to apply.
        checkpoint: durability file path — resume from it when it exists,
            snapshot into it while running, removed on ``finish()``.
        checkpoint_every: snapshot interval in timeslots (default 100000).

    Returns:
        An open :class:`~repro.service.session.Session`.
    """
    return Session(
        config,
        workload,
        source=source,
        telemetry=telemetry,
        monitor=monitor,
        digest=digest,
        events=events,
        failures=failures,
        checkpoint=checkpoint,
        checkpoint_every=checkpoint_every,
    )


def simulate(
    config: SimConfig,
    workload: Optional[Iterable[ScheduledFlow]] = None,
    *,
    duration: Optional[int] = None,
    drain: bool = False,
    telemetry: Any = None,
    monitor: Any = None,
    digest: bool = False,
    events: Any = None,
    failures=None,
    checkpoint=None,
    checkpoint_every: Optional[int] = None,
) -> RunResult:
    """Run one simulation end to end and return a :class:`RunResult`.

    Args:
        config: the run's :class:`~repro.sim.config.SimConfig`.
        workload: scheduled flows to inject (``(t, src, dst, cells)``-style
            tuples from :mod:`repro.workloads`); None runs an idle network.
        duration: timeslots to simulate (default: ``config.duration``).
        drain: also run past the horizon until all admitted flows finish.
        telemetry: True to attach a fresh
            :class:`~repro.obs.timeseries.TimeSeriesRecorder`, or an
            already-built recorder to attach.
        monitor: True to attach a default
            :class:`~repro.sim.monitor.RunMonitor`, or a configured one.
        digest: record a :class:`~repro.sim.digest.DeterminismDigest` and
            return its value (for bit-exactness comparisons).
        events: True to attach an :class:`~repro.obs.events.EventLog`
            backed by an in-memory ring, or an already-built log.
        failures: a :class:`~repro.failures.FailureManager` to
            apply (ignored when resuming — the restored state carries it).
        checkpoint: a file path enabling checkpoint/resume: resume from it
            when it exists, periodically snapshot into it while running,
            remove it on clean completion.
        checkpoint_every: snapshot interval in timeslots (default 100000;
            only meaningful with ``checkpoint``).

    Returns:
        A :class:`RunResult`; bit-exact whether or not the run was
        interrupted and resumed through ``checkpoint``.
    """
    if duration is not None:
        check_slots(duration, "duration")
    if checkpoint_every is not None:
        check_interval(checkpoint_every, "checkpoint_every")
    resumed_from = None
    engine = None
    if checkpoint is not None:
        # a stale file from another experiment is discarded like any
        # other unusable one, with the loader's WARNING: start over
        saved = load_checkpoint_or_none(checkpoint, config)
        if saved is not None:
            engine = restore_engine(saved)
            resumed_from = engine.t
    if engine is None:
        engine = Engine(config, workload=None if workload is None
                        else list(workload),
                        failure_manager=failures)
    recorder, _, event_log = _wire_observers(
        engine, telemetry=telemetry, monitor=monitor,
        digest=digest, events=events,
    )
    if checkpoint is not None:
        engine.enable_checkpoints(
            checkpoint,
            100_000 if checkpoint_every is None else checkpoint_every)

    engine.run(duration)
    if drain:
        engine.run_until_quiescent()

    if checkpoint is not None:
        remove_checkpoint(checkpoint)
    return RunResult(
        config=config,
        metrics=engine.metrics,
        flows=engine.flows,
        summary=engine.metrics.summary(),
        telemetry=recorder,
        events=event_log,
        digest=None if engine.digest is None else engine.digest.value,
        resumed_from=resumed_from,
        engine=engine,
    )
