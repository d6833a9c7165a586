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

There is one bootstrap: :func:`simulate` opens a
:class:`~repro.service.session.Session`, advances it to the horizon and
finishes it, so both paths take the same keywords, open, snapshot and
resume a run the same way and return the same :class:`RunResult`.  With
``checkpoint=`` a snapshot lands on every ``checkpoint_every``-th slot,
inside an advance too; a resumed run ignores ``workload=`` (the snapshot
holds the flows not yet injected) and is bit-exact with the uninterrupted
one.  A snapshot of another configuration is refused by name and its file
left in place; a truncated or foreign-version file is discarded with a
WARNING and the run starts at slot 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Optional

from .service.session import Session
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
    **options: Any,
) -> Session:
    """Open a live :class:`~repro.service.session.Session`; the arguments
    are its constructor's, documented there."""
    return Session(config, workload, **options)


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
    """Run one simulation end to end and return a :class:`RunResult`: a
    :class:`~repro.service.session.Session` advanced to the horizon and
    finished.

    Args:
        config: the run's :class:`~repro.sim.config.SimConfig`.
        workload: scheduled flows to inject (``(t, src, dst, cells)``-style
            tuples from :mod:`repro.workloads`); None runs an idle network.
        duration: timeslots to simulate (default: ``config.duration``).
        drain: also run past the horizon until all admitted flows finish
            (at most 1 000 000 slots past it).
        telemetry / monitor / digest / events / failures / checkpoint /
            checkpoint_every: as for the session.

    Returns:
        A :class:`RunResult`; bit-exact whether or not the run was
        interrupted and resumed through ``checkpoint``.
    """
    horizon = (config.duration if duration is None
               else check_slots(duration, "duration"))
    session = Session(
        config, workload, telemetry=telemetry, monitor=monitor,
        digest=digest, events=events, failures=failures,
        checkpoint=checkpoint, checkpoint_every=checkpoint_every)
    session.advance_to(max(horizon, session.t))
    # a run resumed inside its drain keeps the drain's original bound
    return session.finish(drain, max(0, horizon + 1_000_000 - session.t))
