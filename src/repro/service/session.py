"""Long-running simulation sessions: incremental stepping behind one API.

:func:`repro.api.simulate` runs a configuration to completion in one call;
a *service* needs the same engine kept alive between interactions — advance
a few thousand slots, accept newly arrived flows, snapshot for durability,
read telemetry, repeat.  :class:`Session` is that surface:

* ``advance(slots)`` steps the engine incrementally.  The slot loop is the
  ordinary engine run loop, so any slicing of the timeline is bit-exact
  with a single batch run over the same flows (pinned by the golden
  digest-equality tests in ``tests/test_service.py``).
* ``submit(flows)`` injects work between steps — the open-loop counterpart
  of handing ``simulate`` a workload up front.
* an attached :class:`~repro.workloads.streaming.OpenLoopSource` is pulled
  automatically: each ``advance`` takes exactly the arrivals before its
  target slot, so a live trace and its materialised batch twin schedule
  identical flows.
* ``checkpoint=`` makes the session durable: a snapshot (engine *plus*
  workload-source state) is written after any advance that crosses the
  ``checkpoint_every`` mark, and :func:`repro.api.open_session` resumes
  from it bit-exactly — including the telemetry columns, so a restarted
  service regenerates a gap-free time series.
* ``finish()`` produces the same :class:`~repro.api.RunResult` type the
  batch path returns.

Observer wiring (``telemetry=/monitor=/digest=/events=``) is shared with
``simulate`` through one helper, :func:`_wire_observers` — the two entry
points accept the identical keyword set by construction.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence

from ..sim.checkpoint import (
    check_interval,
    load_checkpoint_or_none,
    remove_checkpoint,
    save_checkpoint,
)
from ..sim.config import SimConfig
from ..sim.engine import Engine, ScheduledFlow
from ..sim.flows import is_integer_field

__all__ = ["Session"]


def _wire_observers(
    engine,
    *,
    telemetry: Any = None,
    monitor: Any = None,
    digest: bool = False,
    events: Any = None,
):
    """Attach the common observers to ``engine`` behind uniform keywords.

    The single wiring path shared by :func:`repro.api.simulate` and
    :class:`Session` — both accept the identical keyword set:

    * ``telemetry``: True for a fresh
      :class:`~repro.obs.timeseries.TimeSeriesRecorder`, or a built one.
    * ``monitor``: True for a default
      :class:`~repro.sim.monitor.RunMonitor`, or a configured one.
    * ``digest``: record a :class:`~repro.sim.digest.DeterminismDigest`.
    * ``events``: True for an :class:`~repro.obs.events.EventLog` backed
      by an in-memory ring, or an already-built log.

    Attach order (digest, monitor, telemetry, events) is fixed so both
    entry points absorb restored checkpoint observer state identically.
    Returns ``(recorder, monitor, event_log)`` — the attached instances or
    None each.
    """
    from ..obs.events import EventLog, RingSink
    from ..obs.timeseries import TimeSeriesRecorder
    from ..sim.monitor import RunMonitor

    if digest:
        engine.enable_digest()
    monitor_obj = None
    if monitor:
        monitor_obj = (monitor if isinstance(monitor, RunMonitor)
                       else RunMonitor())
        monitor_obj.attach(engine)
    # a built recorder with no row yet has len() 0: its type, not its
    # truth, says that one was passed
    recorder = (telemetry if isinstance(telemetry, TimeSeriesRecorder)
                else TimeSeriesRecorder() if telemetry else None)
    if recorder is not None:
        recorder.attach(engine)
    event_log = None
    if events:
        event_log = (events if isinstance(events, EventLog)
                     else EventLog([RingSink()]))
        event_log.attach(engine)
    return recorder, monitor_obj, event_log


class Session:
    """A live simulation: incremental stepping, submission, durability.

    Build one through :func:`repro.api.open_session`; the constructor
    mirrors ``simulate``'s keywords exactly (one shared wiring path) plus
    the session-specific ``source``.

    Args:
        config: the run's :class:`~repro.sim.config.SimConfig`.
        workload: flows to pre-schedule (the batch-style argument); live
            flows arrive through :meth:`submit` or the attached source.
        source: an :class:`~repro.workloads.streaming.OpenLoopSource`
            pulled automatically by every :meth:`advance`; its generator
            state rides along in session checkpoints so a restarted
            session replays the exact arrivals.
        telemetry / monitor / digest / events: observer wiring, identical
            to ``simulate`` (see :func:`_wire_observers`).
        failures: a :class:`~repro.failures.FailureManager` to apply
            (ignored when resuming — the restored state carries it).
        checkpoint: file path enabling durability: resume from it when it
            exists, periodically snapshot into it between advances, remove
            it on :meth:`finish`.
        checkpoint_every: snapshot interval in timeslots (default 100000).
    """

    def __init__(
        self,
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
    ):
        if source is not None and source.config.n != config.n:
            raise ValueError(
                f"source was built for n={source.config.n}, "
                f"config says n={config.n}"
            )
        self.config = config
        self.source = source
        self.checkpoint_path = checkpoint
        self.checkpoint_every = check_interval(
            100_000 if checkpoint_every is None else checkpoint_every,
            "checkpoint_every")
        self.resumed_from: Optional[int] = None
        self.closed = False

        engine = None
        if checkpoint is not None:
            saved = load_checkpoint_or_none(checkpoint)
            if saved is not None:
                if saved.config != config:
                    raise ValueError(
                        f"checkpoint {checkpoint} was taken under a "
                        f"different configuration; refusing to resume a "
                        f"live session from it"
                    )
                engine = Engine.restore(saved)
                # a session continues under a new advance schedule; the
                # original call sequence is never replayed
                engine.discard_resume_plan()
                self.resumed_from = engine.t
                service_state = saved.state.get("service")
                if service_state and service_state.get("source") is not None:
                    if source is None:
                        raise ValueError(
                            f"checkpoint {checkpoint} carries workload-"
                            f"source state but no source= was supplied; "
                            f"resuming without it would change the "
                            f"arrival stream"
                        )
                    source.load_state(service_state["source"])
        if engine is None:
            engine = Engine(
                config,
                workload=None if workload is None else list(workload),
                failure_manager=failures,
            )
        elif workload is not None:
            engine.schedule_flows(list(workload))
        self.engine = engine
        _, self.monitor, self.events = _wire_observers(
            engine, telemetry=telemetry, monitor=monitor,
            digest=digest, events=events,
        )
        self._next_checkpoint_t = engine.t + self.checkpoint_every

    # ------------------------------------------------------------------ #
    # the live surface

    @property
    def t(self) -> int:
        """The engine's current timeslot."""
        return self.engine.t

    @property
    def recorder(self):
        """The telemetry recorder attached to the engine now (None without
        one) — also one attached after the session opened, which every
        telemetry read and the snapshot then report."""
        return self.engine.telemetry

    def _check_open(self) -> None:
        if self.closed:
            raise RuntimeError("session is finished; open a new one")

    def submit(
        self,
        flows: Sequence[ScheduledFlow],
        *,
        late: str = "raise",
    ) -> int:
        """Schedule flows for injection; returns how many were accepted.

        Flows must be sorted by arrival slot.  Arrivals before the current
        slot cannot be injected in the past; ``late="raise"`` (the
        default, for deterministic replays) rejects them, ``late="clamp"``
        moves them to the current slot (what a live control plane wants —
        a flow submitted "now" starts now).  A malformed flow rejects the
        whole batch and queues none of it
        (:meth:`~repro.sim.engine.Engine.schedule_flows`).
        """
        self._check_open()
        if late not in ("raise", "clamp"):
            raise ValueError(f"late must be 'raise' or 'clamp', got {late!r}")
        now = self.engine.t
        batch: List[ScheduledFlow] = []
        for item in flows:
            item = tuple(item)
            if len(item) != 5:
                raise ValueError(
                    f"flow tuple must have 5 fields "
                    f"(arrival, src, dst, cells, bytes), got {item!r}"
                )
            if not is_integer_field(item[0]):
                raise TypeError(f"flow arrival must be an integer: {item!r}")
            if item[0] < now:
                if late == "raise":
                    raise ValueError(
                        f"flow arrival {item[0]} is in the past "
                        f"(session is at slot {now}); submit earlier or "
                        f"use late='clamp'"
                    )
                item = (now,) + item[1:]
            batch.append(item)
        self.engine.schedule_flows(batch)
        return len(batch)

    def advance(self, slots: int, *, pull: bool = True) -> int:
        """Run ``slots`` timeslots; returns the new current slot.

        Pulls the attached source (exactly the arrivals before the target
        slot) first, so live generation and batch pre-scheduling inject
        identical flows, then steps the engine and writes a durability
        snapshot if the advance crossed the checkpoint mark.  ``pull=False``
        steps without generating new load (incremental draining).
        """
        self._check_open()
        if slots <= 0:
            raise ValueError(f"slots must be >= 1, got {slots}")
        target = self.engine.t + slots
        if pull and self.source is not None:
            arrivals = self.source.take(target)
            if arrivals:
                self.engine.schedule_flows(arrivals)
        self.engine.run(slots)
        if (self.checkpoint_path is not None
                and self.engine.t >= self._next_checkpoint_t):
            self.checkpoint_now()
        return self.engine.t

    def advance_to(self, target: int) -> int:
        """Run until the engine reaches absolute slot ``target``."""
        self._check_open()
        if target < self.engine.t:
            raise ValueError(
                f"target {target} is before the current slot {self.engine.t}"
            )
        if target > self.engine.t:
            self.advance(target - self.engine.t)
        return self.engine.t

    def adjust_load(self, factor: float) -> float:
        """Scale the attached source's arrival rate going forward."""
        self._check_open()
        if self.source is None:
            raise RuntimeError("session has no workload source to adjust")
        return self.source.set_load_factor(factor)

    # ------------------------------------------------------------------ #
    # durability

    def checkpoint_now(self, path=None) -> Optional[object]:
        """Write a durability snapshot immediately; returns the path.

        The snapshot carries the engine state plus the workload source's
        generator state, so a resumed session continues the exact arrival
        stream.
        """
        self._check_open()
        path = path if path is not None else self.checkpoint_path
        if path is None:
            raise RuntimeError("session has no checkpoint path configured")
        snapshot = self.engine.snapshot()
        snapshot.state["service"] = {
            "source": (None if self.source is None
                       else self.source.state_dict()),
        }
        save_checkpoint(snapshot, path)
        self._next_checkpoint_t = self.engine.t + self.checkpoint_every
        return path

    # ------------------------------------------------------------------ #
    # telemetry over the wire

    def telemetry_rows(self, since: int = 0,
                       limit: Optional[int] = None) -> List[Dict[str, int]]:
        """Closed sample windows from row index ``since`` on, as dicts —
        at most ``limit`` of them; only the rows returned are built.

        Row indices are stable across checkpoint/restart (the recorder's
        columns are part of the snapshot), which is what lets a client
        compose a gap-free stream over a server crash: re-fetch from the
        last index it saw and deduplicate on ``t``.
        """
        if self.recorder is None:
            return []
        series = self.recorder.series()
        columns = self.recorder.COLUMNS
        start = max(0, since)
        stop = len(self.recorder)
        if limit is not None:
            stop = min(stop, start + max(0, limit))
        values = [series[name][start:stop].tolist() for name in columns]
        return [dict(zip(columns, row)) for row in zip(*values)]

    def telemetry_row_count(self) -> int:
        """Closed sample windows recorded so far (0 without telemetry)."""
        return 0 if self.recorder is None else len(self.recorder)

    def status(self) -> Dict[str, object]:
        """A cheap live snapshot of where the run is."""
        engine = self.engine
        metrics = engine.metrics
        return {
            "t": engine.t,
            "n": self.config.n,
            "h": self.config.h,
            "congestion_control": self.config.congestion_control,
            "backend": engine.backend_effective,
            "backend_reason": engine.backend_reason,
            "model_syncs": engine.model_syncs,
            "active_flows": engine.flows.active_count,
            "completed_flows": len(engine.flows.completed),
            "cells_delivered": metrics.payload_cells_delivered,
            "cells_injected": metrics.cells_injected,
            "load_factor": (None if self.source is None
                            else self.source.factor),
            "source_emitted": (None if self.source is None
                               else self.source.emitted),
            "telemetry_rows": self.telemetry_row_count(),
            "resumed_from": self.resumed_from,
            "closed": self.closed,
        }

    # ------------------------------------------------------------------ #
    # completion

    def finish(self, drain: bool = False, max_extra: int = 1_000_000):
        """Close the session and return the run's RunResult.

        With ``drain`` the engine keeps stepping past the last advance
        until every admitted flow completes (the batch path's ``drain=``).
        The checkpoint file is removed — the run completed, so the resume
        point must not outlive it.
        """
        self._check_open()
        from ..api import RunResult

        if drain:
            self.engine.run_until_quiescent(max_extra)
        if self.checkpoint_path is not None:
            remove_checkpoint(self.checkpoint_path)
        self.closed = True
        engine = self.engine
        return RunResult(
            config=self.config,
            metrics=engine.metrics,
            flows=engine.flows,
            summary=engine.metrics.summary(),
            telemetry=self.recorder,
            events=self.events,
            digest=None if engine.digest is None else engine.digest.value,
            resumed_from=self.resumed_from,
            engine=engine,
        )

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if not self.closed:
            if exc_type is None:
                self.finish()
            else:
                self.closed = True  # abandoned; keep checkpoints for resume

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"Session(n={self.config.n}, t={self.engine.t}, "
            f"active={self.engine.flows.active_count}, "
            f"closed={self.closed})"
        )
