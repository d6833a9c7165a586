"""Live simulation sessions: the one way a run is opened, stepped,
snapshotted and resumed.

:func:`repro.api.simulate` is a session run to its horizon; a *service*
keeps the same engine alive between interactions — advance a few thousand
slots, accept newly arrived flows, snapshot for durability, read
telemetry, repeat.  :class:`Session` is that surface, and the one
bootstrap of a run:

* ``advance(slots)`` steps the engine incrementally.  The slot loop is the
  ordinary engine run loop, so any slicing of the timeline is bit-exact
  with a single batch run over the same flows (the differential machine,
  ``tests/test_differential.py``, holds it to that).
* ``submit(flows)`` injects work between steps — the open-loop counterpart
  of handing ``simulate`` a workload up front.
* an attached :class:`~repro.workloads.streaming.OpenLoopSource` is pulled
  automatically: each ``advance`` takes exactly the arrivals before its
  target slot, so a live trace and its materialised batch twin schedule
  identical flows.
* ``checkpoint=`` makes the session durable through the engine's
  :class:`~repro.sim.checkpoint.CheckpointWriter`: a snapshot lands on
  every ``checkpoint_every``-th slot counted from the last one, inside an
  advance too.  It holds the engine, the source as pulled up to that
  advance's target and, in the pending queue, the arrivals pulled but not
  injected yet.  Reopening with the same arguments resumes from it
  bit-exactly — telemetry columns included, so a restarted service
  regenerates a gap-free time series.  A resumed session ignores
  ``workload=`` (the snapshot holds the flows not yet injected), refuses
  a snapshot of another configuration by name and leaves that file in
  place; a truncated or foreign-version file is discarded with a WARNING
  and the run starts at slot 0.
* ``finish()`` produces the :class:`~repro.api.RunResult`.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence

from ..sim.checkpoint import (
    check_interval,
    load_checkpoint_or_none,
    remove_checkpoint,
    restore_engine,
    save_checkpoint,
)
from ..sim.config import SimConfig
from ..sim.engine import Engine, ScheduledFlow
from ..sim.flows import is_integer_field

__all__ = ["Session"]


class Session:
    """A live simulation: incremental stepping, submission, durability.

    Args:
        config: the run's :class:`~repro.sim.config.SimConfig`.
        workload: flows to pre-schedule (the batch-style argument; ignored
            when resuming — the snapshot holds the flows not yet
            injected); live flows arrive through :meth:`submit` or the
            attached source.
        source: an :class:`~repro.workloads.streaming.OpenLoopSource`
            pulled automatically by every :meth:`advance`; its generator
            state rides along in the snapshots so a restarted session
            replays the exact arrivals.
        telemetry: True to attach a fresh
            :class:`~repro.obs.timeseries.TimeSeriesRecorder`, or an
            already-built recorder to attach.
        monitor: True to attach a default
            :class:`~repro.sim.monitor.RunMonitor`, or a configured one.
        digest: record a :class:`~repro.sim.digest.DeterminismDigest`
            (for bit-exactness comparisons).
        events: True to attach an :class:`~repro.obs.events.EventLog`
            backed by an in-memory ring, or an already-built log.
        failures: a :class:`~repro.failures.FailureManager` to apply
            (ignored when resuming — the restored state carries it).
        checkpoint: file path enabling durability: resume from it when it
            exists, snapshot into it while running, remove it on
            :meth:`finish`.
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
        from ..obs.events import EventLog, RingSink
        from ..obs.timeseries import TimeSeriesRecorder
        from ..sim.monitor import RunMonitor

        if source is not None and source.config.n != config.n:
            raise ValueError(
                f"source was built for n={source.config.n}, "
                f"config says n={config.n}"
            )
        every = check_interval(
            100_000 if checkpoint_every is None else checkpoint_every,
            "checkpoint_every")
        self.config = config
        self.source = source
        self.checkpoint_path = checkpoint
        self.resumed_from: Optional[int] = None
        self.closed = False

        saved = (None if checkpoint is None
                 else load_checkpoint_or_none(checkpoint))
        if saved is None:
            engine = Engine(
                config,
                workload=None if workload is None else list(workload),
                failure_manager=failures,
            )
        else:
            if saved.config != config:
                raise ValueError(
                    f"checkpoint {checkpoint} was taken under a different "
                    f"configuration; refusing to resume from it"
                )
            engine = restore_engine(saved)
            # the run continues under this session's advances; the loops
            # of the run that wrote the snapshot are never replayed
            engine.discard_resume_plan()
            self.resumed_from = engine.t
            saved_source = saved.state.get("service", {}).get("source")
            if saved_source is not None:
                if source is None:
                    raise ValueError(
                        f"checkpoint {checkpoint} carries workload-source "
                        f"state but no source= was supplied; resuming "
                        f"without it would change the arrival stream"
                    )
                source.load_state(saved_source)
        engine.source = source
        self.engine = engine

        # attach order (digest, monitor, telemetry, events) is fixed so
        # restored observer state is absorbed the same way every time
        if digest:
            engine.enable_digest()
        self.monitor = None
        if monitor:
            self.monitor = (monitor if isinstance(monitor, RunMonitor)
                            else RunMonitor())
            self.monitor.attach(engine)
        # a built recorder with no row yet has len() 0: its type, not its
        # truth, says that one was passed
        if isinstance(telemetry, TimeSeriesRecorder):
            telemetry.attach(engine)
        elif telemetry:
            TimeSeriesRecorder().attach(engine)
        self.events = None
        if events:
            self.events = (events if isinstance(events, EventLog)
                           else EventLog([RingSink()]))
            self.events.attach(engine)
        self._writer = (None if checkpoint is None
                        else engine.enable_checkpoints(checkpoint, every))

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
        identical flows, then steps the engine, which writes any
        durability snapshot due inside the advance on its exact slot.
        ``pull=False`` steps without generating new load (incremental
        draining).
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
        stream.  The next periodic snapshot is due ``checkpoint_every``
        slots from this one.
        """
        self._check_open()
        path = path if path is not None else self.checkpoint_path
        if path is None:
            raise RuntimeError("session has no checkpoint path configured")
        save_checkpoint(self.engine.snapshot(), path)
        if self._writer is not None:
            self._writer.arm(self.engine.t)
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
