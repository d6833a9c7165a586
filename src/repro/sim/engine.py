"""The packet-level simulation engine.

The engine advances a synchronous timeslot clock.  Per slot
(:meth:`Engine.step`, the one place the order is written down) it:

1. advances the failure manager, if one is attached,
2. delivers transmissions whose propagation deadline has passed (RX paths),
3. injects flows whose arrival time has come,
4. runs the TX path of every node with work on this slot's link and puts
   the result on the wire,
5. samples metrics at the configured interval,
6. lets the run monitor, if one is attached, check the slot.

Propagation is modelled with a FIFO of in-flight transmissions: sends happen
in time order, so the deque stays sorted by arrival deadline and delivery is
O(1) per transmission.

The engine also hosts the two pieces of *global* machinery the paper's
baselines assume: the ISD clairvoyant flow registry (Section 5.3, baseline 3)
and the failure manager hooks (Section 3.4).
"""

from __future__ import annotations

import heapq
import logging
import random
from collections import deque
from typing import Callable, Deque, Dict, Iterable, List, Optional, Set, Tuple

from ..core.header import Token
from ..core.strategies import make_router, shared_schedule
from . import tables
from .backends import make_backend
from .backends import object_backend as _object_backend
from .config import SimConfig
from .digest import DeterminismDigest
from .flows import Flow, FlowTable, is_integer_field
from .metrics import MetricsCollector
from .node import Node, Transmission

__all__ = ["Engine", "ScheduledFlow"]

#: A flow injection request: (arrival timeslot, src, dst, size in cells,
#: size in bytes).
ScheduledFlow = Tuple[int, int, int, int, int]
FLOW_FIELDS = ("arrival", "src", "dst", "size_cells", "size_bytes")

#: Observers called with each freshly constructed Engine.  The telemetry
#: capture context (:class:`repro.obs.capture.TelemetryCapture`) registers
#: itself here so that engines built deep inside experiment modules pick up
#: instrumentation without any plumbing; the list is empty (one truthiness
#: check per construction) outside a capture context.
_construction_hooks: List[Callable[["Engine"], None]] = []

_backend_log = logging.getLogger("repro.backend")
#: (requested backend, reason) pairs already logged by this process
_fallbacks_logged: Set[Tuple[str, str]] = set()


def check_slots(value, name: str) -> int:
    """``value`` as a number of timeslots to run: an integer >= 0 (no
    ``bool``, no float to round), else a ValueError naming ``name``."""
    if not is_integer_field(value) or value < 0:
        raise ValueError(f"{name} must be an integer >= 0, got {value!r}")
    return value


class _OnFirstRead:
    """A root of the object model: ``Engine.nodes`` or ``Engine._in_flight``.

    A non-data descriptor, so the instance attribute shadows it: it runs
    only while the instance has no such attribute — before anything has
    read the object model, or while a backend's packed run is the engine's
    state (:meth:`Engine._park`) — and builds the model on that read.  Once
    the attributes exist the object pipeline reads them like any other.
    (``__getattr__`` on the class would do the same job, but takes every
    attribute load of every engine off CPython's specialised path; see
    DESIGN.md §11.)
    """

    def __set_name__(self, owner, name: str) -> None:
        self.name = name

    def __get__(self, engine, owner=None):
        if engine is None:
            return self
        engine._materialize(self.name)
        return vars(engine)[self.name]


def _advance_faults(engine: "Engine", t: int) -> None:
    engine.failure_manager.advance(engine, t)


def _check_monitor(engine: "Engine", t: int) -> None:
    engine.monitor.on_step_end(engine, t)


class Engine:
    """Simulates one Shale network running a single (sub-)schedule.

    Args:
        config: run parameters.
        workload: iterable of :data:`ScheduledFlow` tuples sorted by arrival
            time.  May also be supplied later via :meth:`schedule_flows`.
        failure_manager: optional failure-protocol implementation (an object
            with ``on_token`` and ``apply`` hooks; see
            :mod:`repro.failures.manager`).
    """

    #: the nodes and the wire of in-flight transmissions.  Neither exists
    #: until something reads it: a run that stays on a backend's slab
    #: never builds the ``n * h * (r - 1)`` queues of the object model
    nodes: List[Node] = _OnFirstRead()
    _in_flight: Deque[Transmission] = _OnFirstRead()

    def __init__(
        self,
        config: SimConfig,
        workload: Optional[Iterable[ScheduledFlow]] = None,
        failure_manager=None,
    ):
        self.config = config
        # schedule tables are immutable and depend only on (strategy, n, h):
        # every engine of a sweep shares one process-wide instance per size
        self.schedule = shared_schedule(config.schedule, config.n, config.h)
        self.coords = self.schedule.coords
        self.rng = random.Random(config.seed)
        #: routing strategy deciding each cell's admission shape; shares the
        #: engine RNG so strategy choice alone never forks the stream
        self.routing = make_router(config.routing, self.schedule, self.rng)
        self.flows = FlowTable()
        self.metrics = MetricsCollector(
            sample_interval=config.metrics_sample_interval,
            warmup=config.warmup,
        )
        #: one visit set per link index: the ids of the nodes that may send
        #: on that link (invariant: a node outside ``_visit[l]`` is failed,
        #: or its ``transmit`` on ``l`` returns None and changes nothing).
        #: A node enters a set when it gets work on that link, or all of
        #: them for work not tied to one link (``Node.wake``);
        #: ``object_backend.run_tx`` retires it from a set on the visit
        #: after which it owes that link nothing.  The plain model stores
        #: none: a load puts :func:`tables.busy_nodes` on every set.  Built
        #: before the nodes, which alias them
        self._visit: Tuple[Set[int], ...] = tuple(
            set() for _ in range(self.coords.h * (self.coords.r - 1)))
        #: reference switch for the visit sets: offer every live node every
        #: slot instead (must be event-identical; see tests/test_properties.py)
        self.force_full_scan = False
        #: recycled Transmission shells — a transmission dies as soon as its
        #: receiver processes it, so the wire re-uses the objects instead of
        #: allocating ~one per node per slot (identity is never observed).
        #: Built before the nodes, which cache a reference.
        self._tx_pool: List[Transmission] = []
        #: interned regular tokens by (dest, sprays), shared by every node
        #: (``Node._token_cache``); built before the nodes, which alias it
        self._token_cache: Dict[Tuple[int, int], Token] = {}
        #: the backend's packed run while it, not the object model, holds
        #: the nodes' and the wire's state (see :meth:`_park`)
        self._parked = None
        #: the nodes' and the wire's state as plain data no object has been
        #: filled from yet (see :meth:`_adopt_model`, :meth:`_plain_model`)
        self._pending_model: Optional[tables.PlainModel] = None
        #: the stale node objects of a parked run or a pending model, kept
        #: for :meth:`_materialize` to load into
        self._shelved_nodes: Optional[List[Node]] = None
        #: times the object model was materialised — built empty, or loaded
        #: from a parked run or a pending model; 0 for a run that never
        #: left the slab
        self.model_syncs = 0
        self.t = 0
        # hot-path caches for step()
        self._epoch_length = self.schedule.epoch_length
        self._phase_table = self.schedule.phase_table
        self._offset_table = self.schedule.offset_table
        #: payload cells currently on the wire — part of the
        #: cell-conservation invariant and the quiescence condition
        self._in_flight_payload = 0
        #: currently failed *directed* links as (sender, receiver) pairs;
        #: transmissions crossing one are lost on the wire
        self.failed_links: Set[Tuple[int, int]] = set()
        #: optional RunMonitor (see repro.sim.monitor) called once per slot
        self.monitor = None
        #: optional TimeSeriesRecorder (repro.obs.timeseries) fed one row
        #: per closed sample window; attach via its ``attach`` method
        self.telemetry = None
        #: optional EventLog (repro.obs.events) receiving structured
        #: ``(t, kind, payload)`` run events; attach via its ``attach``
        self.events = None
        #: optional StepProfiler (repro.obs.profiler); attach via
        #: :meth:`enable_profiler`, which also wraps the slot sections
        self.profiler = None
        #: optional OpenLoopSource (repro.workloads.streaming) a session
        #: pulls before each advance; a snapshot carries its state
        self.source = None
        self._pending_flows: Deque[ScheduledFlow] = deque()
        if workload is not None:
            self.schedule_flows(workload)
        self.failure_manager = failure_manager
        if failure_manager is not None:
            failure_manager.apply(self)
        #: optional CellTracer (see repro.sim.trace) recording cell paths
        self.tracer = None
        #: optional callable(cell, t) invoked on every payload delivery
        #: (used by repro.sim.reorder.ReorderTracker, among others)
        self.delivery_hook = None
        #: optional DeterminismDigest folding every delivery/drop/token
        #: event (see repro.sim.digest); attach via :meth:`enable_digest`
        self.digest: Optional[DeterminismDigest] = None
        # ISD bookkeeping: last time each flow's credit was topped up
        self._isd_last: Dict[int, int] = {}
        #: optional CheckpointWriter (repro.sim.checkpoint); when set the
        #: run driver cuts each loop into segments ending on snapshot slots
        self._checkpointer = None
        #: loop marker restored from a checkpoint: ``(ordinal, end)`` of the
        #: run/drain loop the snapshot was taken inside (None otherwise)
        self._resume: Optional[Tuple[int, int]] = None
        #: run/drain loops entered so far; a checkpoint records the ordinal
        #: so resume can fast-forward loops that completed before it
        self._loops_entered = 0
        #: observer state from a restored checkpoint, waiting for a
        #: monitor/recorder/event log to be attached and absorb it
        self._pending_restore: Optional[Dict[str, object]] = None
        #: the slot-loop backend (see repro.sim.backends): owns the slot
        #: loop.  Between its calls every engine-level attribute is
        #: current and the object model is one read away, so observers
        #: and manual step() always work
        self.backend = make_backend(config.backend)
        #: the pipeline that actually ran: starts as the configured backend
        #: name and is downgraded (sticky) by note_backend_effective() when
        #: an accelerated backend falls back to the reference pipeline — so
        #: manifests record the truth instead of a silent de-acceleration
        self.backend_effective: str = self.backend.backend_name
        #: why the backend fell back ("" while it has not): the feature or
        #: state that forced the reference pipeline, first occurrence
        self.backend_reason: str = ""
        if _construction_hooks:
            for hook in _construction_hooks:
                hook(self)

    def note_backend_effective(self, name: str, reason: str = "") -> None:
        """Record that the slot loop ran as ``name`` (e.g. ``"object"``).

        Called by accelerated backends when they fall back to the reference
        pipeline.  Records the effective name and the reason for the run
        manifest and ``Session.status()``, and logs one WARNING on the
        ``repro.backend`` logger per (requested backend, reason) per
        process — a sweep of a thousand small cells says it once.
        Downgrades are sticky: once any segment of a run fell back, the
        manifest says so even if later segments re-engage.
        """
        requested = self.backend.backend_name
        if name == requested:
            return
        self.backend_effective = name
        if not self.backend_reason:
            self.backend_reason = reason
        if (requested, reason) not in _fallbacks_logged:
            _fallbacks_logged.add((requested, reason))
            _backend_log.warning(
                "backend %r fell back to %r pipeline%s",
                requested, name, f" ({reason})" if reason else "",
            )

    # ------------------------------------------------------------------ #
    # the object model, on demand (see _OnFirstRead)

    @property
    def _built_nodes(self) -> Optional[List[Node]]:
        """The node list if the object model exists right now, else None
        (never materialises)."""
        return vars(self).get("nodes")

    def _materialize(self, forced_by: str) -> None:
        """Bring the object model into existence: build (or un-shelve) the
        nodes and an empty wire, then load the plain model that is waiting
        — a parked run's export (the run is dropped) or a restored
        checkpoint's pending one; none for an engine that has not run.
        The one place plain data becomes objects, which are authoritative
        from here on."""
        run, self._parked = self._parked, None
        model, self._pending_model = self._pending_model, None
        if run is not None:
            model = run.export_model()
        nodes, self._shelved_nodes = self._shelved_nodes, None
        if nodes is None:
            nodes = [Node(i, self) for i in range(self.config.n)]
        self.nodes = nodes
        self._in_flight = deque()
        if not self.model_syncs:
            _backend_log.debug(
                "object model of %r materialised by a read of %r",
                self, forced_by,
            )
        self.model_syncs += 1
        if model is not None:
            flow_lookup = self.flows.get
            for node, state in zip(nodes, tables.node_states(model)):
                node.load_state(state, flow_lookup)
            self._in_flight.extend(
                map(Transmission.from_state, tables.wire_states(model)))
            self._set_active(tables.busy_nodes(model))

    def _plain_model(self) -> Optional[tables.PlainModel]:
        """The plain model (:mod:`repro.sim.tables`) of whichever
        representation holds the state: a parked run exports its columns
        (and stays parked), a pending model is returned as it is, built
        objects encode themselves.  None for an engine that has not run
        and had nothing restored.  Builds no node."""
        if self._parked is not None:
            return self._parked.export_model()
        nodes = self._built_nodes
        if nodes is None:
            return self._pending_model
        rows = {name: [] for name in tables.TABLES}
        for node in nodes:
            node.state_rows(rows)
        for tx in self._in_flight:
            tx.state_rows(rows)
        return tables.model(rows)

    def _set_active(self, ids: List[int]) -> None:
        """Make ``ids`` the nodes with work: each is put on every link's
        visit set, and no other node on any — the entry point for
        imported state (the nodes alias the sets: refilled in place)."""
        for visit in self._visit:
            visit.clear()
            visit.update(ids)

    def _adopt_model(self, model: tables.PlainModel) -> None:
        """Make plain data (a checkpoint's payload) the engine's nodes and
        wire: a parked run is dropped, built nodes are shelved, and nothing
        is loaded until a backend packs ``model`` or something reads the
        objects."""
        self._parked = None
        self._pending_model = model
        self._shelve_objects()

    def _park(self, run) -> None:
        """Make a backend's packed ``run`` the engine's state.

        The run has synced everything that is not a node or a transmission
        (clock, flows, metrics, RNG), so every engine-level attribute reads
        as after an object run.  Whatever the run was packed from — a
        pending model, or objects, stale since then — is let go: the next
        read of ``nodes`` or ``_in_flight`` loads the run's export
        (:meth:`_materialize`), and a backend that finds the run here first
        continues on its columns.  A parked run holds no reference back, so
        dropping an engine that never built its nodes frees the slab at
        once instead of leaving it to the cycle collector.
        """
        self._parked = run
        run.engine = None
        self._pending_model = None
        self._shelve_objects()

    def _shelve_objects(self) -> None:
        """Take a stale object model off the instance (so no read can see
        it), keeping the node objects for the next :meth:`_materialize`."""
        if self._built_nodes is not None:
            self._shelved_nodes = self.nodes
            del self.nodes, self._in_flight

    def _reference_only_node(self) -> Optional[int]:
        """The first node holding state the slab has no column for, or
        None — one reduction over a pending model's tables, one walk over
        built nodes.  Always None for a parked run or an engine that has
        not run: neither holds anything but columns."""
        hbh = self.config.uses_hop_by_hop
        if self._pending_model is not None:
            return tables.reference_only_node(self._pending_model, hbh)
        for node in self._built_nodes or ():
            if (node.failed or node.pending_ctrl or node.rtx_queue
                    or node.failed_neighbors or node.known_failed
                    or node.link_invalid or node._force_dummy
                    or (node.pending_tokens and not hbh)):
                return node.node_id
        return None

    def enable_profiler(self):
        """Attach (and return) a step profiler; see repro.obs.profiler.

        Like the digest, the profiler is a pure observer: it wraps each
        section callable of the slot body in a timer and changes nothing
        else, so the simulated event stream is bit-identical with and
        without it.
        """
        from ..obs.profiler import SECTIONS, StepProfiler

        profiler = self.profiler = StepProfiler()
        self._sections = tuple(
            profiler.timed(name, section)
            for name, section in zip(SECTIONS, type(self)._sections)
        )
        return profiler

    def enable_digest(self) -> DeterminismDigest:
        """Attach (and return) a fresh event digest for equivalence tests.

        The digest is a pure observer: enabling it never changes simulated
        behavior, only records it.  Idempotent: a digest that already exists
        (e.g. restored from a checkpoint) is kept, so resumed runs keep
        accumulating the same event stream.
        """
        if self.digest is None:
            self.digest = DeterminismDigest()
        return self.digest

    # ------------------------------------------------------------------ #
    # workload plumbing

    def schedule_flows(self, workload: Iterable[ScheduledFlow]) -> None:
        """Queue flow arrivals; the batch must be sorted by arrival timeslot.

        The whole batch is checked before any of it is queued, so a
        rejected batch (``TypeError`` / ``ValueError``) leaves nothing
        behind: every field an int (a ``bool`` is not one) below ``2**63``
        (a checkpoint stores them as int64), ``src`` and ``dst`` distinct
        node ids, at least one cell, no negative bytes, arrivals sorted.
        A batch arriving before flows already queued (a source's arrivals
        behind a future-dated submission) is merged in by arrival, the
        queued flows first on ties.
        """
        batch = list(workload)
        n = self.config.n
        last = -1
        for item in batch:
            arrival, src, dst, size_cells, size_bytes = item
            if not all(map(is_integer_field, item)):
                raise TypeError(f"flow fields must be integers, got {item!r}")
            if max(item) >= 2**63:
                big = next(name for name, v in zip(FLOW_FIELDS, item)
                           if v >= 2**63)
                raise ValueError(f"flow {item!r}: {big} exceeds int64")
            if not (0 <= src < n and 0 <= dst < n) or src == dst:
                raise ValueError(
                    f"flow {item!r} needs distinct src and dst in [0, {n})")
            if size_cells < 1 or size_bytes < 0:
                raise ValueError(
                    f"flow {item!r} needs cells >= 1 and bytes >= 0")
            if arrival < last:
                raise ValueError("workload must be sorted by arrival time")
            last = arrival
        pending = self._pending_flows
        if batch and pending and batch[0][0] < pending[-1][0]:
            batch = list(heapq.merge(pending, batch, key=lambda f: f[0]))
            pending.clear()
        pending.extend(batch)

    def _inject_flows(self, t: int) -> None:
        pending = self._pending_flows
        while pending and pending[0][0] <= t:
            arrival, src, dst, size_cells, size_bytes = pending.popleft()
            node = self.nodes[src]
            if node.failed or self.nodes[dst].failed:
                continue
            node.add_flow(
                self._start_flow(t, arrival, src, dst, size_cells, size_bytes)
            )

    # ------------------------------------------------------------------ #
    # engine-level effects: what a flow starting, a flow finishing, a cell
    # dropped in a node and a sample window closing mean, written once.  A
    # pipeline (the object model, the slab, the shard parent) only works
    # out *what happened* and calls these; the event schema and the
    # sampling policy live here and in :mod:`repro.sim.metrics`

    def _start_flow(self, t: int, arrival: int, src: int, dst: int,
                    size_cells: int, size_bytes: int) -> Flow:
        """A flow enters the network at slot ``t``."""
        flow = self.flows.new_flow(
            src, dst, size_cells, arrival, size_bytes=size_bytes
        )
        if self.events is not None:
            self.events.emit(t, "flow_start", {
                "flow": flow.flow_id, "src": src, "dst": dst,
                "cells": size_cells,
            })
        return flow

    def _finish_flow(self, flow: Flow, t: int) -> None:
        """The last cell of ``flow`` was delivered at slot ``t``."""
        self.flows.finalize(flow, t)
        if self.events is not None:
            self.events.emit(t, "flow_end", {
                "flow": flow.flow_id, "src": flow.src, "dst": flow.dst,
                "cells": flow.size_cells, "fct": t - flow.arrival,
            })

    def drop_cell(self, cell, t: int) -> None:
        """A payload cell is dropped inside a node at slot ``t``."""
        self.metrics.on_drop()
        if self.digest is not None:
            self.digest.on_drop(cell, t)

    def _close_window(self, t: int, buffers, queue_lengths,
                      active_buckets: int) -> None:
        """The sample window ending at slot ``t`` closes: one metrics
        sample (:meth:`MetricsCollector.close_window` documents the two
        arrays), then the one telemetry row, which also reports
        ``active_buckets``, the most active buckets at any node now."""
        queued, max_queue, max_buffer = self.metrics.close_window(
            buffers, queue_lengths
        )
        if self.telemetry is not None:
            self.telemetry.on_window(
                self, t,
                queued=queued,
                max_queue=max_queue,
                max_buffer=max_buffer,
                active_buckets=active_buckets,
            )

    # ------------------------------------------------------------------ #
    # main loop

    def run(self, duration: Optional[int] = None) -> MetricsCollector:
        """Run for ``duration`` timeslots (default: ``config.duration``)."""
        if duration is None:
            duration = self.config.duration
        self._drive(self.t + check_slots(duration, "duration"), drain=False)
        return self.metrics

    def run_until_quiescent(self, max_extra: int = 1_000_000) -> MetricsCollector:
        """Keep stepping until every flow completes (or ``max_extra`` slots).

        Quiescence considers only *payload* traffic: with a failure manager
        attached, liveness probes keep crossing suspect links forever, so
        waiting for an empty wire would never terminate.
        """
        self._drive(self.t + check_slots(max_extra, "max_extra"), drain=True)
        return self.metrics

    def _drive(self, end: int, drain: bool) -> None:
        """The run driver: advance to ``end``, or to quiescence if ``drain``.

        Counts the loop entry (and resolves it against a restored loop
        marker), then hands the backend one segment at a time.  A segment
        ends on the next snapshot slot when checkpoints are enabled — so
        snapshots land on exact slots whatever the backend's own stride —
        and is the whole loop otherwise.
        """
        ordinal = self._loops_entered
        self._loops_entered = ordinal + 1
        if self._resume is not None:
            end = self._resume_end(ordinal, end)
            if end is None:
                return  # loop completed before the snapshot
        writer = self._checkpointer
        while self.t < end and (not drain or self.has_pending_work):
            target = end
            if writer is not None:
                target = min(end, max(writer.due_t, self.t + 1))
            self.backend.advance(self, target, drain)
            if writer is not None and self.t >= writer.due_t:
                writer.write(self, ordinal, end)

    @property
    def has_pending_work(self) -> bool:
        """Whether payload work remains (the drain loop's continue test).

        True while flows are waiting to inject, flows are still active, or
        payload cells are on the wire — the condition
        :meth:`run_until_quiescent` keeps stepping under, and the only
        place it is spelled out: the run driver and every backend ask
        here.  Public so incremental drivers (the live service) can drain
        in bounded steps without reaching into engine internals.
        """
        return bool(
            self._pending_flows
            or self.flows.active_count
            or self._in_flight_payload
        )

    def _resume_end(self, ordinal: int, end: int) -> Optional[int]:
        """Resolve a run/drain loop entry against a restored loop marker.

        A checkpoint taken inside loop ``k`` (by entry order) means loops
        ``< k`` already ran to completion before the snapshot — re-entering
        one is a no-op (returns None).  Loop ``k`` itself adopts the saved
        absolute end so the resumed run stops exactly where the original
        would have; later loops run normally.
        """
        resume_ordinal, resume_end = self._resume
        if ordinal < resume_ordinal:
            return None
        self._resume = None
        return resume_end if ordinal == resume_ordinal else end

    # ------------------------------------------------------------------ #
    # checkpoint/restore (see repro.sim.checkpoint for the format)

    def enable_checkpoints(self, path, every: int) -> "CheckpointWriter":
        """Write a snapshot to ``path`` every ``every`` timeslots, counted
        from now and then from each snapshot, on the exact slot, inside
        any run/drain loop (atomic replace; the file always holds the
        latest complete snapshot).  Returns the writer."""
        from .checkpoint import CheckpointWriter

        writer = self._checkpointer = CheckpointWriter(path, every)
        writer.arm(self.t)
        return writer

    def snapshot(self) -> "Checkpoint":
        """Capture the complete mutable simulation state as a
        :class:`~repro.sim.checkpoint.Checkpoint`."""
        from .checkpoint import snapshot_engine

        return snapshot_engine(self)

    @classmethod
    def restore(cls, checkpoint) -> "Engine":
        """Build a fresh engine resumed from ``checkpoint``.

        The resumed engine replays the remainder of the run bit-exactly:
        stepping it to the original end time yields the same digest,
        metrics and flow records as the uninterrupted run.
        """
        from .checkpoint import restore_engine

        return restore_engine(checkpoint)

    def discard_resume_plan(self) -> None:
        """Forget a restored loop marker; keep the restored state.

        A checkpoint taken inside a run/drain loop records which loop (by
        entry order) it interrupted, so code that *replays the original
        call sequence* — a sweep cell resuming its own checkpoint — can
        fast-forward completed loops and stop the interrupted one at its
        original end.  A :class:`~repro.service.session.Session` (and so
        ``simulate()``) does the opposite: it continues from the restored
        slot under its own advance schedule, so it must drop the marker or
        its first ``advance()`` calls would be swallowed as
        already-completed loops.
        """
        self._resume = None
        self._loops_entered = 0

    def step(self) -> None:
        """Advance the simulation by one timeslot."""
        t = self.t
        slot = t % self._epoch_length
        phase = self._phase_table[slot]
        self._slot(t, phase, self._offset_table[slot], phase)

    def _slot(self, t: int, phase: int, offset: int, rx_phase: int) -> None:
        """The slot body: the six sections, in order, once.

        ``phase``/``offset`` select this slot's TX link; ``rx_phase`` is
        the phase receivers are in, which differs from ``phase`` only under
        an interleaved master clock (:mod:`repro.sim.multiclass`).
        """
        faults, deliver, inject, tx, sample, monitor = self._sections
        if self.failure_manager is not None:
            faults(self, t)
        metrics = self.metrics
        if not metrics._measuring and t >= metrics.warmup:
            self._enter_measurement()
        if self._in_flight:
            deliver(self, t, rx_phase)
        if self._pending_flows:
            inject(self, t)
        tx(self, t, phase, offset)
        if t >= metrics.warmup and t % metrics.sample_interval == 0:
            sample(self)
        if self.monitor is not None:
            monitor(self, t)
        self.t = t + 1

    def _enter_measurement(self) -> None:
        """Cross the end of warm-up: start sampling, and re-baseline the
        telemetry deltas so the first post-warmup window starts clean."""
        self.metrics.begin_measurement()
        if self.telemetry is not None:
            self.telemetry.resnapshot(self.metrics)

    def wire_drop(self, tx: Transmission) -> None:
        """Account a payload cell lost on the wire and heal sender credit.

        The sender charged a token for the cell's next-hop bucket when it
        transmitted (the forward scan in ``Node.transmit``); the cell will
        never arrive to return it, so the credit is restored here.
        Final-hop cells were never charged.
        """
        self.metrics.on_wire_loss()
        cell = tx.cell
        if self.digest is not None:
            self.digest.on_wire_loss(cell, self.t)
        sender = self.nodes[tx.sender]
        if sender.uses_hbh and tx.receiver != cell.dst:
            # sprays_remaining was already decremented at transmit time, so
            # it names exactly the bucket that was charged.  The heal also
            # applies to a sender that failed after transmitting: a failed
            # node keeps its ledger until it recovers, so skipping the heal
            # would leak the charged bucket permanently.  Once it recovered,
            # reset_for_recovery has built a fresh ledger with no charge to
            # heal, and crediting an uncharged pair is a tolerated no-op —
            # which makes the unconditional heal safe in every interleaving.
            sender.ledger.credit(tx.receiver, (cell.dst, cell.sprays_remaining))

    def _sample_metrics(self) -> None:
        """What the object model holds at a sampling instant: one walk
        over the live nodes in id order.  Each node's occupancy is read,
        and its queues' lengths only when it holds cells (an empty node's
        are all zero)."""
        buffers: List[int] = []
        queue_lengths: List[int] = []
        active_buckets = 0
        for node in self.nodes:
            if node.failed:
                continue
            enqueued = node.total_enqueued
            buffers.append(enqueued)
            if enqueued:
                for items in node.link_queues:
                    if items:
                        queue_lengths.append(len(items))
            tracker = node.bucket_tracker
            if tracker is not None:
                active = len(tracker)
                if active > active_buckets:
                    active_buckets = active
        self._close_window(self.t, buffers, queue_lengths, active_buckets)

    #: the slot body's section callables, in
    #: :data:`repro.obs.profiler.SECTIONS` order, each taking the engine
    #: first; :meth:`enable_profiler` shadows this per instance with timed
    #: wrappers
    _sections = (
        _advance_faults,
        _object_backend.deliver_arrivals,
        _inject_flows,
        _object_backend.run_tx,
        _sample_metrics,
        _check_monitor,
    )

    # ------------------------------------------------------------------ #
    # ISD (idealized sender-driven) global rate control

    def isd_credit(self, flow: Flow, t: int) -> bool:
        """Top up and test the flow's ISD send credit.

        The global receiver-bandwidth budget ``R = isd_rate_factor / (2h)``
        is split evenly between the ``k`` flows currently addressing the
        destination, with instantaneous (clairvoyant) knowledge of ``k``.
        """
        rate = (
            self.config.isd_rate_factor
            * self.schedule.throughput_guarantee()
            / max(1, self.flows.flows_to(flow.dst))
        )
        last = self._isd_last.get(flow.flow_id, flow.arrival)
        if t > last:
            flow.credit = min(4.0, flow.credit + rate * (t - last))
            self._isd_last[flow.flow_id] = t
        return flow.credit >= 1.0

    # ------------------------------------------------------------------ #
    # failure hooks (delegated to the failure manager when present)

    def failures_on_token(self, node: Node, sender: int, token: Token,
                          phase: int) -> None:
        """Dispatch an invalidation/re-validation token to the manager."""
        if self.failure_manager is not None:
            self.failure_manager.on_token(self, node, sender, token, phase)

    # ------------------------------------------------------------------ #
    # conveniences

    def throughput(self) -> float:
        """Mean delivered payload per node per slot so far (line-rate frac)."""
        if self._pending_model is not None:
            failed = self._pending_model["scalars"][
                :, tables.col("scalars", "failed")].sum()
        else:
            failed = sum(node.failed for node in self._built_nodes or ())
        alive = self.config.n - int(failed)
        return self.metrics.mean_throughput_cells_per_slot(max(1, self.t), alive)

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"Engine(n={self.config.n}, h={self.config.h}, "
            f"cc={self.config.congestion_control!r}, t={self.t})"
        )

