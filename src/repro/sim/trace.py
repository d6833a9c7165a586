"""Cell-path tracing and VLB path validation.

When a :class:`CellTracer` is attached to an engine, every payload cell's
hop sequence is recorded: ``(timeslot, from, to, sprays_remaining_at_send)``
per hop plus the delivery time.  Traces serve two purposes:

* debugging/analysis — where do cells spend their time, which hops queue;
* verification — :func:`validate_trace` checks that a completed trace is a
  legal Shale path: at most ``2h`` hops, a spraying semi-path of hops in
  consecutive phases followed by a direct semi-path in which every hop fixes
  one destination coordinate and never unfixes another, ending at the
  destination.  The integration test suite runs it over full simulations.

Tracing costs memory proportional to traffic; enable it for verification
runs, not for the large experiments.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..core.coordinates import CoordinateSystem
from ..core.schedule import Schedule

__all__ = ["CellTracer", "CellTrace", "validate_trace", "TraceError"]


class TraceError(AssertionError):
    """A recorded cell path violates Shale's routing discipline."""


class CellTrace:
    """The life of one cell: hops taken and (optionally) delivery."""

    __slots__ = ("flow_id", "seq", "src", "dst", "hops", "delivered_at",
                 "rerouted")

    def __init__(self, flow_id: int, seq: int, src: int, dst: int):
        self.flow_id = flow_id
        self.seq = seq
        self.src = src
        self.dst = dst
        #: list of (timeslot, from_node, to_node, sprays_at_send)
        self.hops: List[Tuple[int, int, int, int]] = []
        self.delivered_at: Optional[int] = None
        #: True when a failure reroute reset this cell's spraying
        self.rerouted = False

    @property
    def key(self) -> Tuple[int, int]:
        return (self.flow_id, self.seq)

    @property
    def path(self) -> List[int]:
        """Node sequence including both endpoints."""
        if not self.hops:
            return [self.src]
        return [self.hops[0][1]] + [hop[2] for hop in self.hops]

    @property
    def complete(self) -> bool:
        return self.delivered_at is not None

    def __repr__(self) -> str:  # pragma: no cover
        status = f"delivered@{self.delivered_at}" if self.complete else "in flight"
        return (
            f"CellTrace(flow={self.flow_id} seq={self.seq} "
            f"{'->'.join(map(str, self.path))} {status})"
        )


class CellTracer:
    """Records hop-by-hop traces of every payload cell in an engine run.

    Attach at construction time::

        engine = Engine(config, workload=wl)
        tracer = CellTracer.attach(engine)
        engine.run()
        for trace in tracer.completed():
            validate_trace(trace, engine.schedule)
    """

    def __init__(self, schedule: Schedule):
        self.schedule = schedule
        self._traces: Dict[Tuple[int, int], CellTrace] = {}

    @classmethod
    def attach(cls, engine) -> "CellTracer":
        """Create a tracer and install it on ``engine``."""
        tracer = cls(engine.schedule)
        engine.tracer = tracer
        return tracer

    # ------------------------------------------------------------------ #
    # hooks called by the engine

    def on_hop(self, cell, sender: int, receiver: int, t: int) -> None:
        """Record one transmitted hop of a payload cell."""
        key = (cell.flow_id, cell.seq)
        trace = self._traces.get(key)
        if trace is None:
            trace = CellTrace(cell.flow_id, cell.seq, cell.src, cell.dst)
            self._traces[key] = trace
        trace.hops.append((t, sender, receiver, cell.sprays_remaining))

    def on_deliver(self, cell, t: int) -> None:
        """Record final delivery."""
        trace = self._traces.get((cell.flow_id, cell.seq))
        if trace is not None:
            trace.delivered_at = t

    def on_reroute(self, cell) -> None:
        """Mark a failure-driven spraying reset."""
        trace = self._traces.get((cell.flow_id, cell.seq))
        if trace is not None:
            trace.rerouted = True

    # ------------------------------------------------------------------ #
    # queries

    def completed(self) -> List[CellTrace]:
        """Traces of cells that reached their destination."""
        return [t for t in self._traces.values() if t.complete]

    def in_flight(self) -> List[CellTrace]:
        """Traces of cells still somewhere in the network."""
        return [t for t in self._traces.values() if not t.complete]

    def trace(self, flow_id: int, seq: int) -> Optional[CellTrace]:
        """Look up one cell's trace."""
        return self._traces.get((flow_id, seq))

    def hop_count_histogram(self) -> Dict[int, int]:
        """Distribution of path lengths among delivered cells."""
        hist: Dict[int, int] = {}
        for trace in self.completed():
            hops = len(trace.hops)
            hist[hops] = hist.get(hops, 0) + 1
        return hist


def validate_trace(trace: CellTrace, schedule: Schedule) -> None:
    """Raise :class:`TraceError` unless ``trace`` is a legal Shale path.

    Checks (for traces without failure reroutes):

    1. the path starts at the cell's source and ends at its destination;
    2. at most ``2h`` hops;
    3. every hop connects phase neighbours, in the phase the schedule
       assigns to the hop's timeslot, at the right round-robin offset;
    4. spray hops (``sprays_at_send > 0`` on arrival semantics) happen in
       consecutive phases;
    5. each direct hop sets one destination coordinate and leaves already
       correct coordinates alone (monotone progress to the destination).
    """
    coords = schedule.coords
    h = coords.h
    if not trace.complete:
        raise TraceError(f"{trace!r}: not delivered")
    path = trace.path
    if path[0] != trace.src:
        raise TraceError(f"{trace!r}: starts at {path[0]}, not {trace.src}")
    if path[-1] != trace.dst:
        raise TraceError(f"{trace!r}: ends at {path[-1]}, not {trace.dst}")
    max_hops = 2 * h if not trace.rerouted else 4 * h
    if len(trace.hops) > max_hops:
        raise TraceError(
            f"{trace!r}: {len(trace.hops)} hops exceeds bound {max_hops}"
        )

    # The first h hops are the spraying semi-path (sprays always move, one
    # hop per consecutive phase); everything after is the direct semi-path.
    prev_spray_phase: Optional[int] = None
    for i, (t, sender, receiver, _sprays) in enumerate(trace.hops):
        phase = schedule.phase_of(t)
        offset = schedule.offset_of(t)
        expected = coords.neighbor_at_offset(sender, phase, offset)
        if expected != receiver:
            raise TraceError(
                f"{trace!r}: hop {sender}->{receiver} at t={t} but the "
                f"schedule connects {sender}->{expected} then"
            )
        if trace.rerouted:
            continue  # reroutes restart spraying; only check connectivity
        if i < h:
            # spraying semi-path: phases advance by one per hop
            if prev_spray_phase is not None and phase != (
                prev_spray_phase + 1
            ) % h:
                raise TraceError(
                    f"{trace!r}: spray hop {i} at phase {phase} does not "
                    f"follow phase {prev_spray_phase}"
                )
            prev_spray_phase = phase
        else:
            # direct hop: must strictly reduce coordinate distance
            before = coords.distance(sender, trace.dst)
            after = coords.distance(receiver, trace.dst)
            if after != before - 1:
                raise TraceError(
                    f"{trace!r}: direct hop {sender}->{receiver} distance "
                    f"{before}->{after}"
                )
