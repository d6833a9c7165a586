"""Flow lifecycle management for the simulator.

A *flow* is a unidirectional transfer of a fixed number of cells between two
end hosts.  Flows are injected by a workload generator, admit cells into the
network according to the active congestion-control policy, and complete when
the receiver has every cell.  The :class:`FlowTable` owns all flow state and
produces the per-flow records the FCT analysis consumes.
"""

from __future__ import annotations

from numbers import Integral
from typing import Dict, Iterable, List, Optional

import numpy as np

from .tables import table

__all__ = ["Flow", "FlowRecord", "FlowTable", "is_integer_field"]


def is_integer_field(value) -> bool:
    """Whether ``value`` may be a field of a scheduled flow: any integral
    type but ``bool`` (a JSON ``true`` is no node id or cell count)."""
    return type(value) is int or (
        isinstance(value, Integral) and not isinstance(value, bool))


class Flow:
    """An active flow at its sender.

    Attributes:
        flow_id: unique id.
        src / dst: endpoint node ids.
        size_cells: total cells to deliver.
        size_bytes: original size in bytes (for flow-size bucketing).
        arrival: timeslot at which the flow arrived at the sender.
        sent: cells admitted to the network so far.
        delivered: cells received by the destination so far.
    """

    __slots__ = (
        "flow_id",
        "src",
        "dst",
        "size_cells",
        "size_bytes",
        "arrival",
        "sent",
        "delivered",
        "completed_at",
        "credit",
    )

    def __init__(
        self,
        flow_id: int,
        src: int,
        dst: int,
        size_cells: int,
        arrival: int,
        size_bytes: Optional[int] = None,
    ):
        if size_cells < 1:
            raise ValueError("flow must contain at least one cell")
        if src == dst:
            raise ValueError("flow source and destination must differ")
        self.flow_id = flow_id
        self.src = src
        self.dst = dst
        self.size_cells = size_cells
        self.size_bytes = size_bytes if size_bytes is not None else size_cells * 244
        self.arrival = arrival
        self.sent = 0
        self.delivered = 0
        self.completed_at: Optional[int] = None
        #: transport-level send credit (used by RD/NDP/ISD policies)
        self.credit = 0.0

    @property
    def done_sending(self) -> bool:
        return self.sent >= self.size_cells

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"Flow({self.flow_id}: {self.src}->{self.dst}, "
            f"{self.delivered}/{self.size_cells} cells)"
        )

    def state(self) -> tuple:
        """All fields as a flat tuple (checkpoint encoding)."""
        return (
            self.flow_id, self.src, self.dst, self.size_cells,
            self.size_bytes, self.arrival, self.sent, self.delivered,
            self.completed_at, self.credit,
        )

    @classmethod
    def from_state(cls, state: tuple) -> "Flow":
        flow = cls.__new__(cls)
        (flow.flow_id, flow.src, flow.dst, flow.size_cells,
         flow.size_bytes, flow.arrival, flow.sent, flow.delivered,
         flow.completed_at, flow.credit) = state
        return flow


class FlowRecord:
    """Immutable record of a completed flow, for analysis."""

    __slots__ = ("flow_id", "src", "dst", "size_cells", "size_bytes",
                 "arrival", "completed_at")

    def __init__(self, flow: Flow):
        if flow.completed_at is None:
            raise ValueError("flow has not completed")
        self.flow_id = flow.flow_id
        self.src = flow.src
        self.dst = flow.dst
        self.size_cells = flow.size_cells
        self.size_bytes = flow.size_bytes
        self.arrival = flow.arrival
        self.completed_at = flow.completed_at

    @property
    def fct(self) -> int:
        """Flow completion time in timeslots."""
        return self.completed_at - self.arrival

    def state(self) -> tuple:
        """All fields as a flat tuple (checkpoint encoding)."""
        return (
            self.flow_id, self.src, self.dst, self.size_cells,
            self.size_bytes, self.arrival, self.completed_at,
        )

    @classmethod
    def from_state(cls, state: tuple) -> "FlowRecord":
        # bypass __init__, which demands a live completed Flow
        record = cls.__new__(cls)
        (record.flow_id, record.src, record.dst, record.size_cells,
         record.size_bytes, record.arrival, record.completed_at) = state
        return record

    def normalized_fct(self, propagation_delay: int) -> float:
        """Size-normalised FCT (paper Section 5).

        The ideal single-hop line-rate transfer of ``F`` cells with
        propagation delay ``P`` takes ``F + P`` slots; the normalised FCT is
        the measured FCT divided by that ideal.
        """
        ideal = self.size_cells + propagation_delay
        return self.fct / ideal


class FlowTable:
    """Registry of all flows in a run, active and completed."""

    def __init__(self) -> None:
        self._active: Dict[int, Flow] = {}
        self.completed: List[FlowRecord] = []
        self._next_id = 0
        #: per-destination count of flows currently being sent (for ISD)
        self.incast_degree: Dict[int, int] = {}

    def new_flow(
        self,
        src: int,
        dst: int,
        size_cells: int,
        arrival: int,
        size_bytes: Optional[int] = None,
    ) -> Flow:
        """Create, register and return a new flow."""
        flow = Flow(
            self._next_id, src, dst, size_cells, arrival, size_bytes
        )
        self._next_id += 1
        self._active[flow.flow_id] = flow
        self.incast_degree[dst] = self.incast_degree.get(dst, 0) + 1
        return flow

    def get(self, flow_id: int) -> Optional[Flow]:
        """Look up an active flow (None once completed)."""
        return self._active.get(flow_id)

    def finalize(self, flow: Flow, t: int) -> FlowRecord:
        """Complete ``flow`` at time ``t`` and return its record.

        Callers must have already counted the final delivery (``delivered``
        at or past ``size_cells``); the simulator's delivery hot path inlines
        that counting and only calls here on the completing cell.
        """
        flow.completed_at = t
        record = FlowRecord(flow)
        self.completed.append(record)
        del self._active[flow.flow_id]
        remaining = self.incast_degree.get(flow.dst, 1) - 1
        if remaining:
            self.incast_degree[flow.dst] = remaining
        else:
            self.incast_degree.pop(flow.dst, None)
        return record

    def active_flows(self) -> Iterable[Flow]:
        """Iterate flows that have not completed."""
        return self._active.values()

    @property
    def active_count(self) -> int:
        return len(self._active)

    def flows_to(self, dst: int) -> int:
        """Number of active flows destined to ``dst`` (ISD's global view)."""
        return self.incast_degree.get(dst, 0)

    def state_dict(self) -> dict:
        """The whole registry as tables (checkpoint encoding): ``active``
        holds ``Flow.state()`` up to ``delivered`` (an active flow has no
        completion time) with the one float field beside it in ``credit``,
        ``completed`` is ``(records, FlowRecord.state() fields)``."""
        active = list(self._active.values())
        return {
            "active": table([flow.state()[:8] for flow in active], 8),
            "credit": np.array([flow.credit for flow in active],
                               dtype=np.float64),
            "completed": table(
                [record.state() for record in self.completed], 7),
            "next_id": self._next_id,
            "incast": table(sorted(self.incast_degree.items()), 2),
        }

    def load_state(self, state: dict) -> None:
        """Restore :meth:`state_dict` output.

        Active flows are rebuilt as fresh objects in their original
        registration order; callers holding flow references (node
        ``local_flows`` lists) must re-resolve them through :meth:`get`.
        """
        self._active.clear()
        for row, credit in zip(state["active"].tolist(),
                               state["credit"].tolist()):
            flow = Flow.from_state((*row, None, credit))
            self._active[flow.flow_id] = flow
        self.completed[:] = map(
            FlowRecord.from_state, state["completed"].tolist())
        self._next_id = state["next_id"]
        self.incast_degree.clear()
        self.incast_degree.update(state["incast"].tolist())
