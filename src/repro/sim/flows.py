"""Flow lifecycle management for the simulator.

A *flow* is a unidirectional transfer of a fixed number of cells between two
end hosts.  Flows are injected by a workload generator, admit cells into the
network according to the active congestion-control policy, and complete when
the receiver has every cell.  The :class:`FlowTable` owns all flow state:
the active flows as objects, the completed ones as rows of one integer
table (:class:`CompletedFlows`), the form the FCT analysis reads.
"""

from __future__ import annotations

from collections import namedtuple
from numbers import Integral
from typing import Dict, Iterable, Iterator, Optional

import numpy as np

from .tables import table

__all__ = ["COMPLETED_COLUMNS", "CompletedFlow", "CompletedFlows", "Flow",
           "FlowTable", "is_integer_field"]


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
            self.credit,
        )

    @classmethod
    def from_state(cls, state: tuple) -> "Flow":
        flow = cls.__new__(cls)
        (flow.flow_id, flow.src, flow.dst, flow.size_cells,
         flow.size_bytes, flow.arrival, flow.sent, flow.delivered,
         flow.credit) = state
        return flow


#: a completed flow's row: the columns of :class:`CompletedFlows`, and of
#: the ``completed`` table a checkpoint stores
COMPLETED_COLUMNS = ("flow_id", "src", "dst", "size_cells", "size_bytes",
                     "arrival", "completed_at")


class CompletedFlow(namedtuple("CompletedFlow", COMPLETED_COLUMNS)):
    """One row of :class:`CompletedFlows`, built as it is read."""

    __slots__ = ()

    @property
    def fct(self) -> int:
        """Flow completion time in timeslots."""
        return self.completed_at - self.arrival


class CompletedFlows:
    """The completed flows of a run, in completion order, as rows of one
    ``(flows, 7)`` int64 table (columns :data:`COMPLETED_COLUMNS`): what a
    checkpoint stores and what the FCT analysis reads a column at a time.

    Rows fill blocks of :attr:`BLOCK` rows, so a flow costs its 56 B and
    growing the history never copies what it holds; a ``table`` to start
    from (a restored checkpoint's) is the first block, as it is.
    """

    BLOCK = 1024

    __slots__ = ("_blocks", "_fill")

    def __init__(self, table=()) -> None:
        block = np.array(table, dtype=np.int64).reshape(-1, 7)
        self._blocks = [block]
        self._fill = len(block)  # rows used in the last block

    def append(self, *row: int) -> None:
        """Add one row, its fields in :data:`COMPLETED_COLUMNS` order."""
        block = self._blocks[-1]
        if self._fill == len(block):
            block = np.empty((self.BLOCK, 7), dtype=np.int64)
            self._blocks.append(block)
            self._fill = 0
        block[self._fill] = row
        self._fill += 1

    def __len__(self) -> int:
        return sum(map(len, self._blocks[:-1])) + self._fill

    def table(self) -> np.ndarray:
        """Every row, as one new ``(flows, 7)`` int64 array."""
        return np.concatenate(
            self._blocks[:-1] + [self._blocks[-1][:self._fill]])

    def columns(self) -> Dict[str, np.ndarray]:
        """Column name -> that column of :meth:`table`."""
        return dict(zip(COMPLETED_COLUMNS, self.table().T))

    def __iter__(self) -> Iterator[CompletedFlow]:
        return map(CompletedFlow._make, self.table().tolist())


class FlowTable:
    """Registry of all flows in a run, active and completed."""

    def __init__(self) -> None:
        self._active: Dict[int, Flow] = {}
        self.completed = CompletedFlows()
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

    def finalize(self, flow: Flow, t: int) -> None:
        """Complete ``flow`` at time ``t``: its row joins :attr:`completed`.

        Callers must have already counted the final delivery (``delivered``
        at or past ``size_cells``); the simulator's delivery hot path inlines
        that counting and only calls here on the completing cell.
        """
        self.completed.append(flow.flow_id, flow.src, flow.dst,
                              flow.size_cells, flow.size_bytes,
                              flow.arrival, t)
        del self._active[flow.flow_id]
        remaining = self.incast_degree.get(flow.dst, 1) - 1
        if remaining:
            self.incast_degree[flow.dst] = remaining
        else:
            self.incast_degree.pop(flow.dst, None)

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
        holds ``Flow.state()`` but its one float field, which is beside it
        in ``credit``, ``completed`` is :attr:`completed`'s table."""
        active = list(self._active.values())
        return {
            "active": table([flow.state()[:8] for flow in active], 8),
            "credit": np.array([flow.credit for flow in active],
                               dtype=np.float64),
            "completed": self.completed.table(),
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
            flow = Flow.from_state((*row, credit))
            self._active[flow.flow_id] = flow
        self.completed = CompletedFlows(state["completed"])
        self._next_id = state["next_id"]
        self.incast_degree.clear()
        self.incast_degree.update(state["incast"].tolist())
