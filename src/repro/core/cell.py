"""Cell object model.

Shale is a cell-based network: every timeslot each node transmits exactly one
fixed-size cell (256 bytes in the paper's tuning — 12 bytes of header and 244
bytes of payload).  The simulator works with :class:`Cell` objects that carry
the routing and congestion-control state the header encodes, plus simulator
bookkeeping (timestamps) that a real network would not transmit.

A cell is only what a payload-carrying header says.  A transmission with
no payload — a bare header, carrying tokens, control messages or just
liveness — has no cell at all: its ``Transmission.cell`` is ``None``.
Nor does a cell keep the phase of its next spraying hop: under EBS every
phase-``p`` link changes exactly coordinate ``p``, so the link a cell
arrives on names it (the send phase plus one).

``Cell`` deliberately uses ``__slots__`` and plain integer fields: millions of
cells are alive during a large simulation and per-object overhead dominates
memory use.
"""

from __future__ import annotations

from typing import Tuple

__all__ = ["Cell", "CELL_SIZE_BYTES", "HEADER_SIZE_BYTES", "PAYLOAD_SIZE_BYTES"]

#: Total size of a cell on the wire, in bytes (paper Section 5).
CELL_SIZE_BYTES = 256
#: Header size, in bytes (paper Appendix C, Fig. 19).
HEADER_SIZE_BYTES = 12
#: Payload carried by each cell.
PAYLOAD_SIZE_BYTES = CELL_SIZE_BYTES - HEADER_SIZE_BYTES


class Cell:
    """A single fixed-size cell in flight or enqueued.

    Attributes:
        src: originating node id.
        dst: final destination node id.
        flow_id: id of the flow the cell belongs to (simulator-side).
        seq: sequence number within the flow.
        sprays_remaining: number of spraying hops still to be taken
            *after the current hop completes* — this is the bucket index the
            cell will be assigned at the next node.
        prev_hop: node the cell was most recently received from (-1 at the
            source, before the first hop).
        created_at: timeslot at which the cell was admitted to the network
            by its source.
        flow_size: total number of cells in the parent flow (used by the
            ``priority`` congestion-control baseline).
        hops: number of hops actually taken so far (simulator statistic).
    """

    __slots__ = (
        "src",
        "dst",
        "flow_id",
        "seq",
        "sprays_remaining",
        "prev_hop",
        "created_at",
        "flow_size",
        "hops",
    )

    def __init__(
        self,
        src: int,
        dst: int,
        flow_id: int = -1,
        seq: int = 0,
        sprays_remaining: int = 0,
        created_at: int = 0,
        flow_size: int = 1,
    ):
        self.src = src
        self.dst = dst
        self.flow_id = flow_id
        self.seq = seq
        self.sprays_remaining = sprays_remaining
        self.prev_hop = -1
        self.created_at = created_at
        self.flow_size = flow_size
        self.hops = 0

    def state(self) -> Tuple:
        """All nine fields as a flat tuple (checkpoint encoding)."""
        return (
            self.src, self.dst, self.flow_id, self.seq,
            self.sprays_remaining, self.prev_hop, self.created_at,
            self.flow_size, self.hops,
        )

    @classmethod
    def from_state(cls, state: Tuple) -> "Cell":
        """Rebuild a cell from :meth:`state` without re-running ``__init__``."""
        cell = cls.__new__(cls)
        (cell.src, cell.dst, cell.flow_id, cell.seq,
         cell.sprays_remaining, cell.prev_hop, cell.created_at,
         cell.flow_size, cell.hops) = state
        return cell

    def bucket(self) -> Tuple[int, int]:
        """The (destination, remaining-sprays) bucket this cell occupies."""
        return (self.dst, self.sprays_remaining)

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"Cell({self.src}->{self.dst} flow={self.flow_id} seq={self.seq} "
            f"sprays={self.sprays_remaining} hops={self.hops})"
        )
