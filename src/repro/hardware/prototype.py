"""Cycle-level model of the FPGA end-host prototype (paper Section 4, App. C).

The paper validates its packet simulator against a Bluespec prototype
simulated in ModelSim (Fig. 8): identical 16-node permutation workloads run
on both, and throughput plus maximum queue length are compared.

This module is our stand-in for the ModelSim side: an *independently
structured* simulation of the end host that follows the hardware's RX/TX
pipelines step by step —

* TX: get neighbour (1 cycle) -> PIEO dequeue attempt (up to 3 cycles) ->
  load cell from forward/local queue, spend token, enqueue return token
  (1 cycle) -> add up to 2 tokens and start sending (1 cycle); ~7 cycles
  total in the critical path;
* RX: receive cell (1 cycle) -> classify + compute next hop (1 cycle) ->
  update token counts, write buffer, enqueue bucket id in PIEO (1 cycle);
  2 cycles in the critical path after the cell lands.

The model enforces the DE5-Net timing budget: at 156.25 MHz a 68-cycle
timeslot (Section 5.1) must fit both paths, and it tracks cycle consumption
so configurations that would not fit in hardware are rejected rather than
silently mis-simulated.

Functionally the prototype executes the same protocol as
:class:`repro.sim.node.Node`, but the code path is written against the
hardware data structures (per-phase/per-bucket FIFOs + bucket-id PIEO queues
+ active-bucket index allocation) instead of the simulator's flat cell
queues, giving the cross-validation real teeth: agreement means two
different implementations of the spec agree, exactly as in the paper.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from ..core.buckets import BucketId
from ..core.cell import Cell
from ..core.coordinates import CoordinateSystem
from ..core.schedule import Schedule

__all__ = ["HardwareTimings", "HardwareNode", "HardwareNetwork"]


class HardwareTimings:
    """Clock/timeslot budget of the prototype (DE5-Net defaults).

    Attributes:
        clock_mhz: FPGA clock (156.25 MHz on the DE5-Net).
        cycles_per_slot: clock cycles per timeslot (68 in Section 5.1).
        tx_cycles: TX critical path length.
        rx_cycles: RX critical path length.
        link_gbps: per-port line rate (10 Gbps on the DE5-Net).
        cell_bytes: cell size used by the prototype run (512 B in Fig. 8).
    """

    def __init__(
        self,
        clock_mhz: float = 156.25,
        cycles_per_slot: int = 68,
        tx_cycles: int = 7,
        rx_cycles: int = 2,
        link_gbps: float = 10.0,
        cell_bytes: int = 512,
    ):
        if cycles_per_slot < tx_cycles + rx_cycles:
            raise ValueError(
                "timeslot budget cannot fit the TX and RX pipelines: "
                f"{cycles_per_slot} < {tx_cycles} + {rx_cycles}"
            )
        self.clock_mhz = clock_mhz
        self.cycles_per_slot = cycles_per_slot
        self.tx_cycles = tx_cycles
        self.rx_cycles = rx_cycles
        self.link_gbps = link_gbps
        self.cell_bytes = cell_bytes

    @property
    def cycle_ns(self) -> float:
        """Nanoseconds per clock cycle."""
        return 1e3 / self.clock_mhz

    @property
    def slot_ns(self) -> float:
        """Nanoseconds per timeslot."""
        return self.cycles_per_slot * self.cycle_ns

    @property
    def available_gbps(self) -> float:
        """Effective bandwidth after slot overheads (9.412 Gbps in the
        paper's 68-cycle configuration with 512-byte cells)."""
        return self.cell_bytes * 8 / self.slot_ns


class HardwareNode:
    """One prototype end host, organised like the FPGA memory layout (Fig. 6).

    Data structures:

    * ``pieo``: per-neighbour-link PIEO queues holding *bucket ids*;
    * ``forward_fifos``: per-(phase, bucket) FIFO queues of cell payloads
      (the DRAM side) — spray queues shared across the phase's neighbours
      (optimization 1), direct queues keyed the same way since all direct
      hops for a destination leave on one link;
    * ``token_counts``: per-(neighbour, bucket) available credit;
    * ``token_return``: per-neighbour FIFO of tokens to send back;
    * ``active_index``: bucket id -> active slot allocation (optimization 2).
    """

    def __init__(self, node_id: int, network: "HardwareNetwork"):
        self.node_id = node_id
        self.net = network
        self.coords = network.coords
        self.h = network.coords.h
        self.r = network.coords.r
        self.rng = network.rng
        links = self.h * (self.r - 1)
        # PIEO queues store (bucket, phase) entries per outgoing link
        self.pieo: List[Deque[Tuple[BucketId, int]]] = [
            deque() for _ in range(links)
        ]
        # forward FIFOs keyed by (phase, bucket)
        self.forward_fifos: Dict[Tuple[int, BucketId], Deque[Cell]] = {}
        self.token_counts: Dict[Tuple[int, BucketId], int] = {}
        self.token_return: Dict[int, Deque[BucketId]] = {}
        self.active_index: Dict[BucketId, int] = {}
        self.free_slots: List[int] = list(range(network.active_bucket_slots))
        self.local_queue: Deque[Cell] = deque()
        self.cells_received = 0
        self.cells_delivered = 0
        self.max_queue_seen = 0
        self.cycles_used_tx = 0
        self.cycles_used_rx = 0

    # ------------------------------------------------------------------ #
    # helpers mirroring the hardware maps

    def _link(self, phase: int, offset: int) -> int:
        return phase * (self.r - 1) + (offset - 1)

    def _alloc_bucket(self, bucket: BucketId) -> None:
        """Freelist + priority-encoder allocation of an active bucket slot."""
        if bucket in self.active_index:
            return
        if not self.free_slots:
            raise OverflowError(
                f"node {self.node_id}: out of active bucket slots "
                f"(A={self.net.active_bucket_slots}); raise the allocation"
            )
        self.active_index[bucket] = self.free_slots.pop(0)

    def _maybe_free_bucket(self, bucket: BucketId) -> None:
        """Release the slot when no cells or outstanding tokens remain."""
        if any(
            fifo and key[1] == bucket
            for key, fifo in self.forward_fifos.items()
        ):
            return
        if any(
            spent > 0 and key[1] == bucket
            for key, spent in self.token_counts.items()
        ):
            return
        slot = self.active_index.pop(bucket, None)
        if slot is not None:
            self.free_slots.append(slot)

    def _spent(self, neighbor: int, bucket: BucketId) -> int:
        return self.token_counts.get((neighbor, bucket), 0)

    # ------------------------------------------------------------------ #
    # TX path (Appendix C, left column)

    def tx(self, t: int, phase: int, offset: int
           ) -> Optional[Tuple[int, Optional[Cell], List[BucketId]]]:
        """Run the TX pipeline; returns (receiver, cell, tokens) or None
        (``cell`` None for a bare header carrying only tokens)."""
        cycles = 1  # get neighbour for the current timeslot
        neighbor = self.coords.neighbor_at_offset(self.node_id, phase, offset)
        link = self._link(phase, offset)
        cell: Optional[Cell] = None

        cycles += 3  # PIEO dequeue attempt
        entry = self._pieo_dequeue(link, neighbor)
        if entry is not None:
            bucket, src_phase = entry
            cycles += 1  # load cell, spend token, enqueue return token
            fifo = self.forward_fifos[(src_phase, bucket)]
            cell = fifo.popleft()
            if not fifo:
                del self.forward_fifos[(src_phase, bucket)]
            if neighbor != cell.dst:
                next_bucket = (
                    (cell.dst, cell.sprays_remaining - 1)
                    if cell.sprays_remaining > 0
                    else (cell.dst, 0)
                )
                self.token_counts[(neighbor, next_bucket)] = (
                    self._spent(neighbor, next_bucket) + 1
                )
                self._alloc_bucket(next_bucket)
            if cell.prev_hop >= 0:
                self.token_return.setdefault(cell.prev_hop, deque()).append(
                    (cell.dst, cell.sprays_remaining)
                )
            if cell.sprays_remaining > 0:
                cell.sprays_remaining -= 1
            self._maybe_free_bucket(bucket)
        else:
            cycles += 1  # select a local flow to send from
            cell = self._local_tx(neighbor, phase)

        tokens: List[BucketId] = []
        queue = self.token_return.get(neighbor)
        if queue:
            while queue and len(tokens) < 2:
                tokens.append(queue.popleft())
        cycles += 1  # add tokens, start sending
        self.cycles_used_tx = max(self.cycles_used_tx, cycles)

        if cell is None and not tokens:
            return None
        if cell is not None:
            cell.prev_hop = self.node_id
        return neighbor, cell, tokens

    def _pieo_dequeue(self, link: int, neighbor: int) -> Optional[Tuple[BucketId, int]]:
        """First eligible (bucket, phase) entry in this link's PIEO queue."""
        pieo = self.pieo[link]
        for i, (bucket, src_phase) in enumerate(pieo):
            dst, sprays = bucket
            if neighbor == dst:
                eligible = True
            else:
                next_bucket = (dst, sprays - 1) if sprays > 0 else (dst, 0)
                eligible = self._spent(neighbor, next_bucket) < self.net.token_budget
            if eligible:
                del pieo[i]
                return bucket, src_phase
        return None

    def _local_tx(self, neighbor: int, phase: int) -> Optional[Cell]:
        if not self.local_queue:
            return None
        cell = self.local_queue[0]
        bucket = (cell.dst, self.h - 1)
        if neighbor != cell.dst:
            if self._spent(neighbor, bucket) >= self.net.first_hop_budget:
                return None
            self.token_counts[(neighbor, bucket)] = (
                self._spent(neighbor, bucket) + 1
            )
            self._alloc_bucket(bucket)
        self.local_queue.popleft()
        cell.sprays_remaining = self.h - 1
        return cell

    # ------------------------------------------------------------------ #
    # RX path (Appendix C, right column)

    def rx(self, sender: int, cell: Optional[Cell], tokens: List[BucketId],
           t: int, phase: int) -> None:
        """Run the RX pipeline for a transmission from ``sender`` that left
        in a slot of ``phase``."""
        cycles = 1  # receive the loaded cell
        cycles += 1  # convert tokens, classify, compute next hop
        for bucket in tokens:
            key = (sender, bucket)
            spent = self.token_counts.get(key, 0)
            if spent > 0:
                if spent == 1:
                    del self.token_counts[key]
                else:
                    self.token_counts[key] = spent - 1
            self._maybe_free_bucket(bucket)
        if cell is None:
            self.cycles_used_rx = max(self.cycles_used_rx, cycles)
            return
        self.cells_received += 1
        if cell.dst == self.node_id:
            self.cells_delivered += 1
            self.net.delivered += 1
            self.cycles_used_rx = max(self.cycles_used_rx, cycles + 1)
            return
        cycles += 1  # token counts, buffer write, PIEO enqueue
        self._enqueue_forward(cell, phase)
        self.cycles_used_rx = max(self.cycles_used_rx, cycles)

    def _enqueue_forward(self, cell: Cell, send_phase: int) -> None:
        bucket = (cell.dst, cell.sprays_remaining)
        # Next phase follows the previous hop's wire phase (its send slot's),
        # so long propagation delays cannot skip a spray coordinate.
        hint = (send_phase + 1) % self.h
        if cell.sprays_remaining > 0:
            next_phase = hint
            offset = self.rng.randrange(1, self.r)
        else:
            next_phase = offset = None
            for i in range(self.h):
                p = (hint + i) % self.h
                mine = self.coords.coordinate(self.node_id, p)
                want = self.coords.coordinate(cell.dst, p)
                if mine != want:
                    next_phase, offset = p, (want - mine) % self.r
                    break
            if next_phase is None:
                raise AssertionError("cell for self reached _enqueue_forward")
        self._alloc_bucket(bucket)
        fifo = self.forward_fifos.setdefault((next_phase, bucket), deque())
        fifo.append(cell)
        link = self._link(next_phase, offset)
        self.pieo[link].append((bucket, next_phase))
        depth = len(self.pieo[link])
        if depth > self.max_queue_seen:
            self.max_queue_seen = depth

    # ------------------------------------------------------------------ #

    def add_local_cells(self, dst: int, count: int, t: int) -> None:
        """Queue ``count`` cells of local traffic towards ``dst``."""
        for seq in range(count):
            self.local_queue.append(
                Cell(self.node_id, dst, flow_id=dst, seq=seq,
                     sprays_remaining=self.h, created_at=t)
            )

    def total_buffered(self) -> int:
        """Cells buffered for forwarding."""
        return sum(len(f) for f in self.forward_fifos.values())


class HardwareNetwork:
    """A network of :class:`HardwareNode` plus the connecting switch.

    Mirrors the paper's ModelSim setup (Section 5.1): a switch wires the
    nodes according to Shale's connection schedule, all hosts share one
    clock, and a new timeslot begins every ``cycles_per_slot`` cycles.
    """

    def __init__(
        self,
        n: int,
        h: int,
        propagation_delay: int = 0,
        timings: Optional[HardwareTimings] = None,
        token_budget: int = 1,
        first_hop_budget: int = 0,
        active_bucket_slots: int = 4096,
        seed: int = 1,
        schedule: str = "ebs",
    ):
        from ..core.strategies import shared_schedule

        self.schedule = shared_schedule(schedule, n, h)
        self.coords = self.schedule.coords
        self.timings = timings if timings is not None else HardwareTimings()
        self.token_budget = token_budget
        self.first_hop_budget = first_hop_budget or token_budget
        self.active_bucket_slots = active_bucket_slots
        self.rng = random.Random(seed)
        self.nodes = [HardwareNode(i, self) for i in range(n)]
        self.propagation_delay = propagation_delay
        self.t = 0
        self.delivered = 0
        #: (arrival, sender, receiver, cell or None, tokens)
        self._in_flight: Deque[
            Tuple[int, int, int, Optional[Cell], List[BucketId]]] = deque()

    def step(self) -> None:
        """One timeslot of the whole network."""
        t = self.t
        phase = self.schedule.phase_of(t)
        offset = self.schedule.offset_of(t)
        while self._in_flight and self._in_flight[0][0] <= t:
            arrival, sender, receiver, cell, tokens = self._in_flight.popleft()
            self.nodes[receiver].rx(
                sender, cell, tokens, t,
                self.schedule.phase_of(arrival - self.propagation_delay))
        arrival = t + self.propagation_delay
        for node in self.nodes:
            out = node.tx(t, phase, offset)
            if out is None:
                continue
            receiver, cell, tokens = out
            self._in_flight.append(
                (arrival, node.node_id, receiver, cell, tokens))
        self.t = t + 1

    def run(self, slots: int) -> None:
        """Run ``slots`` timeslots."""
        for _ in range(slots):
            self.step()

    # ------------------------------------------------------------------ #
    # measurements reported by Fig. 8

    def throughput_gbps(self) -> float:
        """Mean delivered goodput per node, in Gbps at the prototype's
        cell size and slot timing."""
        if self.t == 0:
            return 0.0
        cells_per_node_slot = self.delivered / (self.t * len(self.nodes))
        return cells_per_node_slot * self.timings.available_gbps

    def max_queue_length(self) -> int:
        """Largest PIEO queue depth observed anywhere."""
        return max(node.max_queue_seen for node in self.nodes)

    def timing_ok(self) -> bool:
        """Whether every pipeline fit the per-slot cycle budget."""
        budget = self.timings.cycles_per_slot
        return all(
            node.cycles_used_tx <= budget and node.cycles_used_rx <= budget
            for node in self.nodes
        )
