"""Coarse-grained Opera simulator for the Fig. 4 comparison.

The comparison in the paper (Section 3.2.1) puts Opera and Shale ``h = 1``
side by side on the same 576-node heavy-tailed workload.  Its message is
structural, not microscopic:

* Opera's long configuration hold times (>= an end-to-end RTT, 8167 ns in
  the paper's setup vs 5.632 ns Shale timeslots) let *short* flows traverse
  multi-hop expander paths within one configuration — so short-flow FCTs are
  excellent;
* *bulk* flows ride RotorLB, which primarily transmits when source and
  destination are directly matched — roughly ``u / (N - 1)`` of the time —
  so bulk tail FCTs inflate by a factor that grows linearly with ``N``
  (~400x at N=576).

This simulator models exactly those mechanisms at configuration-period
granularity: explicit rotor matchings (direct transfers get real capacity
only when matched, plus opportunistic two-hop RotorLB relaying), and
expander BFS paths with utilisation-dependent queueing for short flows.
Finer packet-level detail (which the public htsim-based Opera simulator
provides) does not change the structural outcome; the substitution is
recorded in DESIGN.md.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from ...sim.flows import CompletedFlows
from .topology import RotorTopology

__all__ = ["OperaConfig", "OperaSimulator"]


class OperaConfig:
    """Opera run parameters.

    Attributes:
        n: number of nodes.
        uplinks: rotor uplinks per node (paper setup: 8 x 50 Gbps).
        period_cells: configuration hold time expressed in cell-transmission
            times of the *aggregate* interface — i.e. how many cells a node
            can emit per period across all uplinks (8167 ns / 5.632 ns ~
            1450 at paper scale).
        bulk_cutoff_cells: flows longer than this use RotorLB (the paper
            keeps Opera's original 15 MB cutoff).
        propagation_cells: one-way propagation delay in cell times.
        indirect: enable RotorLB two-hop relaying for unbalanced traffic.
        seed: RNG seed.
    """

    def __init__(
        self,
        n: int,
        uplinks: int = 8,
        period_cells: int = 1450,
        bulk_cutoff_cells: int = 61_440,  # ~15 MB of 244-byte payloads
        propagation_cells: int = 89,
        indirect: bool = True,
        seed: int = 1,
    ):
        if period_cells < 1:
            raise ValueError("period must be at least one cell time")
        self.n = n
        self.uplinks = uplinks
        self.period_cells = period_cells
        self.bulk_cutoff_cells = bulk_cutoff_cells
        self.propagation_cells = propagation_cells
        self.indirect = indirect
        self.seed = seed


class _BulkFlow:
    __slots__ = ("flow_id", "src", "dst", "size_cells", "size_bytes",
                 "arrival", "remaining", "relayed_pending")

    def __init__(self, flow_id, src, dst, size_cells, size_bytes, arrival):
        self.flow_id = flow_id
        self.src = src
        self.dst = dst
        self.size_cells = size_cells
        self.size_bytes = size_bytes
        self.arrival = arrival
        self.remaining = size_cells
        #: cells handed to intermediates, keyed by delivery period
        self.relayed_pending: List[Tuple[int, int]] = []


class OperaSimulator:
    """Simulates Opera at configuration-period granularity.

    Time is measured in cell-transmission slots (aligned with the Shale
    simulator, so size-normalised FCTs are directly comparable); one
    topology period spans ``period_cells`` of them.
    """

    def __init__(self, config: OperaConfig):
        self.config = config
        self.topology = RotorTopology(config.n, config.uplinks)
        self.rng = random.Random(config.seed)
        #: completed flows, as rows of the Shale engine's table (a flow
        #: rode RotorLB iff its ``size_cells > config.bulk_cutoff_cells``)
        self.completed = CompletedFlows()
        self._bulk: List[_BulkFlow] = []
        self._next_arrival = 0
        self._workload: List[Tuple[int, int, int, int, int]] = []
        self.period = 0
        #: per-node cells of *direct* egress spent this period
        self._egress_used: Dict[int, int] = {}
        #: per-node cells of ingress spent this period (receiver bound)
        self._ingress_used: Dict[int, int] = {}
        #: measured utilisation (for short-flow queueing): EWMA of the
        #: fraction of per-period egress capacity spent
        self._util_ewma = 0.0

    # ------------------------------------------------------------------ #

    def schedule_flows(self, workload: List[Tuple[int, int, int, int, int]]) -> None:
        """Add flows ``(arrival_slot, src, dst, cells, bytes)`` (sorted)."""
        self._workload.extend(workload)
        self._workload.sort()

    def run(self, duration_slots: int) -> None:
        """Run until the master clock passes ``duration_slots``."""
        total_periods = -(-duration_slots // self.config.period_cells)
        for _ in range(total_periods):
            self._step_period()

    def run_until_quiescent(self, max_extra_periods: int = 200_000) -> None:
        """Keep running until every flow completes (bounded)."""
        for _ in range(max_extra_periods):
            if self._next_arrival >= len(self._workload) and not self._bulk:
                break
            self._step_period()

    @property
    def now(self) -> int:
        """Current time in cell slots."""
        return self.period * self.config.period_cells

    # ------------------------------------------------------------------ #

    def _step_period(self) -> None:
        cfg = self.config
        now = self.now
        self._egress_used = {}
        self._ingress_used = {}
        self._admit_arrivals(now + cfg.period_cells)
        self._serve_bulk(now)
        self._update_utilization()
        self.period += 1

    def _admit_arrivals(self, horizon: int) -> None:
        wl = self._workload
        cfg = self.config
        while self._next_arrival < len(wl) and wl[self._next_arrival][0] < horizon:
            arrival, src, dst, cells, size_bytes = wl[self._next_arrival]
            self._next_arrival += 1
            flow_id = self._next_arrival
            if cells > cfg.bulk_cutoff_cells:
                self._bulk.append(
                    _BulkFlow(flow_id, src, dst, cells, size_bytes, arrival)
                )
            else:
                self._complete_short(flow_id, src, dst, cells, size_bytes, arrival)

    # ------------------------------------------------------------------ #
    # short flows: multi-hop expander routing within one configuration

    def _complete_short(self, flow_id: int, src: int, dst: int,
                        cells: int, size_bytes: int, arrival: int) -> None:
        cfg = self.config
        start = max(arrival, self.now)
        hops = self.topology.path_length(src, dst, self.period)
        if hops is None:
            # disconnected residue (never happens with u >= 2); wait a period
            hops = 1 + int(self.topology.mean_direct_interval())
        # Per-hop cost: store-and-forward of the flow's cells at the per-hop
        # line rate (one uplink's share = u-th of aggregate, i.e. each cell
        # takes `uplinks` slot times on one uplink), propagation, and
        # utilisation-dependent queueing (M/D/1-style mean wait scaled by
        # the measured load).
        per_hop_transmit = cells * cfg.uplinks
        queueing = self._queueing_delay_cells()
        fct = hops * (per_hop_transmit + cfg.propagation_cells + queueing)
        self.completed.append(flow_id, src, dst, cells, size_bytes,
                              arrival, start + fct)

    def _queueing_delay_cells(self) -> int:
        """Mean per-hop queueing (cells) from the utilisation EWMA (M/D/1)."""
        rho = min(0.95, self._util_ewma)
        if rho <= 0.0:
            return 0
        mean_wait = rho / (2.0 * (1.0 - rho))  # M/D/1 mean queue, in cells
        return int(mean_wait * self.config.uplinks)

    def _update_utilization(self) -> None:
        cfg = self.config
        if not self._egress_used:
            spent = 0.0
        else:
            spent = sum(self._egress_used.values()) / (
                len(self._egress_used) * cfg.period_cells
            )
        self._util_ewma = 0.9 * self._util_ewma + 0.1 * spent

    # ------------------------------------------------------------------ #
    # bulk flows: RotorLB

    def _serve_bulk(self, now: int) -> None:
        cfg = self.config
        period = self.period
        finished: List[_BulkFlow] = []
        for flow in self._bulk:
            if flow.arrival > now + cfg.period_cells:
                continue
            # collect relayed cells whose second hop has landed
            if flow.relayed_pending:
                flow.relayed_pending = [
                    (p, c) for p, c in flow.relayed_pending if p > period
                ]
            # direct transmission whenever some rotor matches src -> dst
            if self.topology.connected(flow.src, flow.dst, period) is not None:
                sendable = self._capacity(flow.src, flow.dst, cfg.period_cells)
                sent = min(flow.remaining, sendable)
                flow.remaining -= sent
                self._spend(flow.src, flow.dst, sent)
            elif cfg.indirect and flow.remaining > 0:
                self._relay_indirect(flow, period)
            if flow.remaining <= 0 and not flow.relayed_pending:
                finished.append(flow)
                self.completed.append(
                    flow.flow_id, flow.src, flow.dst, flow.size_cells,
                    flow.size_bytes, flow.arrival, now + cfg.period_cells,
                )
        if finished:
            gone = {id(f) for f in finished}
            self._bulk = [f for f in self._bulk if id(f) not in gone]

    def _relay_indirect(self, flow: _BulkFlow, period: int) -> None:
        """RotorLB's two-hop fallback: offer spare capacity to a neighbour.

        A neighbour currently matched with the source accepts cells and
        delivers them when it next matches the destination — we book that
        delivery period directly instead of simulating the relay queue.
        RotorLB caps indirect traffic at a fraction of the direct rate so
        relays do not starve the relay node's own traffic.
        """
        cfg = self.config
        neighbors = self.topology.neighbors(flow.src, period)
        relay = neighbors[self.rng.randrange(len(neighbors))]
        if relay == flow.dst:
            return
        budget = self._capacity(flow.src, relay, cfg.period_cells // 2)
        cells = min(flow.remaining, budget)
        if cells <= 0:
            return
        deliver = self.topology.next_direct_period(relay, flow.dst, period + 1)
        flow.remaining -= cells
        self._spend(flow.src, relay, cells)
        flow.relayed_pending.append((deliver, cells))

    def _capacity(self, src: int, dst: int, want: int) -> int:
        """Remaining egress/ingress capacity between the pair this period."""
        cfg = self.config
        egress_left = cfg.period_cells - self._egress_used.get(src, 0)
        ingress_left = cfg.period_cells - self._ingress_used.get(dst, 0)
        return max(0, min(want, egress_left, ingress_left))

    def _spend(self, src: int, dst: int, cells: int) -> None:
        if cells <= 0:
            return
        self._egress_used[src] = self._egress_used.get(src, 0) + cells
        self._ingress_used[dst] = self._ingress_used.get(dst, 0) + cells
