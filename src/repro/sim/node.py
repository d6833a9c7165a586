"""End-host model for the packet-level simulator.

Each :class:`Node` mirrors the structure of the paper's FPGA end-host
(Section 4.1): per-link send queues (lists of cells, which the TX scan
reads PIEO-style under hop-by-hop), a token ledger
and per-neighbour token-return queues, local flow queues, and the RX/TX
processing paths.  The same node implementation hosts every congestion
control mechanism of Section 5.3 — ``none``, ``priority``, ``ISD``, ``RD``,
``NDP``, ``spray-short``, ``hop-by-hop`` and ``HBH+spray`` — selected by
:class:`~repro.sim.config.SimConfig` flags, so that mechanisms differ only in
the ways the paper says they differ.

Hot-path discipline: this module is executed once per node per timeslot, so
it avoids allocation where possible and keeps attribute access local.
"""

from __future__ import annotations

import random
from collections import deque
from itertools import islice
from typing import Deque, Dict, List, Optional, Set, Tuple

from ..core.buckets import ActiveBucketTracker, TokenLedger
from ..core.cell import Cell
from ..core.header import TOKEN_INVALIDATE, TOKEN_REGULAR, Token
from .config import SimConfig
from .flows import Flow
from .tables import CTRL_KINDS

__all__ = ["Node", "Transmission", "ControlMessage",
           "LINK_SILENT", "LINK_DEAF"]

# control message kinds (receiver-driven protocols)
CTRL_PULL, CTRL_TRIM, CTRL_RTX, CTRL_PROBE = CTRL_KINDS

# why a neighbour is marked down in ``Node._fail_cause`` (a bitmask — both
# causes can hold at once; the link re-validates only when both clear)
LINK_SILENT = 1  #: we stopped hearing the neighbour (missed-cell detection)
LINK_DEAF = 2  #: the neighbour told us it stopped hearing *us*


class ControlMessage:
    """A small end-to-end control message (PULL / trim notice / RTX request).

    Control messages ride in reserved header space (paper Section 5.3
    baseline 4) but are routed end-to-end through the same VLB paths as data
    cells, so they experience the network's queuing.
    """

    __slots__ = ("kind", "flow_id", "src", "dst", "seq", "sprays_remaining")

    def __init__(self, kind: str, flow_id: int, src: int, dst: int, seq: int = 0):
        self.kind = kind
        self.flow_id = flow_id
        self.src = src
        self.dst = dst
        self.seq = seq
        self.sprays_remaining = 0

    def __repr__(self) -> str:  # pragma: no cover
        return f"Ctrl({self.kind}, flow={self.flow_id}, {self.src}->{self.dst})"

    def state(self) -> tuple:
        """All fields as a flat int tuple, the kind as its ``CTRL_KINDS``
        index (the plain model's control columns)."""
        return (CTRL_KINDS.index(self.kind), self.flow_id, self.src,
                self.dst, self.seq, self.sprays_remaining)

    @classmethod
    def from_state(cls, state) -> "ControlMessage":
        msg = cls(CTRL_KINDS[state[0]], *state[1:5])
        msg.sprays_remaining = state[5]
        return msg


class Transmission:
    """Everything sent over one link in one timeslot: a header with its
    sidecars (tokens and control messages) and, when it carries a payload,
    a cell — ``cell`` is None for a bare header."""

    __slots__ = ("sender", "receiver", "cell", "tokens", "ctrl", "arrival")

    def __init__(
        self,
        sender: int,
        receiver: int,
        cell: Optional[Cell],
        tokens: Tuple[Token, ...] = (),
        ctrl: Tuple[ControlMessage, ...] = (),
    ):
        self.sender = sender
        self.receiver = receiver
        self.cell = cell
        self.tokens = tokens
        self.ctrl = ctrl
        #: wire delivery time, stamped by the engine when the transmission
        #: enters the in-flight queue (so the wire needs no wrapper tuples)
        self.arrival = -1

    def state_rows(self, rows: Dict[str, list]) -> None:
        """Append this transmission to the plain model's row lists
        (:mod:`repro.sim.tables`): a ``cells`` row only if it carries a
        payload."""
        wire = len(rows["wire"])
        cell = self.cell
        rows["wire"].append((self.sender, self.receiver, self.arrival,
                             cell is not None))
        if cell is not None:
            rows["cells"].append(cell.state())
        rows["wire_tokens"].extend(
            (wire, *token.state()) for token in self.tokens)
        rows["wire_ctrl"].extend((wire, *msg.state()) for msg in self.ctrl)

    @classmethod
    def from_state(cls, state: tuple) -> "Transmission":
        """One of :func:`repro.sim.tables.wire_states`' tuples, as built."""
        sender, receiver, arrival, cell, tokens, ctrl = state
        tx = cls(
            sender, receiver, None if cell is None else Cell.from_state(cell),
            tuple(Token.from_state(t) for t in tokens),
            tuple(ControlMessage.from_state(m) for m in ctrl),
        )
        tx.arrival = arrival
        return tx


class Node:
    """One end host participating in the Shale schedule."""

    __slots__ = (
        "node_id",
        "engine",
        "coords",
        "h",
        "r",
        "config",
        "rng",
        "mode",
        "uses_hbh",
        "uses_spray_short",
        "is_ndp",
        "is_rd_family",
        "link_queues",
        "token_return",
        "ledger",
        "bucket_tracker",
        "local_flows",
        "rtx_queue",
        "ctrl_out",
        "total_enqueued",
        "pending_tokens",
        "pending_ctrl",
        "failed",
        "failed_neighbors",
        "known_failed",
        "link_invalid",
        "_fail_cause",
        "_force_dummy",
        "epoch_length",
        "_recv_counts",
        # hot-path caches (derived, never authoritative)
        "neighbors_flat",
        "_rm1",
        "_is_priority",
        "_fifo_hbh",
        "_tokens_per_header",
        "_my_digits",
        "_weights",
        "_visit",
        "_link_of",
        "_randrange",
        "_getrandbits",
        "_spray_bits",
        "_phase_items",
        "_token_cache",
        "_spent_map",
        "_is_first_map",
        "_refcount_map",
        "_budget1",
        "_fh_budget",
        "_hm1",
        "_simple_pick",
        "_metrics",
        "_tx_pool",
        "_routing",
        "_default_routing",
    )

    def __init__(self, node_id: int, engine) -> None:
        self.node_id = node_id
        self.engine = engine
        self.coords = engine.coords
        self.h = engine.coords.h
        self.r = engine.coords.r
        config: SimConfig = engine.config
        self.config = config
        self.rng: random.Random = engine.rng
        self.mode = config.congestion_control
        self.uses_hbh = config.uses_hop_by_hop
        self.uses_spray_short = config.uses_spray_short
        self.is_ndp = self.mode == "ndp"
        self.is_rd_family = self.mode in ("rd", "ndp")
        self.epoch_length = engine.schedule.epoch_length
        #: the engine's routing strategy (admission-shape decisions)
        self._routing = engine.routing
        #: True under reference VLB routing: admission sprays are always
        #: ``h - 1``, which transmit()'s fused flow pick hard-codes.  Any
        #: other strategy routes through the general picker/emitter, which
        #: consult ``_routing.admission_sprays`` per cell.
        self._default_routing = config.routing == "vlb"

        #: the peer of each link: neighbors_flat[link_index(p, k)] is the
        #: phase-p neighbour at round-robin offset k
        self.neighbors_flat = self.coords.neighbor_table(node_id)
        #: the inverse: a neighbour's link index
        self._link_of: Dict[int, int] = {
            peer: link for link, peer in enumerate(self.neighbors_flat)}
        self._rm1 = self.r - 1
        self._hm1 = self.h - 1
        self._is_priority = self.mode == "priority"
        #: True when flow admission is unconditional (every mode except
        #: priority ranking, ISD pacing and the RD/NDP window)
        self._simple_pick = not (
            self.mode in ("priority", "isd") or self.mode in ("rd", "ndp")
        )
        self._fifo_hbh = config.use_fifo_for_hbh
        self._tokens_per_header = config.tokens_per_header
        self._my_digits = self.coords.coords(node_id)
        self._weights = self.coords._weights
        #: the engine's visit set per link index (``Engine._visit``)
        self._visit = engine._visit
        #: the engine's collector and transmission freelist (both live for
        #: the whole run), cached to skip an attribute chain per hot call
        self._metrics = engine.metrics
        self._tx_pool = engine._tx_pool
        self._randrange = engine.rng.randrange
        # randrange(1, r) == 1 + _randbelow(r - 1), and CPython's
        # _randbelow draws bit_length(r - 1) bits until the value fits;
        # the hot paths replay that loop inline on the raw generator so
        # the draw sequence (and thus behaviour) is bit-identical
        self._getrandbits = engine.rng.getrandbits
        self._spray_bits = (self.r - 1).bit_length()
        #: the engine's interned regular tokens by (dest, sprays) — tokens
        #: are value objects and never mutated, so every hop of every node
        #: shares one instance per bucket
        self._token_cache: Dict[Tuple[int, int], Token] = engine._token_cache
        links = self.h * (self.r - 1)
        #: the send queues by link index, each a list of cells in PIEO
        #: order: FIFO, or by rank under priority ranking (see
        #: :meth:`enqueue_forward`).  Uncapped: NDP enforces its limit by
        #: trimming at enqueue.  A list's identity is stable (the caches
        #: below alias it), so it is only ever mutated in place
        self.link_queues: List[List[Cell]] = [[] for _ in range(links)]
        #: the same lists grouped by phase (the spray scan iterates one
        #: phase): ``map(len, …)`` over one group reads every queue length
        #: without Python frames
        self._phase_items: Tuple[List[list], ...] = tuple(
            self.link_queues[p * self._rm1:(p + 1) * self._rm1]
            for p in range(self.h)
        )
        #: tokens owed to each neighbour, oldest first; a peer gets a list
        #: the first time it is owed one (a plain list: an empty deque
        #: costs ~760 B with its block, and every drain allocated a fresh
        #: block)
        self.token_return: Dict[int, List[Token]] = {}
        if self.uses_hbh:
            self.ledger = TokenLedger(
                budget=config.token_budget,
                first_hop_budget=config.first_hop_token_budget,
            )
            self.bucket_tracker = ActiveBucketTracker()
        else:
            self.ledger = None
            self.bucket_tracker = None
        self._cache_hbh_state()
        self.local_flows: List[Flow] = []
        self.rtx_queue: Deque[Tuple[int, int, int]] = deque()  # (flow_id, dst, seq)
        #: control messages waiting per link index; a link gets a queue
        #: only once it carried one (ndp/rd pulls and failure probes), so
        #: modes without control traffic hold none
        self.ctrl_out: Dict[int, Deque[ControlMessage]] = {}
        self.total_enqueued = 0
        self.pending_tokens = 0
        self.pending_ctrl = 0
        self.failed = False
        self.failed_neighbors: Set[int] = set()
        #: destinations this node currently has *no valid direct route* to
        #: (it has announced them unreachable to its neighbours)
        self.known_failed: Set[int] = set()
        #: (via, dest) pairs invalidated by a neighbour's route token:
        #: ``via`` announced it cannot reach ``dest`` on the direct-path tree
        self.link_invalid: Set[Tuple[int, int]] = set()
        #: neighbour id -> LINK_SILENT/LINK_DEAF bitmask explaining why the
        #: neighbour sits in ``failed_neighbors``
        self._fail_cause: Dict[int, int] = {}
        #: neighbours owed one explicit header (a probe reply) even when
        #: idle
        self._force_dummy: Set[int] = set()
        # per-flow delivered counts for PULL pacing at the receiver
        self._recv_counts: Dict[int, int] = {}

    def _cache_hbh_state(self) -> None:
        """Refresh the hot-path aliases of the ledger/tracker internals.

        Must be re-run whenever ``self.ledger`` / ``self.bucket_tracker``
        are replaced (construction and crash recovery).
        """
        if self.uses_hbh:
            self._spent_map = self.ledger._spent
            self._is_first_map = self.ledger._is_first
            self._refcount_map = self.bucket_tracker._refcount
            self._fh_budget = self.ledger.first_hop_budget
            # with a uniform budget of one token, "has credit" degenerates
            # to "no outstanding token for this (neighbour, bucket) pair"
            self._budget1 = (
                self.ledger.budget == 1 and self.ledger.first_hop_budget == 1
            )
        else:
            self._spent_map = None
            self._is_first_map = None
            self._refcount_map = None
            self._fh_budget = 0
            self._budget1 = False

    # ------------------------------------------------------------------ #
    # link helpers

    def link_index(self, phase: int, offset: int) -> int:
        """Flat index of the link used in ``phase`` at round-robin ``offset``."""
        return phase * (self.r - 1) + (offset - 1)

    def wake(self) -> None:
        """Put this node on every link's visit set.

        For work that is not tied to one link (a new flow, an rtx request,
        failed-neighbour marking, recovery): the engine visits a node on
        link ``l`` only while it is in ``l``'s set, so every transition
        that can give a node work must wake it — here, or on the one link
        the work waits for (:meth:`_wake_peer`, the enqueue sites).
        """
        node_id = self.node_id
        for visit in self._visit:
            visit.add(node_id)

    def link_to(self, peer: int) -> Optional[int]:
        """The index of the link on which this node meets ``peer``; ``None``
        if ``peer`` is no neighbour."""
        return self._link_of.get(peer)

    def _wake_peer(self, peer: int) -> None:
        """Put this node on the visit set of the link to ``peer``, which
        something (a token, a probe reply) is now owed to; everywhere if
        ``peer`` is no neighbour."""
        link = self.link_to(peer)
        if link is None:
            self.wake()
        else:
            self._visit[link].add(self.node_id)

    # ------------------------------------------------------------------ #
    # flow management

    def add_flow(self, flow: Flow) -> None:
        """Register a locally originated flow."""
        self.local_flows.append(flow)
        self.wake()

    def _prune_local_flows(self) -> None:
        if any(f.done_sending for f in self.local_flows):
            self.local_flows = [f for f in self.local_flows if not f.done_sending]

    # ------------------------------------------------------------------ #
    # TX path

    def transmit(self, t: int, phase: int, offset: int) -> Optional[Transmission]:
        """Run the TX pipeline for timeslot ``t``; returns what goes on the wire.

        Returns ``None`` when the node has neither data, tokens nor control
        messages for the current neighbour (a real network would send an
        empty header; the simulator elides it).  A transmission without
        data carries ``cell=None``.  Either way ``run_tx``
        then retires the node from the link's visit set if it owes the
        neighbour nothing more.

        This is the object pipeline's only TX routine (``run_tx`` calls it
        for every node on the slot's link's visit set) and its hottest
        function.  Under hop-by-hop it holds the one forward rule: the
        PIEO scan sends the first cell with next-hop credit (the FIFO
        ablation scans only the head), charging the credit as it finds
        the hit, and the token-upstream / bucket-release step works on
        the ledger's and tracker's dicts directly, so a forwarded cell
        costs one pass over the queue and no method calls.
        """
        link = phase * self._rm1 + offset - 1
        neighbor = self.neighbors_flat[link]
        if self.failed_neighbors and neighbor in self.failed_neighbors:
            return self._probe_failed_neighbor(neighbor, phase, offset)

        force = False
        if self._force_dummy and neighbor in self._force_dummy:
            # any transmission satisfies the probe reply
            self._force_dummy.discard(neighbor)
            force = True

        cell = None
        node_id = self.node_id
        items = self.link_queues[link]
        if items:
            if not self.uses_hbh:
                cell = items.pop(0)
                self.total_enqueued -= 1
                n = cell.sprays_remaining
                if n > 0:
                    cell.sprays_remaining = n - 1
                cell.prev_hop = node_id
                cell.hops += 1
            else:
                # first eligible cell wins: final hops are free, other hops
                # need next-hop bucket credit, charged as the hit is found.
                # The FIFO ablation offers only the head: if it lacks
                # credit the whole queue head-of-line blocks
                spent = self._spent_map
                scan = items[:1] if self._fifo_hbh else items
                if self._budget1:
                    # uniform budget T = T_F = 1: one credit remains exactly
                    # when the (neighbour, bucket) pair has nothing spent
                    for i, c in enumerate(scan):
                        dst = c.dst
                        if neighbor == dst:
                            del items[i]
                            cell = c
                            break
                        n = c.sprays_remaining
                        key = (neighbor, dst, n - 1 if n > 0 else 0)
                        if key not in spent:
                            del items[i]
                            cell = c
                            spent[key] = 1
                            break
                else:
                    ledger = self.ledger
                    is_first = ledger._is_first
                    budget = ledger.budget
                    fh_budget = ledger.first_hop_budget
                    for i, c in enumerate(scan):
                        dst = c.dst
                        if neighbor == dst:
                            del items[i]
                            cell = c
                            break
                        n = c.sprays_remaining
                        key = (neighbor, dst, n - 1 if n > 0 else 0)
                        used = spent.get(key, 0)
                        if (fh_budget if is_first.get(key) else budget) > used:
                            del items[i]
                            cell = c
                            spent[key] = used + 1
                            break
                if cell is not None:
                    # token upstream, naming the bucket the cell occupied
                    # here (paper Fig. 5), and bucket release
                    self.total_enqueued -= 1
                    n = cell.sprays_remaining
                    dst = cell.dst
                    prev = cell.prev_hop
                    bucket = (dst, n)
                    if prev >= 0:
                        tcache = self._token_cache
                        tok = tcache.get(bucket)
                        if tok is None:
                            tok = Token(dst, n, TOKEN_REGULAR)
                            tcache[bucket] = tok
                        queue = self.token_return.get(prev)
                        if queue is None:
                            self.token_return[prev] = [tok]
                        else:
                            queue.append(tok)
                        self.pending_tokens += 1
                        self._wake_peer(prev)
                    refcount = self._refcount_map
                    count = refcount.get(bucket, 0)
                    if count > 1:
                        refcount[bucket] = count - 1
                    elif count:
                        del refcount[bucket]
                    if n > 0:
                        cell.sprays_remaining = n - 1
                    cell.prev_hop = node_id
                    cell.hops += 1
        if cell is None and (self.local_flows or self.rtx_queue):
            if self.rtx_queue or not self._simple_pick \
                    or not self._default_routing:
                cell = self._admit_local_cell(t, phase, neighbor)
            else:
                # _pick_flow's unconditional-admission path inlined: the
                # first unfinished flow wins, subject only to the hop-by-hop
                # first-hop credit check
                flow = None
                for f in self.local_flows:
                    if f.sent < f.size_cells:
                        flow = f
                        break
                if flow is not None and self.uses_hbh:
                    spent = self._spent_map
                    key = (neighbor, flow.dst, self._hm1)
                    if (key in spent) if self._budget1 \
                            else self._fh_budget <= spent.get(key, 0):
                        # blocked: re-run the full picker (its fallback scans
                        # for any other flow that still has credit)
                        flow = self._pick_flow(t, neighbor, phase)
                if flow is not None:
                    cell = self._emit_flow_cell(flow, t, phase, neighbor)

        tokens: Tuple[Token, ...] = ()
        if self.pending_tokens:
            queue = self.token_return.get(neighbor)
            if queue:
                limit = self._tokens_per_header
                if len(queue) <= limit:
                    # common case: the whole backlog fits in one header
                    tokens = tuple(queue)
                    queue.clear()
                    self.pending_tokens -= len(tokens)
                else:
                    tokens = tuple(queue[:limit])
                    del queue[:limit]
                    self.pending_tokens -= limit
        ctrl: Tuple[ControlMessage, ...] = ()
        if self.pending_ctrl:
            ctrl = self._pop_ctrl(link)
        if cell is None and not tokens and not ctrl and not force:
            return None
        pool = self._tx_pool
        if pool:
            tx = pool.pop()
            tx.sender = node_id
            tx.receiver = neighbor
            tx.cell = cell
            tx.tokens = tokens
            tx.ctrl = ctrl
            return tx
        return Transmission(node_id, neighbor, cell, tokens, ctrl)

    def _probe_failed_neighbor(self, neighbor: int, phase: int,
                               offset: int) -> Transmission:
        """Probe a neighbour this node believes is down (Section 3.4).

        A real Shale node transmits a header on every link in every
        connected slot; that constant chatter is what lets the other side of
        a recovered link notice it is alive again.  The simulator elides
        bare headers on healthy links, so links under suspicion must send
        them explicitly — once per epoch, since a pair meets once per epoch.
        While we cannot *hear* the neighbour, the probe also carries a
        deafness complaint token so a one-way link failure shuts the link
        down on both sides (symmetric detection).
        """
        tokens: List[Token] = []
        if self._fail_cause.get(neighbor, 0) & LINK_SILENT:
            tokens.append(Token(self.node_id, 1, TOKEN_INVALIDATE))
        queue = self.token_return.get(neighbor)
        if queue:
            taken = queue[:self._tokens_per_header - len(tokens)]
            del queue[:len(taken)]
            self.pending_tokens -= len(taken)
            tokens += taken
        ctrl = (ControlMessage(CTRL_PROBE, -1, self.node_id, neighbor),)
        ctrl += self._pop_ctrl(self.link_index(phase, offset))
        return Transmission(self.node_id, neighbor, None, tuple(tokens), ctrl)

    def _admit_local_cell(self, t: int, phase: int, neighbor: int) -> Optional[Cell]:
        """Generate a cell from a local flow (or the NDP retransmit queue)."""
        # Retransmissions first: NDP receivers have explicitly requested them.
        if self.rtx_queue:
            cell = self._admit_retransmission(t, phase, neighbor)
            if cell is not None:
                return cell
        if not self.local_flows:
            return None
        flow = self._pick_flow(t, neighbor, phase)
        if flow is None:
            return None
        return self._emit_flow_cell(flow, t, phase, neighbor)

    def _admit_retransmission(self, t: int, phase: int, neighbor: int) -> Optional[Cell]:
        flow_id, dst, seq = self.rtx_queue.popleft()
        flow = self.engine.flows.get(flow_id)
        size = flow.size_cells if flow is not None else 1
        sprays = self._hm1 if self._default_routing else \
            self._routing.admission_sprays(self.node_id, dst, phase, neighbor)
        cell = Cell(
            self.node_id, dst, flow_id=flow_id, seq=seq,
            sprays_remaining=sprays, created_at=t, flow_size=size,
        )
        cell.prev_hop = self.node_id
        cell.hops = 1
        self.engine.metrics.on_retransmission()
        self.engine.metrics.on_cell_injected()
        return cell

    def _pick_flow(self, t: int, neighbor: int, phase: int = 0) -> Optional[Flow]:
        """Choose which local flow (if any) may emit a cell this slot."""
        candidates = self.local_flows
        chosen: Optional[Flow] = None
        if self._is_priority:
            best_rank = None
            for flow in candidates:
                if flow.done_sending:
                    continue
                rank = flow.arrival + flow.size_cells * self.epoch_length
                if best_rank is None or rank < best_rank:
                    best_rank, chosen = rank, flow
        else:
            # the first unfinished flow the transport admits
            for flow in candidates:
                if not flow.done_sending \
                        and self._transport_eligible(flow, t, neighbor):
                    chosen = flow
                    break
        if chosen is not None and self.uses_hbh:
            # can_send(..., first_hop=True) inlined: limit is always the
            # first-hop budget regardless of the pair's _is_first marking.
            # The ledger key's bucket must name the sprays the cell will
            # actually be admitted with (the routing strategy's decision),
            # or the charge in _emit_flow_cell would hit a different bucket
            # and token conservation would silently break.
            default_routing = self._default_routing
            spent = self._spent_map
            sprays = self._hm1 if default_routing else \
                self._routing.admission_sprays(
                    self.node_id, chosen.dst, phase, neighbor)
            key = (neighbor, chosen.dst, sprays)
            if (key in spent) if self._budget1 \
                    else self._fh_budget <= spent.get(key, 0):
                # look for any other transport-eligible flow with credit
                chosen = None
                for flow in candidates:
                    if flow.done_sending:
                        continue
                    if not self._transport_eligible(flow, t, neighbor):
                        continue
                    sprays = self._hm1 if default_routing else \
                        self._routing.admission_sprays(
                            self.node_id, flow.dst, phase, neighbor)
                    if self.ledger.can_send(
                        neighbor, (flow.dst, sprays), first_hop=True
                    ):
                        chosen = flow
                        break
        return chosen

    def _transport_eligible(self, flow: Flow, t: int, neighbor: int) -> bool:
        """End-to-end admission policy (ISD rate limit / RD-NDP pulls)."""
        mode = self.mode
        if mode == "isd":
            return self.engine.isd_credit(flow, t)
        if self.is_rd_family:
            granted = self.config.initial_window + flow.credit
            return flow.sent < granted
        return True

    def _emit_flow_cell(self, flow: Flow, t: int, phase: int, neighbor: int) -> Cell:
        sprays = self._hm1 if self._default_routing else \
            self._routing.admission_sprays(
                self.node_id, flow.dst, phase, neighbor)
        # positional args: Cell(src, dst, flow_id, seq, sprays, created, size)
        cell = Cell(
            self.node_id, flow.dst, flow.flow_id, flow.sent,
            sprays, t, flow.size_cells,
        )
        cell.prev_hop = self.node_id
        cell.hops = 1
        if self.uses_hbh:
            # charge(..., first_hop=True) inlined; _pick_flow just verified
            # the credit exists, so the over-budget branch cannot trigger
            key = (neighbor, flow.dst, sprays)
            spent = self._spent_map
            if self._budget1:
                # with T == T_F the first-hop marking cannot change any
                # budget decision, so the ledger skips maintaining it
                spent[key] = 1
            else:
                self._is_first_map[key] = True
                spent[key] = spent.get(key, 0) + 1
        if self.mode == "isd":
            flow.credit -= 1.0
        flow.sent += 1
        self._metrics.cells_injected += 1
        if flow.sent >= flow.size_cells:
            self._prune_local_flows()
        return cell

    # ------------------------------------------------------------------ #
    # token plumbing

    def _queue_token(self, neighbor: int, token: Token) -> None:
        queue = self.token_return.get(neighbor)
        if queue is None:
            self.token_return[neighbor] = [token]
        else:
            queue.append(token)
        self.pending_tokens += 1
        self._wake_peer(neighbor)

    def _queue_ctrl(self, link: int, msg: ControlMessage) -> None:
        queue = self.ctrl_out.get(link)
        if queue is None:
            self.ctrl_out[link] = deque((msg,))
        else:
            queue.append(msg)
        self.pending_ctrl += 1
        self._visit[link].add(self.node_id)

    def _pop_ctrl(self, link: int) -> Tuple[ControlMessage, ...]:
        queue = self.ctrl_out.get(link)
        if not queue:
            return ()
        out = []
        while queue and len(out) < 2:
            out.append(queue.popleft())
        self.pending_ctrl -= len(out)
        return tuple(out)

    # ------------------------------------------------------------------ #
    # RX path

    def receive(self, tx: Transmission, t: int, phase: int) -> None:
        """Run the RX pipeline for a transmission arriving this slot.

        Hot path: the regular-token credit/release of
        :meth:`~repro.core.buckets.TokenLedger.credit` and
        :meth:`~repro.core.buckets.ActiveBucketTracker.release` is inlined.
        """
        sender = tx.sender
        engine = self.engine
        manager = engine.failure_manager
        complaint = False
        if tx.tokens:
            uses_hbh = self.uses_hbh
            if uses_hbh:
                spent = self._spent_map
                is_first = self._is_first_map
                refcount = self._refcount_map
                budget1 = self._budget1
            for token in tx.tokens:
                if token.kind == TOKEN_REGULAR:
                    if uses_hbh:
                        dest = token.dest
                        sprays = token.sprays
                        key = (sender, dest, sprays)
                        if budget1:
                            # spent counts are always exactly one, and the
                            # first-hop marking is never written in this mode
                            spent.pop(key, None)
                        else:
                            used = spent.get(key, 0)
                            if used > 0:
                                if used == 1:
                                    del spent[key]
                                    is_first.pop(key, None)
                                else:
                                    spent[key] = used - 1
                        bucket = (dest, sprays)
                        count = refcount.get(bucket, 0)
                        if count > 1:
                            refcount[bucket] = count - 1
                        elif count:
                            del refcount[bucket]
                else:
                    # failure-protocol tokens flow in every CC mode
                    if token.sprays >= 1 and token.kind == TOKEN_INVALIDATE \
                            and token.dest == sender:
                        complaint = True
                    engine.failures_on_token(self, sender, token, phase)
        if manager is not None:
            # every arrival is a liveness observation: hearing the sender
            # clears a SILENT marking, and hearing it *without* a deafness
            # complaint clears a DEAF marking
            manager.on_contact(engine, self, sender, t, complaint)
        if tx.ctrl:
            for msg in tx.ctrl:
                self._handle_ctrl(msg, t, phase)
        cell = tx.cell
        if cell is None:
            return
        if cell.dst == self.node_id:
            self._deliver(cell, t)
            return
        # the cell left on the phase of the link it came in on, and sprays
        # next on the phase after it
        spray = self._link_of[sender] // self._rm1 + 1
        self.enqueue_forward(cell, t, spray if spray < self.h else 0)

    def _deliver(self, cell: Cell, t: int) -> None:
        """Final-hop delivery: reorder queue + flow accounting + pulls."""
        engine = self.engine
        # on_cell_delivered, inlined (this runs once per delivered cell)
        self._metrics.payload_cells_delivered += 1
        if engine.digest is not None:
            engine.digest.on_delivery(cell, t)
        if engine.tracer is not None:
            engine.tracer.on_deliver(cell, t)
        if engine.delivery_hook is not None:
            engine.delivery_hook(cell, t)
        # count the cell on its flow, finalise only on the last
        flow = engine.flows._active.get(cell.flow_id)
        finished = False
        if flow is not None:
            flow.delivered += 1
            if flow.delivered >= flow.size_cells:
                engine._finish_flow(flow, t)
                finished = True
        if self.is_rd_family and not finished:
            # flow still running: maybe request more cells from the sender
            count = self._recv_counts.get(cell.flow_id, 0) + 1
            self._recv_counts[cell.flow_id] = count
            if count % self.config.pull_batch == 0:
                self._send_ctrl(
                    ControlMessage(CTRL_PULL, cell.flow_id, self.node_id, cell.src),
                    t,
                )
        elif finished:
            self._recv_counts.pop(cell.flow_id, None)

    def enqueue_forward(self, cell: Cell, t: int, phase: int) -> None:
        """Assign the cell's next hop and enqueue it (the RX enqueue step).

        ``phase`` is the phase of the cell's next spraying hop, and where a
        direct hop starts looking for a coordinate to fix: the phase after
        the one the *previous hop's wire* was in, not the arrival slot's —
        with a long propagation delay the arrival slot may already belong
        to the next phase, and using it would skip a coordinate in the
        spraying semi-path, breaking the EBS path structure.
        """
        n = cell.sprays_remaining
        if n > 0:
            # the failure-free cases of _choose_spray_offset, inlined: plain
            # VLB spraying is a single RNG draw
            if not self.uses_spray_short and not self.failed_neighbors \
                    and not self.known_failed:
                # randrange(1, r) unrolled onto the raw generator
                getrandbits = self._getrandbits
                bits = self._spray_bits
                rm1 = self._rm1
                v = getrandbits(bits)
                while v >= rm1:
                    v = getrandbits(bits)
                offset = v + 1
            elif self.uses_spray_short and not self.failed_neighbors \
                    and not self.known_failed:
                # shortest-queue spraying: min/count/index do the
                # scanning in C
                lengths = list(map(len, self._phase_items[phase]))
                shortest = min(lengths)
                count = lengths.count(shortest)
                if count == 1:
                    offset = lengths.index(shortest) + 1
                else:
                    # randrange(count) unrolled onto the raw generator,
                    # then walk to the drawn tie (same draw, same pick)
                    getrandbits = self._getrandbits
                    bits = count.bit_length()
                    v = getrandbits(bits)
                    while v >= count:
                        v = getrandbits(bits)
                    idx = lengths.index(shortest)
                    while v:
                        idx = lengths.index(shortest, idx + 1)
                        v -= 1
                    offset = idx + 1
            else:
                offset = self._choose_spray_offset(phase)
                if offset is None:
                    self.release_upstream(cell)
                    self.engine.drop_cell(cell, t)
                    return
            link = phase * self._rm1 + offset - 1
        else:
            link = self._direct_link(cell.dst, phase)
            if self.failed_neighbors or self.known_failed \
                    or self.link_invalid:
                # Appendix A: only a direct hop into a failure reroutes
                target = self.neighbors_flat[link]
                if target in self.failed_neighbors \
                        or target in self.known_failed \
                        or (target, cell.dst) in self.link_invalid:
                    link = self._reroute_around_failure(
                        cell, target, link // self._rm1)
                    if link is None:
                        return  # dropped inside
                    n = cell.sprays_remaining
        items = self.link_queues[link]
        if self.is_ndp and len(items) >= self.config.ndp_queue_limit:
            self._trim(cell, t)
            return
        if self._is_priority:
            # PIEO push-in by the rank the cell implies (paper §5.3
            # baseline 2): after every cell of equal or lower rank, which
            # keeps equal ranks in arrival order (bisect-right)
            epoch = self.epoch_length
            rank = cell.created_at + cell.flow_size * epoch
            lo, hi = 0, len(items)
            while lo < hi:
                mid = (lo + hi) // 2
                other = items[mid]
                if other.created_at + other.flow_size * epoch <= rank:
                    lo = mid + 1
                else:
                    hi = mid
            items.insert(lo, cell)
        else:
            items.append(cell)
        self.total_enqueued += 1
        self._visit[link].add(self.node_id)
        # the run's high-water marks rise here (MetricsCollector holds them)
        metrics = self._metrics
        length = len(items)
        if length > metrics.max_queue_length:
            metrics.max_queue_length = length
        if self.uses_hbh:
            refcount = self._refcount_map
            bucket = (cell.dst, n)
            count = refcount.get(bucket, 0) + 1
            refcount[bucket] = count
            if count == 1 and len(refcount) > metrics.max_active_buckets:
                metrics.max_active_buckets = len(refcount)

    def _choose_spray_offset(self, phase: int) -> Optional[int]:
        """Pick the spraying next hop among the phase's neighbours not known
        to be down: random, or shortest-queue (spray-short).  ``None`` when
        every one is down."""
        base = phase * self._rm1
        failed, unreachable = self.failed_neighbors, self.known_failed
        options = [
            offset for offset, nb in enumerate(
                self.neighbors_flat[base:base + self._rm1], 1)
            if nb not in failed and nb not in unreachable
        ]
        if not options:
            return None
        if self.uses_spray_short:
            queues = self.link_queues
            lengths = [len(queues[base + offset - 1]) for offset in options]
            shortest = min(lengths)
            options = [offset for offset, length in zip(options, lengths)
                       if length == shortest]
            if len(options) == 1:
                return options[0]
        return options[self._randrange(len(options))]

    def _direct_link(self, dst: int, phase: int) -> int:
        """The link of the direct hop toward ``dst``: it fixes the first
        coordinate, counting cyclically from ``phase``, in which this node
        differs from ``dst`` (the EBS direct semi-path)."""
        h = self.h
        r = self.r
        weights = self._weights
        my_digits = self._my_digits
        p = phase
        for _ in range(h):
            mine = my_digits[p]
            want = (dst // weights[p]) % r
            if mine != want:
                return p * self._rm1 + (want - mine) % r - 1
            p += 1
            if p >= h:
                p = 0
        # all coordinates already match: this IS the destination — but then
        # receive() would have delivered it.  Treat as corrupt state.
        raise AssertionError(
            f"direct hop for {dst} already at destination {self.node_id}")

    def release_upstream(self, cell: Cell) -> None:
        """Return the upstream hop's token when a cell leaves its bucket
        abnormally (reroute or drop).

        Without this, the upstream's per-(neighbour, bucket) credit would
        leak on every failure reroute and, with T=1, permanently block the
        bucket.  After the release the cell no longer owes a token.
        """
        prev = cell.prev_hop
        if (
            self.uses_hbh
            and prev >= 0
            and prev != self.node_id
            and prev not in self.failed_neighbors
            and prev not in self.known_failed
        ):
            self._queue_token(
                prev, Token(cell.dst, cell.sprays_remaining, TOKEN_REGULAR)
            )
        cell.prev_hop = -1

    def _reroute_around_failure(self, cell: Cell, failed_target: int,
                                phase: int) -> Optional[int]:
        """Appendix A: a direct hop through a failure resets the cell to
        fresh sprays; returns the link of its first, or ``None`` when the
        cell was dropped instead."""
        self.release_upstream(cell)
        if self.engine.tracer is not None:
            self.engine.tracer.on_reroute(cell)
        if failed_target == cell.dst:
            self.engine.drop_cell(cell, self.engine.t)
            return None
        # Reset to the first spraying hop: the cell will take h spray hops
        # from here (its bucket index at this node becomes h transiently).
        cell.sprays_remaining = self.h
        next_phase = (phase + 1) % self.h
        offset = self._choose_spray_offset(next_phase)
        if offset is None:
            self.engine.drop_cell(cell, self.engine.t)
            return None
        return next_phase * self._rm1 + offset - 1

    # ------------------------------------------------------------------ #
    # control-message handling (RD / NDP)

    def _send_ctrl(self, msg: ControlMessage, t: int) -> None:
        """Originate a control message: enqueue it for a spraying first hop."""
        msg.sprays_remaining = self.h - 1
        phase = self.rng.randrange(self.h)
        offset = self.rng.randrange(1, self.r)
        self._queue_ctrl(self.link_index(phase, offset), msg)
        self.engine.metrics.control_messages += 1

    def _handle_ctrl(self, msg: ControlMessage, t: int, arrival_phase: int) -> None:
        """Route or consume one control message on arrival."""
        if msg.dst == self.node_id:
            self._consume_ctrl(msg, t)
            return
        n = msg.sprays_remaining
        phase = (arrival_phase + 1) % self.h
        if n > 0:
            msg.sprays_remaining = n - 1
            link = self.link_index(phase, self.rng.randrange(1, self.r))
        else:
            link = self._direct_link(msg.dst, phase)
        self._queue_ctrl(link, msg)

    def _consume_ctrl(self, msg: ControlMessage, t: int) -> None:
        if msg.kind == CTRL_PROBE:
            # A liveness probe: reply with an explicit header at the next
            # meeting so the prober hears us even if we are idle.  Replies
            # carry no probe marker, which is what stops two healthy idle
            # nodes from ping-ponging headers forever.
            self._force_dummy.add(msg.src)
            self._wake_peer(msg.src)
            return
        if msg.kind == CTRL_PULL:
            flow = self.engine.flows.get(msg.flow_id)
            if flow is not None and flow.src == self.node_id:
                flow.credit += self.config.pull_batch
        elif msg.kind == CTRL_TRIM:
            # receiver learns of a trimmed cell; ask the sender to resend
            self._send_ctrl(
                ControlMessage(CTRL_RTX, msg.flow_id, self.node_id, msg.src, msg.seq),
                t,
            )
        elif msg.kind == CTRL_RTX:
            self.rtx_queue.append((msg.flow_id, msg.src, msg.seq))
            self.wake()

    def _trim(self, cell: Cell, t: int) -> None:
        """NDP trimming: drop the payload, forward the header as control."""
        self.engine.metrics.on_trim()
        notice = ControlMessage(CTRL_TRIM, cell.flow_id, cell.src, cell.dst, cell.seq)
        self._send_ctrl(notice, t)

    # ------------------------------------------------------------------ #
    # recovery

    def reset_for_recovery(self, t: int) -> None:
        """Wipe all pre-failure state when this node rejoins the network.

        A crashed-and-rebooted host loses its queues and its learned failure
        knowledge; carrying either across the crash would let it re-transmit
        dead cells or route on stale invalidations.  Queued payload cells
        are accounted as drops (their upstream token credit was already
        healed by ``TokenLedger.reset_neighbor`` at the neighbours when they
        detected the crash).  Locally originated flows keep their source
        data — the host still has it — and simply resume sending.
        """
        drop = self.engine.drop_cell
        for items in self.link_queues:
            for cell in items:
                cell.prev_hop = -1
                drop(cell, t)
            items.clear()
        self.total_enqueued = 0
        self.token_return.clear()
        self.pending_tokens = 0
        self.ctrl_out.clear()
        self.pending_ctrl = 0
        self.rtx_queue.clear()
        self._recv_counts.clear()
        self.failed_neighbors.clear()
        self.known_failed.clear()
        self.link_invalid.clear()
        self._fail_cause.clear()
        self._force_dummy.clear()
        if self.uses_hbh:
            self.ledger = TokenLedger(
                budget=self.config.token_budget,
                first_hop_budget=self.config.first_hop_token_budget,
            )
            self.bucket_tracker = ActiveBucketTracker()
            self._cache_hbh_state()
        # the node may resume sending its surviving local flows immediately
        self.wake()

    # ------------------------------------------------------------------ #
    # shard-backend receive hook

    def absorb_shard_state(self, per_link_cells) -> None:
        """Install gathered queue contents from a shard worker, in place.

        ``per_link_cells`` holds one FIFO-ordered cell list per link
        index.  The queues are aliased by this node's TX caches, so they
        are mutated in place, never rebound — the boundary-crossing receive
        side of the ``"shard"`` backend (see repro.sim.backends.shard).
        """
        total = 0
        for items, cells in zip(self.link_queues, per_link_cells):
            items[:] = cells
            total += len(cells)
        self.total_enqueued = total

    # ------------------------------------------------------------------ #
    # checkpoint support

    def state_rows(self, rows: Dict[str, list]) -> None:
        """Append this node's authoritative state to the plain model's row
        lists, a tuple per row in :data:`repro.sim.tables.TABLES` column
        order (nodes are encoded in id order, so the rows arrive in the
        schema's).

        Hot-path caches (the slots below the marker in ``__slots__``) are
        derived and rebuilt by construction.  ``local_flows`` stores flow
        ids — the Flow objects belong to the engine's
        :class:`~repro.sim.flows.FlowTable` and are re-resolved on load so
        aliasing is preserved.  A token or control queue, like a ledger
        pair, is its contents: an empty one encodes as no rows, and control
        rows come in link order whichever link's queue was made first.
        """
        i = self.node_id
        cells, queues = rows["cells"], rows["queues"]
        for items in self.link_queues:
            queues.append((len(items),))
            if items:
                cells.extend(map(Cell.state, items))
        tracker = self.bucket_tracker
        rows["scalars"].append((self.failed,))
        rows["local_flows"].extend(
            (i, flow.flow_id) for flow in self.local_flows)
        if self.pending_tokens:
            rows["tokens"].extend(
                (i, nb, *token.state())
                for nb, held in sorted(self.token_return.items())
                for token in held)
        if tracker is not None:
            rows["ledger"].extend((i, *row) for row in self.ledger.state())
            rows["tracker"].extend((i, *row) for row in tracker.state())
        if self.pending_ctrl:
            rows["ctrl_out"].extend(
                (i, link, *msg.state())
                for link, held in sorted(self.ctrl_out.items())
                for msg in held)
        for name, held in (
            ("failed_neighbors", self.failed_neighbors),
            ("known_failed", self.known_failed),
            ("force_dummy", self._force_dummy),
        ):
            if held:
                rows[name].extend((i, x) for x in sorted(held))
        for name, held in (
            ("rtx_queue", self.rtx_queue),
            ("link_invalid", sorted(self.link_invalid)),
            ("fail_cause", sorted(self._fail_cause.items())),
            ("recv_counts", sorted(self._recv_counts.items())),
        ):
            if held:
                rows[name].extend((i, *x) for x in held)

    def load_state(self, state: Dict[str, list], flow_lookup) -> None:
        """Fill this node from its rows of the plain model
        (:func:`repro.sim.tables.node_states`; every ``(node, ...)`` row
        still leads with the node id).

        Containers are refilled in place wherever the hot path aliases them
        (send queues, ledger/tracker dicts); ``flow_lookup`` maps a flow id
        back to the engine's live Flow object.  The counters are the
        lengths of the rows they count.
        """
        (failed,), = state["scalars"]
        self.failed = bool(failed)
        self.total_enqueued = len(state["cells"])
        self.pending_tokens = len(state["tokens"])
        self.pending_ctrl = len(state["ctrl_out"])
        cells = map(Cell.from_state, state["cells"])
        for items, (length,) in zip(self.link_queues, state["queues"]):
            items[:] = islice(cells, length)
        self.token_return.clear()
        for _, nb, *token in state["tokens"]:
            self.token_return.setdefault(nb, []).append(
                Token.from_state(token))
        if self.bucket_tracker is not None:
            self.ledger.load_state(row[1:] for row in state["ledger"])
            self.bucket_tracker.load_state(
                row[1:] for row in state["tracker"])
        self._cache_hbh_state()
        self.local_flows[:] = [
            flow for flow in (flow_lookup(fid)
                              for _, fid in state["local_flows"])
            if flow is not None
        ]
        self.rtx_queue.clear()
        self.rtx_queue.extend(tuple(item[1:]) for item in state["rtx_queue"])
        self.ctrl_out.clear()
        for _, link, *msg in state["ctrl_out"]:
            self.ctrl_out.setdefault(link, deque()).append(
                ControlMessage.from_state(msg))
        for held, name in (
            (self.failed_neighbors, "failed_neighbors"),
            (self.known_failed, "known_failed"),
            (self._force_dummy, "force_dummy"),
        ):
            held.clear()
            held.update(x for _, x in state[name])
        self.link_invalid.clear()
        self.link_invalid.update(tuple(row[1:]) for row in state["link_invalid"])
        for held, name in ((self._fail_cause, "fail_cause"),
                           (self._recv_counts, "recv_counts")):
            held.clear()
            held.update((key, value) for _, key, value in state[name])
