"""End-host model for the packet-level simulator.

Each :class:`Node` mirrors the structure of the paper's FPGA end-host
(Section 4.1): per-link send queues (PIEO under hop-by-hop), a token ledger
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
from .pieo import PieoQueue
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
    """Everything sent over one link in one timeslot: a cell plus header
    sidecars (tokens and control messages)."""

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
        """Append this transmission (it is on the wire, so it carries a
        cell) to the plain model's row lists (:mod:`repro.sim.tables`)."""
        wire = len(rows["wire"])
        rows["wire"].append((self.sender, self.receiver, self.arrival))
        rows["cells"].append(self.cell.state())
        rows["wire_tokens"].extend(
            (wire, *token.state()) for token in self.tokens)
        rows["wire_ctrl"].extend((wire, *msg.state()) for msg in self.ctrl)

    @classmethod
    def from_state(cls, state: tuple) -> "Transmission":
        """One of :func:`repro.sim.tables.wire_states`' tuples, as built."""
        sender, receiver, arrival, cell, tokens, ctrl = state
        tx = cls(
            sender, receiver, Cell.from_state(cell),
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
        "neighbors",
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
        "_link_items",
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

        # neighbors[p][k-1] = phase-p neighbour at round-robin offset k
        self.neighbors: List[List[int]] = [
            [self.coords.neighbor_at_offset(node_id, p, k) for k in range(1, self.r)]
            for p in range(self.h)
        ]
        #: same table flattened so neighbors_flat[link_index] is the peer
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
        #: interned regular tokens by (dest, sprays) — tokens are value
        #: objects and never mutated, so hops can share one instance
        self._token_cache: Dict[Tuple[int, int], Token] = {}
        links = self.h * (self.r - 1)
        # only priority ranking ever pushes a non-zero rank; every other
        # mode gets the cheaper bare-cell fifo representation.  The queues
        # are uncapped: NDP enforces its limit by trimming at enqueue
        self.link_queues: List[PieoQueue] = [
            PieoQueue(fifo=not self._is_priority) for _ in range(links)
        ]
        #: the queues' backing lists, flat by link index (the TX hot path)
        #: — their identity is stable (PieoQueue never reassigns ``_items``)
        self._link_items: Tuple[list, ...] = tuple(
            q._items for q in self.link_queues
        )
        #: the same lists grouped by phase (the spray scan iterates one
        #: phase): ``map(len, …)`` over one group reads every queue length
        #: without Python frames
        self._phase_items: Tuple[List[list], ...] = tuple(
            list(self._link_items[p * self._rm1:(p + 1) * self._rm1])
            for p in range(self.h)
        )
        self.token_return: Dict[int, Deque[Token]] = {}
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
        self.ctrl_out: List[Deque[ControlMessage]] = [deque() for _ in range(links)]
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
        #: neighbours owed one explicit dummy (a probe reply) even when idle
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

    def _wake_peer(self, peer: int) -> None:
        """Put this node on the visit set of the link to ``peer``, which
        something (a token, a probe reply) is now owed to; everywhere if
        ``peer`` is no neighbour."""
        link = self._link_of.get(peer)
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
        empty dummy cell; the simulator elides it) — so it then owes that
        neighbour nothing, which is what lets ``run_tx`` retire it from the
        link's visit set.

        This is the object pipeline's only TX routine (``run_tx`` calls it
        for every node on the slot's link's visit set) and its hottest
        function.  The PIEO scan fuses
        the eligibility test with the next-hop charge — the hit's check just
        proved the credit exists — and the token-upstream / bucket-release
        step works on the ledger's and tracker's dicts directly, so a
        forwarded cell costs one pass over the queue and no method calls.
        (:meth:`_finish_forward` is that step through the ledger/tracker
        methods; the FIFO ablation, which never scans, uses it as is.)
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
        items = self._link_items[link]
        if items:
            if not self.uses_hbh:
                # priority queues store ranked (rank, seq, cell) entries;
                # every other mode uses the bare-cell fifo representation
                cell = items.pop(0)
                if self._is_priority:
                    cell = cell[2]
                self.total_enqueued -= 1
                n = cell.sprays_remaining
                if n > 0:
                    cell.sprays_remaining = n - 1
                cell.prev_hop = node_id
                cell.hops += 1
            elif self._fifo_hbh:
                # FIFO ablation: only the head may be sent; if it lacks
                # credit the whole queue head-of-line blocks
                if self._hbh_eligible(items[0], neighbor):
                    cell = items.pop(0)
                    self.total_enqueued -= 1
                    self._finish_forward(cell, neighbor)
            else:
                # first eligible cell wins: final hops are free, other hops
                # need next-hop bucket credit (cf. _hbh_eligible); the
                # _finish_forward charge is fused into the scan — the hit's
                # eligibility check just guaranteed the credit exists
                spent = self._spent_map
                if self._budget1:
                    # uniform budget T = T_F = 1: one credit remains exactly
                    # when the (neighbour, bucket) pair has nothing spent
                    for i, c in enumerate(items):
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
                    for i, c in enumerate(items):
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
                    # rest of _finish_forward: token upstream, bucket release
                    self.total_enqueued -= 1
                    n = cell.sprays_remaining
                    dst = cell.dst
                    prev = cell.prev_hop
                    bucket = (dst, n)
                    if prev >= 0:
                        queue = self.token_return.get(prev)
                        if queue is None:
                            queue = deque()
                            self.token_return[prev] = queue
                        tcache = self._token_cache
                        tok = tcache.get(bucket)
                        if tok is None:
                            tok = Token(dst, n, TOKEN_REGULAR)
                            tcache[bucket] = tok
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
                    out = []
                    while len(out) < limit:
                        out.append(queue.popleft())
                    self.pending_tokens -= limit
                    tokens = tuple(out)
        ctrl: Tuple[ControlMessage, ...] = ()
        if self.pending_ctrl:
            queue = self.ctrl_out[link]
            if queue:
                out = []
                while queue and len(out) < 2:
                    out.append(queue.popleft())
                self.pending_ctrl -= len(out)
                ctrl = tuple(out)
        if cell is None and not tokens and not ctrl and not force:
            return None
        if cell is None:
            cell = Cell.make_dummy(self.node_id, neighbor)
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

        A real Shale node transmits a (dummy) cell on every link in every
        connected slot; that constant chatter is what lets the other side of
        a recovered link notice it is alive again.  The simulator elides
        dummies on healthy links, so links under suspicion must send them
        explicitly — once per epoch, since a pair meets once per epoch.
        While we cannot *hear* the neighbour, the probe also carries a
        deafness complaint token so a one-way link failure shuts the link
        down on both sides (symmetric detection).
        """
        tokens: List[Token] = []
        if self._fail_cause.get(neighbor, 0) & LINK_SILENT:
            tokens.append(Token(self.node_id, 1, TOKEN_INVALIDATE))
        queue = self.token_return.get(neighbor)
        if queue:
            limit = self.config.tokens_per_header
            while queue and len(tokens) < limit:
                tokens.append(queue.popleft())
                self.pending_tokens -= 1
        ctrl = (ControlMessage(CTRL_PROBE, -1, self.node_id, neighbor),)
        ctrl += self._pop_ctrl(self.link_index(phase, offset))
        cell = Cell.make_dummy(self.node_id, neighbor)
        return Transmission(self.node_id, neighbor, cell, tuple(tokens), ctrl)

    def _hbh_eligible(self, cell: Cell, neighbor: int) -> bool:
        """Hop-by-hop eligibility: final hops are free, others need credit."""
        if neighbor == cell.dst:
            return True
        n = cell.sprays_remaining
        next_bucket = (cell.dst, n - 1) if n > 0 else (cell.dst, 0)
        return self.ledger.can_send(neighbor, next_bucket)

    def _finish_forward(self, cell: Cell, neighbor: int) -> None:
        """Charge tokens, return a token upstream, update the cell header."""
        n = cell.sprays_remaining
        if self.uses_hbh:
            if neighbor != cell.dst:
                next_bucket = (cell.dst, n - 1) if n > 0 else (cell.dst, 0)
                self.ledger.charge(neighbor, next_bucket)
            # Token back to the hop we received this cell from, naming the
            # bucket the cell occupied here (paper Fig. 5).
            prev = cell.prev_hop
            if prev >= 0:
                self._queue_token(prev, Token(cell.dst, n, TOKEN_REGULAR))
            self.bucket_tracker.release((cell.dst, n))
        if n > 0:
            cell.sprays_remaining = n - 1
        cell.prev_hop = self.node_id
        cell.hops += 1

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
        flow_id, dst, seq = self.rtx_queue[0]
        if neighbor == dst and self.h == 1:
            # fine: spray hop straight to the destination still delivers
            pass
        self.rtx_queue.popleft()
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
        cell.spray_phase = (phase + 1) % self.h
        self.engine.metrics.on_retransmission()
        self.engine.metrics.on_cell_injected()
        return cell

    def _pick_flow(self, t: int, neighbor: int, phase: int = 0) -> Optional[Flow]:
        """Choose which local flow (if any) may emit a cell this slot."""
        candidates = self.local_flows
        mode = self.mode
        chosen: Optional[Flow] = None
        if self._is_priority:
            best_rank = None
            for flow in candidates:
                if flow.done_sending:
                    continue
                rank = flow.arrival + flow.size_cells * self.epoch_length
                if best_rank is None or rank < best_rank:
                    best_rank, chosen = rank, flow
        elif mode == "isd":
            engine = self.engine
            for flow in candidates:
                if flow.done_sending:
                    continue
                if engine.isd_credit(flow, t):
                    chosen = flow
                    break
        elif self.is_rd_family:
            window = self.config.initial_window
            for flow in candidates:
                if flow.done_sending:
                    continue
                if flow.sent < window + flow.credit:
                    chosen = flow
                    break
        else:
            # every remaining mode admits unconditionally
            for flow in candidates:
                if not flow.done_sending:
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
        if chosen is not None and chosen.done_sending:
            return None
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
        cell.spray_phase = (phase + 1) % self.h
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
            queue = deque()
            self.token_return[neighbor] = queue
        queue.append(token)
        self.pending_tokens += 1
        self._wake_peer(neighbor)

    def _pop_ctrl(self, link: int) -> Tuple[ControlMessage, ...]:
        queue = self.ctrl_out[link]
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
        if cell is None or cell.dummy:
            return
        if cell.dst == self.node_id:
            self._deliver(cell, t)
            return
        self.enqueue_forward(cell, t, phase)

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
        record = None
        if flow is not None:
            flow.delivered += 1
            if flow.delivered >= flow.size_cells:
                record = engine._finish_flow(flow, t)
        if self.is_rd_family and record is None:
            # flow still running: maybe request more cells from the sender
            count = self._recv_counts.get(cell.flow_id, 0) + 1
            self._recv_counts[cell.flow_id] = count
            if count % self.config.pull_batch == 0:
                self._send_ctrl(
                    ControlMessage(CTRL_PULL, cell.flow_id, self.node_id, cell.src),
                    t,
                )
        elif record is not None:
            self._recv_counts.pop(cell.flow_id, None)

    def enqueue_forward(self, cell: Cell, t: int, arrival_phase: int) -> None:
        """Assign the cell's next hop and enqueue it (the RX enqueue step).

        The next hop's phase follows the *previous hop's wire phase* (the
        ``spray_phase`` hint carried on the cell), not the arrival slot's
        phase: with a long propagation delay the arrival slot may already
        belong to the next phase, and using it would skip a coordinate in
        the spraying semi-path, breaking the EBS path structure.
        """
        hint = cell.spray_phase
        if hint < 0:
            hint = (arrival_phase + 1) % self.h
        n = cell.sprays_remaining
        if n > 0:
            next_phase = hint
            # common case of _choose_spray_offset: plain VLB spraying with
            # nothing to avoid is a single RNG draw
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
                # shortest-queue spraying with nothing to avoid, inlined
                # from _choose_spray_offset's fast path; min/count/index do
                # the scanning in C
                lengths = list(map(len, self._phase_items[next_phase]))
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
                offset = self._choose_spray_offset(cell, next_phase)
                if offset is None:
                    self.release_upstream(cell)
                    self.engine.drop_cell(cell, t)
                    return
        elif not self.failed_neighbors and not self.known_failed \
                and not self.link_invalid:
            # direct hop with no failure state: _choose_direct_hop's loop
            # inlined (no reroute/drop possible when the avoid sets are empty)
            dst = cell.dst
            h = self.h
            r = self.r
            weights = self._weights
            my_digits = self._my_digits
            p = hint
            next_phase = -1
            for _ in range(h):
                mine = my_digits[p]
                want = (dst // weights[p]) % r
                if mine != want:
                    next_phase = p
                    offset = (want - mine) % r
                    break
                p += 1
                if p >= h:
                    p -= h
            if next_phase < 0:
                raise AssertionError(
                    f"direct-hop cell for {dst} already at destination "
                    f"{self.node_id}"
                )
        else:
            hop = self._choose_direct_hop(cell, hint)
            if hop is None:
                return  # dropped inside
            next_phase, offset = hop
            n = cell.sprays_remaining  # may have been reset by a reroute
        cell.spray_phase = (next_phase + 1) % self.h
        link = next_phase * self._rm1 + offset - 1
        queue = self.link_queues[link]
        items = queue._items
        if self.is_ndp and len(items) >= self.config.ndp_queue_limit:
            self._trim(cell, t)
            return
        if self._is_priority:
            # ranked push (the only mode with non-zero ranks)
            queue.push(
                cell, cell.created_at + cell.flow_size * self.epoch_length
            )
            length = len(items)
        else:
            # PieoQueue.push inlined for the bare-cell fifo representation
            # (node send queues are uncapped): a plain append
            items.append(cell)
            length = len(items)
            if length > queue.peak_occupancy:
                queue.peak_occupancy = length
        self.total_enqueued += 1
        self._visit[link].add(self.node_id)
        if self.uses_hbh:
            tracker = self.bucket_tracker
            refcount = self._refcount_map
            bucket = (cell.dst, n)
            count = refcount.get(bucket, 0) + 1
            refcount[bucket] = count
            if count == 1 and len(refcount) > tracker.peak:
                tracker.peak = len(refcount)
        metrics = self._metrics
        if length > metrics.max_queue_length:
            metrics.max_queue_length = length

    def _choose_spray_offset(self, cell: Cell, phase: int) -> Optional[int]:
        """Pick the spraying next hop: random, or shortest-queue (spray-short)."""
        neighbors = self.neighbors[phase]
        avoid = self.failed_neighbors or self.known_failed
        base = phase * self._rm1
        if self.uses_spray_short:
            queues = self.link_queues
            best_offsets: List[int] = []
            best_len = None
            if not avoid:
                # fast path: every neighbour is a candidate
                for i in range(self._rm1):
                    length = len(queues[base + i]._items)
                    if best_len is None or length < best_len:
                        best_len = length
                        best_offsets = [i + 1]
                    elif length == best_len:
                        best_offsets.append(i + 1)
            else:
                for i, nb in enumerate(neighbors):
                    if nb in self.failed_neighbors or nb in self.known_failed:
                        continue
                    length = len(queues[base + i]._items)
                    if best_len is None or length < best_len:
                        best_len = length
                        best_offsets = [i + 1]
                    elif length == best_len:
                        best_offsets.append(i + 1)
            if not best_offsets:
                return None
            if len(best_offsets) == 1:
                return best_offsets[0]
            return best_offsets[self._randrange(len(best_offsets))]
        if not avoid:
            return self._randrange(1, self.r)
        options = [
            i + 1
            for i, nb in enumerate(neighbors)
            if nb not in self.failed_neighbors and nb not in self.known_failed
        ]
        if not options:
            return None
        return options[self._randrange(len(options))]

    def _choose_direct_hop(self, cell: Cell, start_phase: int) -> Optional[Tuple[int, int]]:
        """Pick the next direct hop phase/offset, handling failed routes.

        Scans phases cyclically starting at ``start_phase`` (the phase after
        the previous hop's wire phase).  Returns ``None`` when the cell was
        dropped instead.
        """
        dst = cell.dst
        h = self.h
        r = self.r
        weights = self._weights
        my_digits = self._my_digits
        for i in range(h):
            p = start_phase + i
            if p >= h:
                p -= h
            mine = my_digits[p]
            weight = weights[p]
            want = (dst // weight) % r
            if mine == want:
                continue
            target = self.node_id + (want - mine) * weight
            if (
                (self.failed_neighbors and target in self.failed_neighbors)
                or (self.known_failed and target in self.known_failed)
                or (self.link_invalid and (target, dst) in self.link_invalid)
            ):
                return self._reroute_around_failure(cell, target, p)
            return p, (want - mine) % r
        # all coordinates already match: this IS the destination — but then
        # receive() would have delivered it.  Treat as corrupt state.
        raise AssertionError(
            f"direct-hop cell for {dst} already at destination {self.node_id}"
        )

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

    def _reroute_around_failure(
        self, cell: Cell, failed_target: int, phase: int
    ) -> Optional[Tuple[int, int]]:
        """Appendix A: direct hops through failures reset to fresh sprays."""
        self.release_upstream(cell)
        if self.engine.tracer is not None:
            self.engine.tracer.on_reroute(cell)
        if failed_target == cell.dst:
            self.engine.drop_cell(cell, self.engine.t)
            return None
        # Reset to the first spraying hop: the cell will take h spray hops
        # from here (its bucket index at this node becomes h transiently).
        cell.sprays_remaining = self.h
        next_phase = (phase + 1) % self.h if self.h > 1 else phase
        offset = self._choose_spray_offset(cell, next_phase)
        if offset is None:
            self.engine.drop_cell(cell, self.engine.t)
            return None
        return next_phase, offset

    # ------------------------------------------------------------------ #
    # control-message handling (RD / NDP)

    def _send_ctrl(self, msg: ControlMessage, t: int) -> None:
        """Originate a control message: enqueue it for a spraying first hop."""
        msg.sprays_remaining = self.h - 1
        phase = self.rng.randrange(self.h)
        offset = self.rng.randrange(1, self.r)
        link = self.link_index(phase, offset)
        self.ctrl_out[link].append(msg)
        self.pending_ctrl += 1
        self._visit[link].add(self.node_id)
        self.engine.metrics.control_messages += 1

    def _handle_ctrl(self, msg: ControlMessage, t: int, arrival_phase: int) -> None:
        """Route or consume one control message on arrival."""
        if msg.dst == self.node_id:
            self._consume_ctrl(msg, t)
            return
        n = msg.sprays_remaining
        if n > 0:
            msg.sprays_remaining = n - 1
            phase = (arrival_phase + 1) % self.h
            offset = self.rng.randrange(1, self.r)
        else:
            coords = self.coords
            phase = offset = None
            for i in range(1, self.h + 1):
                p = (arrival_phase + i) % self.h
                mine = coords.coordinate(self.node_id, p)
                want = coords.coordinate(msg.dst, p)
                if mine != want:
                    phase, offset = p, (want - mine) % self.r
                    break
            if phase is None:
                # already at destination coordinates — consume defensively
                self._consume_ctrl(msg, t)
                return
        link = self.link_index(phase, offset)
        self.ctrl_out[link].append(msg)
        self.pending_ctrl += 1
        self._visit[link].add(self.node_id)

    def _consume_ctrl(self, msg: ControlMessage, t: int) -> None:
        if msg.kind == CTRL_PROBE:
            # A liveness probe: reply with an explicit dummy at the next
            # meeting so the prober hears us even if we are idle.  Replies
            # carry no probe marker, which is what stops two healthy idle
            # nodes from ping-ponging dummies forever.
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
        for queue in self.link_queues:
            for cell in queue.remove_if(lambda c: True):
                cell.prev_hop = -1
                drop(cell, t)
        self.total_enqueued = 0
        self.token_return.clear()
        self.pending_tokens = 0
        for queue in self.ctrl_out:
            queue.clear()
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

    def absorb_shard_state(self, per_link_cells, per_link_peaks) -> None:
        """Install gathered queue contents from a shard worker, in place.

        ``per_link_cells`` holds one FIFO-ordered cell list per link index
        and ``per_link_peaks`` the matching peak occupancies.  The queues'
        backing lists are aliased by this node's TX caches, so they are
        mutated in place, never rebound — the boundary-crossing receive
        side of the ``"shard"`` backend (see repro.sim.backends.shard).
        """
        total = 0
        for queue, cells, peak in zip(
            self.link_queues, per_link_cells, per_link_peaks
        ):
            queue._items[:] = cells
            queue.peak_occupancy = peak
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
        aliasing is preserved.  A token ring, like a ledger pair, is its
        contents: an empty deque encodes as no rows.
        """
        i = self.node_id
        cells, queues = rows["cells"], rows["queues"]
        for queue in self.link_queues:
            elements, ranks, seq, peak = queue.state()
            queues.append((len(elements), peak, seq))
            if elements:
                cells.extend(map(Cell.state, elements))
                rows["ranks"].extend(ranks)
        tracker = self.bucket_tracker
        rows["scalars"].append((
            self.total_enqueued, self.pending_tokens, self.pending_ctrl,
            self.failed, 0 if tracker is None else tracker.peak,
        ))
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
                for link, held in enumerate(self.ctrl_out) for msg in held)
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
        (queue backing lists, ledger/tracker dicts); ``flow_lookup`` maps a
        flow id back to the engine's live Flow object.
        """
        (self.total_enqueued, self.pending_tokens, self.pending_ctrl,
         failed, peak), = state["scalars"]
        self.failed = bool(failed)
        cells = map(Cell.from_state, state["cells"])
        ranks = iter(state["ranks"])
        for queue, (length, top, seq) in zip(self.link_queues,
                                             state["queues"]):
            queue.load_state(list(islice(cells, length)), ranks, seq, top)
        self.token_return.clear()
        for _, nb, *token in state["tokens"]:
            self.token_return.setdefault(nb, deque()).append(
                Token.from_state(token))
        if self.bucket_tracker is not None:
            self.ledger.load_state(row[1:] for row in state["ledger"])
            self.bucket_tracker.load_state(
                (row[1:] for row in state["tracker"]), peak)
        self._cache_hbh_state()
        self.local_flows[:] = [
            flow for flow in (flow_lookup(fid)
                              for _, fid in state["local_flows"])
            if flow is not None
        ]
        self.rtx_queue.clear()
        self.rtx_queue.extend(tuple(item[1:]) for item in state["rtx_queue"])
        for held in self.ctrl_out:
            held.clear()
        for _, link, *msg in state["ctrl_out"]:
            self.ctrl_out[link].append(ControlMessage.from_state(msg))
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

    # ------------------------------------------------------------------ #
    # metrics

    def buffer_occupancy(self) -> int:
        """Total data cells enqueued at this node (all send queues)."""
        return self.total_enqueued

    def max_pieo_occupancy(self) -> int:
        """Largest peak occupancy among this node's PIEO queues."""
        return max((q.peak_occupancy for q in self.link_queues), default=0)
