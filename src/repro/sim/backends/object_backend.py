"""The reference per-node object backend.

This module owns the object pipeline's per-slot RX/TX section bodies
(:func:`deliver_arrivals`, :func:`run_tx` — two of the six sections of the
engine's slot body, :meth:`~repro.sim.engine.Engine.step`) and the
reference slot loop (:func:`advance`) that every backend runs for the
states it does not accelerate.

Hot-path discipline: these functions run once per slot (``run_tx``) and
once per arriving transmission (``deliver_arrivals``), so they keep
attribute access local and avoid allocation.
"""

from __future__ import annotations

from collections import deque

from ...core.cell import Cell
from ...core.header import TOKEN_REGULAR, Token
from ..node import Transmission
from . import EngineBackend, register_backend

__all__ = ["ObjectBackend", "advance", "run_tx", "deliver_arrivals"]


def deliver_arrivals(engine, t: int, rx_phase: int) -> None:
    """Deliver due transmissions; ``rx_phase`` is the phase the receivers
    are in *now*, which determines each payload cell's next hop."""
    in_flight = engine._in_flight
    nodes = engine.nodes
    manager = engine.failure_manager
    payload_arrived = 0
    popleft = in_flight.popleft
    pool = engine._tx_pool
    while in_flight and in_flight[0].arrival <= t:
        tx = popleft()
        cell = tx.cell
        if cell is not None and not cell.dummy:
            payload_arrived += 1
        if manager is not None:
            # the wire model: failed receivers, failed links, noise
            tx = manager.filter_arrival(engine, tx, t)
            if tx is None:
                continue
            nodes[tx.receiver].receive(tx, t, rx_phase)
            continue
        receiver = nodes[tx.receiver]
        if receiver.failed:
            if cell is not None and not cell.dummy:
                engine.wire_drop(tx)
            continue
        # Node.receive inlined for the manager-free wire (the common
        # case): no liveness bookkeeping, and deafness complaints only
        # matter to a failure manager, so regular-token credit/release
        # plus the cell dispatch is the whole RX pipeline.
        sender = tx.sender
        tokens = tx.tokens
        if tokens:
            if receiver.uses_hbh:
                spent = receiver._spent_map
                is_first = receiver._is_first_map
                refcount = receiver._refcount_map
                budget1 = receiver._budget1
                for token in tokens:
                    if token.kind == TOKEN_REGULAR:
                        dest = token.dest
                        sprays = token.sprays
                        key = (sender, dest, sprays)
                        if budget1:
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
                        engine.failures_on_token(
                            receiver, sender, token, rx_phase
                        )
            else:
                for token in tokens:
                    if token.kind != TOKEN_REGULAR:
                        engine.failures_on_token(
                            receiver, sender, token, rx_phase
                        )
        if tx.ctrl:
            for msg in tx.ctrl:
                receiver._handle_ctrl(msg, t, rx_phase)
        if cell is not None and not cell.dummy:
            if cell.dst == tx.receiver:
                receiver._deliver(cell, t)
            else:
                receiver.enqueue_forward(cell, t, rx_phase)
        if len(pool) < 512:
            pool.append(tx)
    if payload_arrived:
        engine._in_flight_payload -= payload_arrived


def run_tx(engine, t: int, phase: int, offset: int) -> None:
    """Run every non-idle node's TX path and put the result on the wire."""
    arrival = t + engine.config.propagation_delay
    enqueue_tx = engine._in_flight.append
    metrics = engine.metrics
    tracer = engine.tracer
    digest = engine.digest
    nodes = engine.nodes
    pool = engine._tx_pool
    # every node meets its round-robin peer on the same link index
    link = phase * (engine.coords.r - 1) + offset - 1
    sent = dummies = payload = tokens_sent = 0
    if engine.force_full_scan:
        # reference path: scan every node with the original per-node
        # checks and leave the active set untouched
        candidates = nodes
        active = None
    else:
        # nodes outside the active set are guaranteed skippable (failed,
        # or idle with no failed neighbours / owed probe replies), so
        # only the active ones are visited — in node-id order, which the
        # shared RNG stream requires.  When everything is active (the
        # loaded steady state) the node list is already that order.
        active = engine._active_ids
        if len(active) == len(nodes):
            candidates = nodes
        else:
            candidates = [nodes[i] for i in sorted(active)]
    for node in candidates:
        if node.failed:
            if active is not None:
                active.discard(node.node_id)
            continue
        if (
            node.total_enqueued == 0
            and not node.local_flows
            and node.pending_tokens == 0
            and node.pending_ctrl == 0
            and not node.rtx_queue
            and not node.failed_neighbors
            and not node._force_dummy
        ):
            if active is not None:
                active.discard(node.node_id)
            continue
        if (
            active is None
            or not node._inline_tx
            or node.failed_neighbors
            or node._force_dummy
        ):
            # reference TX pipeline: force_full_scan runs, non-default
            # configurations, and nodes with failure state
            tx = node.transmit(t, phase, offset)
            if tx is None:
                continue
        else:
            # Node.transmit inlined for the common case (the simulator's
            # hottest loop).  Must stay step-for-step equivalent to the
            # reference; tests/test_golden_traces.py and the
            # force_full_scan property test lock the equivalence down.
            neighbor = node.neighbors_flat[link]
            node_id = node.node_id
            cell = None
            items = node._link_items[link]
            if items:
                if node.uses_hbh:
                    # budget-1 eligibility scan with the charge fused in
                    spent = node._spent_map
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
                    if cell is not None:
                        # token upstream + bucket release
                        node.total_enqueued -= 1
                        n = cell.sprays_remaining
                        dst = cell.dst
                        prev = cell.prev_hop
                        bucket = (dst, n)
                        if prev >= 0:
                            queue = node.token_return.get(prev)
                            if queue is None:
                                queue = deque()
                                node.token_return[prev] = queue
                            tcache = node._token_cache
                            tok = tcache.get(bucket)
                            if tok is None:
                                tok = Token(dst, n, TOKEN_REGULAR)
                                tcache[bucket] = tok
                            queue.append(tok)
                            node.pending_tokens += 1
                        refcount = node._refcount_map
                        count = refcount.get(bucket, 0)
                        if count > 1:
                            refcount[bucket] = count - 1
                        elif count:
                            del refcount[bucket]
                        if n > 0:
                            cell.sprays_remaining = n - 1
                        cell.prev_hop = node_id
                        cell.hops += 1
                else:
                    cell = items.pop(0)
                    node.total_enqueued -= 1
                    n = cell.sprays_remaining
                    if n > 0:
                        cell.sprays_remaining = n - 1
                    cell.prev_hop = node_id
                    cell.hops += 1
            if cell is None and (node.local_flows or node.rtx_queue):
                if node.rtx_queue:
                    cell = node._admit_local_cell(t, phase, neighbor)
                else:
                    flow = None
                    for f in node.local_flows:
                        if f.sent < f.size_cells:
                            flow = f
                            break
                    if flow is not None and node.uses_hbh:
                        key = (neighbor, flow.dst, node._hm1)
                        if key in node._spent_map:
                            flow = node._pick_flow(t, neighbor, phase)
                    if flow is not None:
                        cell = node._emit_flow_cell(
                            flow, t, phase, neighbor
                        )
            tokens = ()
            if node.pending_tokens:
                queue = node.token_return.get(neighbor)
                if queue:
                    limit = node._tokens_per_header
                    if len(queue) <= limit:
                        tokens = tuple(queue)
                        queue.clear()
                        node.pending_tokens -= len(tokens)
                    else:
                        out = []
                        while len(out) < limit:
                            out.append(queue.popleft())
                        node.pending_tokens -= limit
                        tokens = tuple(out)
            ctrl = ()
            if node.pending_ctrl:
                queue = node.ctrl_out[link]
                if queue:
                    out = []
                    while queue and len(out) < 2:
                        out.append(queue.popleft())
                    node.pending_ctrl -= len(out)
                    ctrl = tuple(out)
            if cell is None:
                if not tokens and not ctrl:
                    continue
                cell = Cell.make_dummy(node_id, neighbor)
            if pool:
                tx = pool.pop()
                tx.sender = node_id
                tx.receiver = neighbor
                tx.cell = cell
                tx.tokens = tokens
                tx.ctrl = ctrl
            else:
                tx = Transmission(node_id, neighbor, cell, tokens, ctrl)
        cell = tx.cell
        sent += 1
        if cell.dummy:
            dummies += 1
        else:
            payload += 1
            if tracer is not None:
                tracer.on_hop(cell, tx.sender, tx.receiver, t)
        tokens = tx.tokens
        if tokens:
            tokens_sent += len(tokens)
            if digest is not None:
                digest.on_tokens(tx.sender, tx.receiver, tokens, t)
        tx.arrival = arrival
        enqueue_tx(tx)
    if sent:
        metrics.cells_sent += sent
        metrics.dummy_cells_sent += dummies
        metrics.tokens_sent += tokens_sent
        engine._in_flight_payload += payload


def advance(engine, end: int, drain: bool) -> None:
    """The reference slot loop: one ``engine.step()`` per timeslot.

    ``step`` is looked up on the instance once, at loop entry, so a
    caller that patches ``engine.step`` sees every slot go through it.
    """
    step = engine.step
    while engine.t < end and (not drain or engine.has_pending_work):
        step()


@register_backend("object")
class ObjectBackend(EngineBackend):
    """The default backend: the reference loop and nothing else."""

    __slots__ = ()

    def advance(self, engine, end: int, drain: bool) -> None:
        advance(engine, end, drain)
