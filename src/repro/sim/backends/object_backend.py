"""The reference per-node object backend.

The object pipeline has exactly one TX routine and one RX routine:
:meth:`Node.transmit <repro.sim.node.Node.transmit>` and
:meth:`Node.receive <repro.sim.node.Node.receive>`.  This module owns only
what sits between the nodes — two of the six sections of the engine's slot
body (:meth:`~repro.sim.engine.Engine.step`):

* :func:`run_tx` visits this slot's link's visit set in node-id order,
  calls ``node.transmit``, retires the nodes that are failed or owe the
  link nothing, and puts the result on the wire (tracer, digest, arrival
  stamp, counters);
* :func:`deliver_arrivals` takes due transmissions off the wire, applies
  the wire model (failed receivers, failed links, noise), calls
  ``receiver.receive`` and recycles the transmission shell;

and the reference slot loop (:func:`advance`) that every backend runs for
the states it does not accelerate.  Speed lives on the vector slab
(:mod:`repro.sim.backends.vector`); nothing here duplicates node logic.
"""

from __future__ import annotations

from . import EngineBackend, register_backend

__all__ = ["ObjectBackend", "advance", "run_tx", "deliver_arrivals"]

#: most Transmission shells kept for re-use; the rest are left to the GC
_TX_POOL_CAP = 512


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
        payload = cell is not None and not cell.dummy
        if payload:
            payload_arrived += 1
        receiver = nodes[tx.receiver]
        if manager is not None:
            # the wire model: failed receivers, failed links, noise (a lost
            # payload comes back as a header-only copy, same receiver)
            tx = manager.filter_arrival(engine, tx, t)
            if tx is None:
                continue
        elif receiver.failed:
            if payload:
                engine.wire_drop(tx)
            continue
        receiver.receive(tx, t, rx_phase)
        # the transmission is dead once its receiver has processed it
        if len(pool) < _TX_POOL_CAP:
            pool.append(tx)
    if payload_arrived:
        engine._in_flight_payload -= payload_arrived


def run_tx(engine, t: int, phase: int, offset: int) -> None:
    """Run the TX path of every node that may send on this slot's link
    and put the result on the wire."""
    arrival = t + engine.config.propagation_delay
    enqueue_tx = engine._in_flight.append
    metrics = engine.metrics
    tracer = engine.tracer
    digest = engine.digest
    nodes = engine.nodes
    link = phase * (engine.coords.r - 1) + offset - 1
    sent = dummies = payload = tokens_sent = 0
    if engine.force_full_scan:
        # reference for the visit sets: offer every node the slot and
        # leave the sets untouched
        candidates = nodes
        visit = None
    else:
        # a node outside the link's visit set would transmit nothing, so
        # only the listed ones are visited — in node-id order, which the
        # shared RNG stream requires.  When every node is listed (the
        # loaded steady state) the node list is already that order.
        visit = engine._visit[link]
        if len(visit) == len(nodes):
            candidates = nodes
        else:
            candidates = [nodes[i] for i in sorted(visit)]
    for node in candidates:
        if node.failed:
            if visit is not None:
                visit.discard(node.node_id)
            continue
        tx = node.transmit(t, phase, offset)
        if tx is None:
            # the node owes this link's peer nothing (a token, a control
            # message, a probe or a probe reply would each have made a
            # transmission), so it leaves the link's set unless cells
            # blocked on credit, a local flow or an rtx request may still
            # send here once credit returns — which wakes no one
            if visit is not None and not (
                node._link_items[link] or node.local_flows or node.rtx_queue
            ):
                visit.discard(node.node_id)
            continue
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
