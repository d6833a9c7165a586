"""Unit tests for the end-host Node: TX/RX pipelines in isolation."""

import pytest

from repro.core.cell import Cell
from repro.core.header import TOKEN_REGULAR, Token
from repro.failures import FailureManager
from repro.sim.backends.object_backend import deliver_arrivals
from repro.sim.config import SimConfig
from repro.sim.engine import Engine
from repro.sim.node import ControlMessage, Transmission


def make_engine(cc="none", n=16, h=2, **kw):
    cfg = SimConfig(
        n=n, h=h, duration=1000, propagation_delay=2,
        congestion_control=cc, seed=2, **kw
    )
    return Engine(cfg)


def fresh_cell(engine, src, dst, sprays=None):
    cell = Cell(src, dst, flow_id=0, seq=0,
                sprays_remaining=engine.coords.h - 1 if sprays is None else sprays)
    cell.prev_hop = src
    cell.hops = 1
    return cell


class TestLinkIndexing:
    def test_link_index_layout(self):
        engine = make_engine()
        node = engine.nodes[0]
        assert node.link_index(0, 1) == 0
        assert node.link_index(0, 3) == 2
        assert node.link_index(1, 1) == 3

    def test_neighbor_table_matches_coords(self):
        engine = make_engine()
        node = engine.nodes[5]
        for p in range(2):
            for k in range(1, 4):
                assert node.neighbors_flat[node.link_index(p, k)] == \
                    engine.coords.neighbor_at_offset(5, p, k)

    def test_enqueue_wakes_only_its_link(self):
        engine = make_engine()
        node = engine.nodes[0]
        assert not any(engine._visit)
        cell = fresh_cell(engine, 1, 9)
        node.enqueue_forward(cell, t=0, phase=1)
        link, = (i for i, items in enumerate(node.link_queues) if items)
        assert [0 in visit for visit in engine._visit] \
            == [i == link for i in range(len(engine._visit))]


class TestRxPath:
    def test_delivery_updates_flow_table(self):
        engine = make_engine()
        flow = engine.flows.new_flow(1, 0, size_cells=1, arrival=0)
        node = engine.nodes[0]
        cell = fresh_cell(engine, 1, 0)
        cell.flow_id = flow.flow_id
        node.receive(Transmission(1, 0, cell), t=5, phase=0)
        assert len(engine.flows.completed) == 1
        assert engine.metrics.payload_cells_delivered == 1

    def test_dummy_cells_not_forwarded(self):
        # a dummy is a bare header: it carries no cell to forward
        engine = make_engine()
        node = engine.nodes[0]
        node.receive(Transmission(1, 0, None), t=0, phase=0)
        assert node.total_enqueued == 0

    def test_forwarded_cell_enqueued_on_spray_link(self):
        engine = make_engine()
        node = engine.nodes[0]
        cell = fresh_cell(engine, 1, 9, sprays=1)
        node.enqueue_forward(cell, t=0, phase=1)
        # spray must land on a phase-1 link
        phase1_links = range(node.link_index(1, 1), node.link_index(1, 3) + 1)
        occupied = [i for i, q in enumerate(node.link_queues) if len(q)]
        assert occupied and all(i in phase1_links for i in occupied)

    def test_direct_cell_enqueued_on_correct_link(self):
        engine = make_engine()
        cs = engine.coords
        node_id = cs.node_id((0, 0))
        dst = cs.node_id((0, 3))  # differs only in coordinate 1
        node = engine.nodes[node_id]
        cell = fresh_cell(engine, 1, dst, sprays=0)
        node.enqueue_forward(cell, t=0, phase=1)
        link = node.link_index(1, 3)  # phase 1, offset 3
        assert len(node.link_queues[link]) == 1

    def test_tokens_in_header_credit_ledger(self):
        engine = make_engine(cc="hop-by-hop")
        node = engine.nodes[0]
        node.ledger.charge(1, (9, 1))
        assert not node.ledger.can_send(1, (9, 1))
        node.receive(
            Transmission(1, 0, None, tokens=(Token(9, 1, TOKEN_REGULAR),)),
            t=0, phase=0,
        )
        assert node.ledger.can_send(1, (9, 1))


class TestTxPath:
    def test_nothing_to_send_returns_none(self):
        engine = make_engine()
        assert engine.nodes[0].transmit(0, 0, 1) is None

    def test_local_flow_emits_first_hop(self):
        engine = make_engine()
        flow = engine.flows.new_flow(0, 9, size_cells=3, arrival=0)
        node = engine.nodes[0]
        node.add_flow(flow)
        tx = node.transmit(0, 0, 1)
        assert tx is not None
        assert tx.cell.dst == 9
        assert tx.cell.sprays_remaining == engine.coords.h - 1
        assert tx.receiver == node.neighbors_flat[node.link_index(0, 1)]
        assert flow.sent == 1

    def test_forwarded_cells_take_priority_over_local(self):
        engine = make_engine()
        node = engine.nodes[0]
        flow = engine.flows.new_flow(0, 9, size_cells=3, arrival=0)
        node.add_flow(flow)
        forwarded = fresh_cell(engine, 1, 9, sprays=1)
        node.enqueue_forward(forwarded, t=0, phase=1)
        # find the link the forwarded cell is on and transmit there
        link = next(i for i, q in enumerate(node.link_queues) if len(q))
        phase, offset = divmod(link, engine.coords.r - 1)
        tx = node.transmit(0, phase, offset + 1)
        assert tx.cell is forwarded
        assert flow.sent == 0

    def test_token_return_rides_dummy(self):
        engine = make_engine(cc="hop-by-hop")
        node = engine.nodes[0]
        neighbor = node.neighbors_flat[node.link_index(0, 1)]
        node._queue_token(neighbor, Token(9, 0, TOKEN_REGULAR))
        tx = node.transmit(0, 0, 1)
        assert tx is not None
        assert tx.cell is None
        assert len(tx.tokens) == 1
        assert node.pending_tokens == 0

    def test_tokens_capped_per_header(self):
        engine = make_engine(cc="hop-by-hop", tokens_per_header=2)
        node = engine.nodes[0]
        neighbor = node.neighbors_flat[node.link_index(0, 1)]
        for i in range(5):
            node._queue_token(neighbor, Token(i + 1, 0, TOKEN_REGULAR))
        tx = node.transmit(0, 0, 1)
        assert len(tx.tokens) == 2
        assert node.pending_tokens == 3

    def test_finished_flow_pruned(self):
        engine = make_engine()
        flow = engine.flows.new_flow(0, 9, size_cells=1, arrival=0)
        node = engine.nodes[0]
        node.add_flow(flow)
        node.transmit(0, 0, 1)
        assert flow.done_sending
        assert flow not in node.local_flows

    def test_hbh_first_hop_requires_credit(self):
        engine = make_engine(cc="hop-by-hop", first_hop_token_budget=1)
        node = engine.nodes[0]
        flow = engine.flows.new_flow(0, 9, size_cells=10, arrival=0)
        node.add_flow(flow)
        neighbor = node.neighbors_flat[node.link_index(0, 1)]
        # exhaust the first-hop budget toward this neighbour
        node.ledger.charge(neighbor, (9, 1), first_hop=True)
        tx = node.transmit(0, 0, 1)
        assert tx is None or tx.cell is None
        assert flow.sent == 0

    def test_hbh_forward_generates_upstream_token(self):
        engine = make_engine(cc="hop-by-hop")
        node = engine.nodes[0]
        cell = fresh_cell(engine, 1, 9, sprays=1)
        node.receive(Transmission(1, 0, cell), t=0, phase=0)
        link = next(i for i, q in enumerate(node.link_queues) if len(q))
        phase, offset = divmod(link, engine.coords.r - 1)
        tx = node.transmit(1, phase, offset + 1)
        assert tx.cell is cell
        assert cell.sprays_remaining == 0  # decremented on the spray hop
        assert cell.prev_hop == 0
        # the upstream token is either awaiting the next slot to node 1 or —
        # when the spray hop itself went to node 1 — already on this wire
        queued = list(node.token_return.get(1, ()))
        on_wire = list(tx.tokens) if tx.receiver == 1 else []
        tokens = queued + on_wire
        assert tokens and tokens[0].bucket() == (9, 1)

    def test_final_hop_needs_no_token(self):
        engine = make_engine(cc="hop-by-hop")
        cs = engine.coords
        dst = 9
        # pick a node one hop from dst
        penultimate = cs.phase_neighbors(dst, 0)[0]
        node = engine.nodes[penultimate]
        cell = fresh_cell(engine, 1, dst, sprays=0)
        node.enqueue_forward(cell, t=0, phase=0)
        link = next(i for i, q in enumerate(node.link_queues) if len(q))
        phase, offset = divmod(link, cs.r - 1)
        # no credit pre-charged anywhere; final hops are always eligible
        tx = node.transmit(0, phase, offset + 1)
        assert tx.cell is cell
        assert tx.receiver == dst


    def test_budget1_scan_skips_blocked_head(self):
        """Budget-1 PIEO scan: a head without next-hop credit is passed
        over, the first eligible cell behind it leaves, and the scan itself
        records that cell's charge."""
        engine = make_engine(cc="hop-by-hop")
        cs = engine.coords
        node = engine.nodes[cs.node_id((0, 0))]
        blocked = fresh_cell(engine, 1, cs.node_id((1, 1)), sprays=0)
        behind = fresh_cell(engine, 1, cs.node_id((1, 2)), sprays=0)
        for cell in (blocked, behind):
            node.enqueue_forward(cell, t=0, phase=0)
        (link,) = [i for i, q in enumerate(node.link_queues) if len(q)]
        phase, offset = divmod(link, cs.r - 1)
        neighbor = node.neighbors_flat[link]
        assert neighbor not in (blocked.dst, behind.dst)
        node.ledger.charge(neighbor, (blocked.dst, 0))
        tx = node.transmit(1, phase, offset + 1)
        assert tx.cell is behind
        assert not node.ledger.can_send(neighbor, (behind.dst, 0))
        assert list(node.link_queues[link]) == [blocked]
        assert node.total_enqueued == 1
        # and the bucket it left is reported upstream
        assert [tok.bucket() for tok in node.token_return[1]] \
            == [(behind.dst, 0)]

    def test_token_backlog_within_limit_leaves_in_one_header(self):
        engine = make_engine(cc="hop-by-hop", tokens_per_header=3)
        node = engine.nodes[0]
        neighbor = node.neighbors_flat[node.link_index(0, 1)]
        other = node.neighbors_flat[node.link_index(0, 2)]
        for i in range(3):
            node._queue_token(neighbor, Token(i + 1, 0, TOKEN_REGULAR))
        for i in range(2):
            node._queue_token(other, Token(i + 7, 0, TOKEN_REGULAR))
        tx = node.transmit(0, 0, 1)
        assert tx.cell is None
        assert [tok.dest for tok in tx.tokens] == [1, 2, 3]
        assert not node.token_return[neighbor]
        # the other neighbour's tokens wait for their own slot
        assert [tok.dest for tok in node.token_return[other]] == [7, 8]
        assert node.pending_tokens == 2

    def test_pooled_shell_is_fully_rewritten(self):
        engine = make_engine()
        node = engine.nodes[0]
        node.add_flow(engine.flows.new_flow(0, 9, size_cells=3, arrival=0))
        stale = Transmission(
            7, 8, None,
            tokens=(Token(5, 0, TOKEN_REGULAR),),
            ctrl=(ControlMessage("pull", 1, 7, 8),),
        )
        engine._tx_pool.append(stale)
        tx = node.transmit(0, 0, 1)
        assert tx is stale and not engine._tx_pool
        assert (tx.sender, tx.receiver) == \
            (0, node.neighbors_flat[node.link_index(0, 1)])
        assert tx.cell is not None and tx.cell.dst == 9
        assert tx.tokens == () and tx.ctrl == ()


class TestWire:
    def test_shells_recycled_with_failure_manager(self):
        """One delivery tail: shells return to the pool whether or not a
        failure manager filters the wire; a transmission the wire drops
        does not."""
        engine = Engine(
            SimConfig(n=16, h=2, duration=1000, propagation_delay=2),
            failure_manager=FailureManager(failed_nodes=[5]),
        )
        delivered = Transmission(1, 0, None)
        dropped = Transmission(1, 5, None)
        for tx in (delivered, dropped):
            tx.arrival = 0
            engine._in_flight.append(tx)
        deliver_arrivals(engine, 0, 0)
        assert not engine._in_flight
        assert engine._tx_pool == [delivered]


class TestControlMessages:
    def test_ctrl_routed_to_destination(self):
        engine = make_engine(cc="rd")
        flow = engine.flows.new_flow(12, 3, size_cells=5, arrival=0)
        # hand-route a PULL from the receiver (3) to the sender (12)
        node = engine.nodes[3]
        node._send_ctrl(ControlMessage("pull", flow.flow_id, 3, 12), t=0)
        assert node.pending_ctrl == 1
        # run the engine; the ctrl message must eventually be consumed
        engine.run(800)
        assert flow.credit >= engine.config.pull_batch

    def test_trim_triggers_rtx_request(self):
        engine = make_engine(cc="ndp")
        node = engine.nodes[0]
        msg = ControlMessage("trim", 3, src=5, dst=0, seq=9)
        node._consume_ctrl(msg, t=0)
        # the receiver responds by asking the sender (node 5) to resend
        assert node.pending_ctrl == 1

    def test_rtx_request_enqueues_retransmission(self):
        engine = make_engine(cc="ndp")
        node = engine.nodes[5]
        node._consume_ctrl(ControlMessage("rtx", 3, src=0, dst=5, seq=9), t=0)
        assert list(node.rtx_queue) == [(3, 0, 9)]
