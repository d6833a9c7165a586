"""Unit tests for the PIEO queue."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cell import Cell
from repro.sim.config import SimConfig
from repro.sim.engine import Engine
from repro.sim.pieo import PieoQueue


class TestBasics:
    def test_empty(self):
        q = PieoQueue()
        assert len(q) == 0
        assert not q
        assert q.extract_head() is None
        assert q.peek_head() is None

    def test_fifo_order_with_equal_ranks(self):
        q = PieoQueue()
        for x in "abc":
            q.push(x)
        assert [q.extract_head() for _ in range(3)] == ["a", "b", "c"]

    def test_rank_ordering(self):
        q = PieoQueue()
        q.push("low-priority", rank=10)
        q.push("high-priority", rank=1)
        assert q.extract_head() == "high-priority"

    def test_stable_among_equal_ranks(self):
        q = PieoQueue()
        q.push("first", rank=5)
        q.push("second", rank=5)
        q.push("zero", rank=0)
        assert list(q) == ["zero", "first", "second"]

    def test_len_and_iter(self):
        q = PieoQueue()
        q.push(1)
        q.push(2)
        assert len(q) == 2
        assert list(q) == [1, 2]


class TestEligibility:
    def test_extract_first_eligible_skips_blocked(self):
        q = PieoQueue()
        q.push("blocked")
        q.push("ok")
        got = q.extract_first_eligible(lambda x: x == "ok")
        assert got == "ok"
        assert list(q) == ["blocked"]

    def test_extract_none_when_all_blocked(self):
        q = PieoQueue()
        q.push("a")
        assert q.extract_first_eligible(lambda x: False) is None
        assert len(q) == 1

    def test_first_eligible_peeks_without_removal(self):
        q = PieoQueue()
        q.push("a")
        q.push("b")
        assert q.first_eligible(lambda x: x == "b") == "b"
        assert len(q) == 2

    def test_eligibility_respects_rank_order(self):
        q = PieoQueue()
        q.push("late", rank=9)
        q.push("early", rank=1)
        # both eligible: lowest rank wins
        assert q.extract_first_eligible(lambda x: True) == "early"


class TestCapacity:
    def test_capacity_enforced(self):
        q = PieoQueue(capacity=2)
        q.push(1)
        q.push(2)
        with pytest.raises(OverflowError):
            q.push(3)

    def test_peak_occupancy(self):
        # the occupancy high-water mark the hardware provisions (paper Fig
        # 13) is the run's, not a queue's: the longest any queue has been,
        # which emptying the queue does not lower
        engine = Engine(SimConfig(n=16, h=2, congestion_control="none"))
        node = engine.nodes[0]
        dst = engine.coords.node_id((0, 3))  # direct: phase 1, offset 3
        queue = node.link_queues[node.link_index(1, 3)]
        for seq in range(5):
            node.enqueue_forward(Cell(1, dst, seq=seq), t=0, phase=1)
        del queue[:]
        node.enqueue_forward(Cell(1, dst, seq=5), t=0, phase=1)
        assert len(queue) == 1
        assert engine.metrics.max_queue_length == 5


class TestRemoval:
    def test_remove_element(self):
        q = PieoQueue()
        q.push("a")
        q.push("b")
        assert q.remove("a")
        assert not q.remove("zz")
        assert list(q) == ["b"]

    def test_remove_if(self):
        q = PieoQueue()
        for i in range(6):
            q.push(i)
        evens = q.remove_if(lambda x: x % 2 == 0)
        assert evens == [0, 2, 4]
        assert list(q) == [1, 3, 5]

    def test_clear(self):
        q = PieoQueue()
        q.push(1)
        q.clear()
        assert len(q) == 0

    def test_hol_blocking_demonstration(self):
        """The reason PIEO exists (paper Section 3.3.2 change 2): a FIFO
        head awaiting tokens blocks everything; PIEO does not."""
        q = PieoQueue()
        q.push(("bucket-A", "cell1"))
        q.push(("bucket-B", "cell2"))
        eligible = lambda item: item[0] == "bucket-B"
        # FIFO view: head is blocked
        assert not eligible(q.peek_head())
        # PIEO view: the eligible cell still goes out
        assert q.extract_first_eligible(eligible) == ("bucket-B", "cell2")


class TestNodeSendQueueOracle:
    """``PieoQueue`` is the oracle for a node's send queue: the node keeps
    the same order under priority ranking, and under hop-by-hop sends the
    PIEO's first eligible cell (the FIFO ablation: the head, if eligible).
    n=16, h=2 from node 0; node 4 is its neighbour on link 0."""

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 50), st.integers(1, 8)),
                    max_size=25))
    def test_priority_order_is_pieo_order(self, cells):
        engine = Engine(SimConfig(n=16, h=2, congestion_control="priority"))
        node = engine.nodes[0]
        epoch = engine.schedule.epoch_length
        oracle = PieoQueue()
        for i, (created, size) in enumerate(cells):
            cell = Cell(1, 5, i, 0, 0, created, size)
            node.enqueue_forward(cell, created, 0)
            oracle.push(cell, rank=created + size * epoch)
        queues = [items for items in node.link_queues if items]
        assert len(queues) == (1 if cells else 0)
        assert [id(c) for c in (queues[0] if cells else [])] == \
            [id(c) for c in oracle]

    @settings(max_examples=80, deadline=None)
    @given(
        cells=st.lists(st.tuples(st.sampled_from([4, 5, 6, 9]),
                                 st.integers(0, 1)), min_size=1, max_size=12),
        charges=st.lists(st.tuples(st.sampled_from([5, 6, 9]),
                                   st.integers(0, 1), st.booleans()),
                         max_size=12),
        budgets=st.sampled_from([(1, 1), (2, 2), (1, 3), (2, 1)]),
        fifo=st.booleans(),
    )
    def test_hop_by_hop_sends_the_first_eligible(self, cells, charges,
                                                 budgets, fifo):
        budget, first_hop = budgets
        engine = Engine(SimConfig(
            n=16, h=2, congestion_control="hop-by-hop", token_budget=budget,
            first_hop_token_budget=first_hop, use_fifo_for_hbh=fifo))
        node = engine.nodes[0]
        neighbor = node.neighbors_flat[0]
        ledger = node.ledger
        for dst, sprays, is_first in charges:
            if ledger.can_send(neighbor, (dst, sprays), first_hop=is_first):
                ledger.charge(neighbor, (dst, sprays), first_hop=is_first)
        oracle = PieoQueue()
        for i, (dst, sprays) in enumerate(cells):
            cell = Cell(1, dst, i, 0, sprays, 0, 1)
            node.link_queues[0].append(cell)
            oracle.push(cell)
        node.total_enqueued = len(cells)

        def eligible(cell):
            return cell.dst == neighbor or ledger.can_send(
                neighbor, (cell.dst, max(cell.sprays_remaining - 1, 0)))

        head = oracle.peek_head()
        if fifo:
            expected = head if eligible(head) else None
        else:
            expected = oracle.first_eligible(eligible)
        tx = node.transmit(0, 0, 1)
        assert (tx.cell if tx is not None else None) is expected
