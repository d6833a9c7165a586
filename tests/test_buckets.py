"""Unit tests for token ledgers and active-bucket tracking."""

import pytest

from repro.core.buckets import ActiveBucketTracker, TokenLedger


class TestTokenLedger:
    def test_initial_credit_equals_budget(self):
        ledger = TokenLedger(budget=1)
        assert ledger.available(3, (7, 1)) == 1
        assert ledger.can_send(3, (7, 1))

    def test_charge_consumes_credit(self):
        ledger = TokenLedger(budget=1)
        ledger.charge(3, (7, 1))
        assert not ledger.can_send(3, (7, 1))
        assert ledger.available(3, (7, 1)) == 0

    def test_credit_restores(self):
        ledger = TokenLedger(budget=1)
        ledger.charge(3, (7, 1))
        ledger.credit(3, (7, 1))
        assert ledger.can_send(3, (7, 1))

    def test_over_charge_raises(self):
        ledger = TokenLedger(budget=1)
        ledger.charge(3, (7, 1))
        with pytest.raises(RuntimeError):
            ledger.charge(3, (7, 1))

    def test_budget_t_allows_t_outstanding(self):
        ledger = TokenLedger(budget=3)
        for _ in range(3):
            ledger.charge(0, (1, 0))
        assert not ledger.can_send(0, (1, 0))

    def test_spurious_credit_never_exceeds_budget(self):
        ledger = TokenLedger(budget=2)
        ledger.credit(0, (1, 0))  # nothing outstanding
        assert ledger.available(0, (1, 0)) == 2
        ledger.charge(0, (1, 0))
        ledger.credit(0, (1, 0))
        ledger.credit(0, (1, 0))  # extra credit ignored
        assert ledger.available(0, (1, 0)) == 2

    def test_pairs_are_independent(self):
        ledger = TokenLedger(budget=1)
        ledger.charge(0, (1, 0))
        assert ledger.can_send(0, (1, 1))      # other bucket
        assert ledger.can_send(1, (1, 0))      # other neighbour

    def test_first_hop_budget(self):
        ledger = TokenLedger(budget=1, first_hop_budget=3)
        for _ in range(3):
            ledger.charge(5, (9, 1), first_hop=True)
        assert not ledger.can_send(5, (9, 1), first_hop=True)
        # interior pairs still follow the base budget
        ledger.charge(6, (9, 1))
        assert not ledger.can_send(6, (9, 1))

    def test_first_hop_defaults_to_budget(self):
        ledger = TokenLedger(budget=2)
        assert ledger.first_hop_budget == 2

    def test_outstanding_accounting(self):
        ledger = TokenLedger(budget=2)
        assert ledger.outstanding() == 0
        ledger.charge(0, (1, 0))
        ledger.charge(0, (1, 0))
        ledger.charge(0, (2, 0))
        assert ledger.outstanding() == 3
        assert ledger.outstanding_pairs() == 2
        ledger.credit(0, (1, 0))
        assert ledger.outstanding() == 2

    def test_invalid_budget_rejected(self):
        with pytest.raises(ValueError):
            TokenLedger(budget=0)
        with pytest.raises(ValueError):
            TokenLedger(budget=1, first_hop_budget=-1)


class TestActiveBucketTracker:
    def test_acquire_release(self):
        tracker = ActiveBucketTracker()
        tracker.acquire((1, 0))
        assert len(tracker) == 1
        tracker.release((1, 0))
        assert len(tracker) == 0

    def test_refcounting(self):
        tracker = ActiveBucketTracker()
        tracker.acquire((1, 0))
        tracker.acquire((1, 0))
        tracker.release((1, 0))
        assert len(tracker) == 1  # still one reference

    def test_peak_tracks_high_water_mark(self):
        """The high-water mark is the run's (``max_active_buckets``), raised
        by the enqueue that turns a bucket active; a release does not
        lower it."""
        from repro import Engine, SimConfig
        from repro.core.cell import Cell

        engine = Engine(SimConfig(n=16, h=2,
                                  congestion_control="hop-by-hop"))
        node = engine.nodes[0]
        tracker = node.bucket_tracker
        # direct cells to five destinations: five buckets (dst, 0)
        dsts = [engine.coords.node_id((0, c)) for c in (1, 2, 3)] + [
            engine.coords.node_id((c, 0)) for c in (1, 2)]
        for seq, dst in enumerate(dsts):
            node.enqueue_forward(Cell(0, dst, seq=seq), t=0, phase=0)
        assert len(tracker) == 5
        for dst in dsts:
            tracker.release((dst, 0))
        node.enqueue_forward(Cell(0, dsts[0], seq=5), t=0, phase=0)
        assert engine.metrics.max_active_buckets == 5
        assert len(tracker) == 1

    def test_release_unknown_is_noop(self):
        tracker = ActiveBucketTracker()
        tracker.release((42, 1))
        assert len(tracker) == 0

    def test_active_buckets_iteration(self):
        tracker = ActiveBucketTracker()
        tracker.acquire((1, 0))
        tracker.acquire((2, 1))
        assert set(tracker.active_buckets()) == {(1, 0), (2, 1)}

    @pytest.mark.xfail(strict=True, reason=(
        "the tracker releases a bucket when the node forwards a cell AND "
        "when the downstream token returns, so a token can retire a bucket "
        "that still holds queued cells (ROADMAP correctness item); fixing "
        "it moves the fig07 and fig13 numbers"))
    def test_a_bucket_with_queued_cells_is_active(self):
        """The class docstring's rule on a real run: every bucket holding an
        enqueued cell counts as active."""
        from repro import Engine, SimConfig
        from repro.workloads import ShortFlowDistribution, poisson_workload

        config = SimConfig(n=16, h=2, duration=3000,
                           congestion_control="hop-by-hop", seed=3)
        engine = Engine(config, workload=poisson_workload(
            config, ShortFlowDistribution(), load=0.2))
        uncounted = []
        for _ in range(config.duration // 50):
            engine.run(50)
            for node in engine.nodes:
                queued = {(cell.dst, cell.sprays_remaining)
                          for queue in node.link_queues for cell in queue}
                active = set(node.bucket_tracker.active_buckets())
                uncounted += [(engine.t, node.node_id, bucket)
                              for bucket in sorted(queued - active)]
        assert uncounted == []
