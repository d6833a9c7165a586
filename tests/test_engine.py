"""Integration tests for the simulation engine."""

import pytest

from repro.api import simulate
from repro.core.interleave import two_class_interleave
from repro.sim.config import SimConfig
from repro.sim.engine import Engine
from repro.sim.multiclass import MultiClassSimulation
from repro.workloads.generators import (
    incast_workload,
    permutation_workload,
    single_flow_workload,
)


def make_engine(cc="none", n=16, h=2, duration=5000, delay=4, **kw):
    cfg = SimConfig(
        n=n, h=h, duration=duration, propagation_delay=delay,
        congestion_control=cc, seed=3, **kw
    )
    return cfg, Engine(cfg)


class TestSingleFlowDelivery:
    @pytest.mark.parametrize("cc", SimConfig.VALID_CC)
    def test_single_flow_fully_delivered(self, cc):
        cfg, engine = make_engine(cc=cc)
        engine.schedule_flows(single_flow_workload(0, 15, 20))
        engine.run_until_quiescent(max_extra=50_000)
        assert len(engine.flows.completed) == 1
        (record,) = engine.flows.completed
        assert record.size_cells == 20
        assert record.fct > 0

    def test_delivery_count_exact(self):
        cfg, engine = make_engine()
        engine.schedule_flows(single_flow_workload(0, 15, 37))
        engine.run_until_quiescent(max_extra=50_000)
        assert engine.metrics.payload_cells_delivered == 37

    def test_fct_at_least_intrinsic_floor(self):
        """A flow cannot beat propagation + transmission."""
        cfg, engine = make_engine(cc="none", delay=10)
        engine.schedule_flows(single_flow_workload(0, 15, 5))
        engine.run_until_quiescent(max_extra=50_000)
        (record,) = engine.flows.completed
        assert record.fct >= 5 + 10  # cells + one propagation

    def test_h1_srrd_works(self):
        cfg, engine = make_engine(cc="none", n=8, h=1)
        engine.schedule_flows(single_flow_workload(0, 5, 10))
        engine.run_until_quiescent(max_extra=50_000)
        assert len(engine.flows.completed) == 1

    def test_h4_deep_spray_works(self):
        cfg, engine = make_engine(cc="hbh+spray", n=16, h=4)
        engine.schedule_flows(single_flow_workload(0, 15, 10))
        engine.run_until_quiescent(max_extra=50_000)
        assert len(engine.flows.completed) == 1


class TestWorkloadSemantics:
    def test_unsorted_workload_rejected(self):
        cfg, engine = make_engine()
        with pytest.raises(ValueError, match="sorted"):
            engine.schedule_flows([(10, 0, 1, 5, 100), (5, 1, 2, 5, 100)])

    def test_flows_injected_at_arrival_time(self):
        cfg, engine = make_engine()
        engine.schedule_flows([(100, 0, 15, 5, 1000)])
        engine.run(duration=50)
        assert engine.flows.active_count == 0
        engine.run(duration=60)
        assert engine.flows.active_count == 1


class TestThroughputGuarantees:
    @pytest.mark.parametrize("h,n", [(2, 16), (4, 16)])
    def test_saturated_permutation_meets_guarantee(self, h, n):
        """Paper Section 3.1: worst-case throughput 1/(2h) of line rate."""
        cfg = SimConfig(
            n=n, h=h, duration=8000, propagation_delay=0,
            congestion_control="hbh+spray", seed=7,
        )
        engine = Engine(cfg, workload=permutation_workload(cfg, 8000))
        engine.run()
        assert engine.throughput() >= 0.98 / (2 * h)

    def test_none_mode_also_meets_guarantee(self):
        cfg = SimConfig(
            n=16, h=2, duration=8000, propagation_delay=0,
            congestion_control="none", seed=7,
        )
        engine = Engine(cfg, workload=permutation_workload(cfg, 8000))
        engine.run()
        assert engine.throughput() >= 0.98 / 4


class TestConservation:
    @pytest.mark.parametrize("cc", ["none", "hbh+spray", "ndp", "priority"])
    def test_no_cell_loss_or_duplication(self, cc):
        """Every admitted payload cell is delivered exactly once (NDP may
        retransmit, but per-flow delivered counts still match flow sizes)."""
        cfg, engine = make_engine(cc=cc, duration=2000)
        wl = permutation_workload(cfg, size_cells=50)
        engine.schedule_flows(wl)
        engine.run_until_quiescent(max_extra=100_000)
        assert len(engine.flows.completed) == len(wl)
        for record in engine.flows.completed:
            assert record.size_cells == 50

    def test_in_flight_drains(self):
        cfg, engine = make_engine(duration=1000)
        engine.schedule_flows(single_flow_workload(0, 15, 10))
        engine.run_until_quiescent(max_extra=50_000)
        assert not engine._in_flight


class TestIncast:
    @pytest.mark.parametrize("cc", ["none", "hbh+spray", "isd", "ndp"])
    def test_incast_completes(self, cc):
        cfg, engine = make_engine(cc=cc, duration=3000)
        senders = [1, 2, 3, 4, 5]
        engine.schedule_flows(incast_workload(cfg, 0, senders, 40))
        engine.run_until_quiescent(max_extra=200_000)
        assert len(engine.flows.completed) == len(senders)

    def test_hbh_bounds_incast_buffers_vs_none(self):
        """The hop-by-hop invariant should cap buffer growth under incast."""
        results = {}
        for cc in ("none", "hbh+spray"):
            cfg = SimConfig(
                n=16, h=2, duration=4000, propagation_delay=2,
                congestion_control=cc, seed=5,
            )
            senders = list(range(1, 13))
            engine = Engine(
                cfg, workload=incast_workload(cfg, 0, senders, 300)
            )
            engine.run()
            results[cc] = engine.metrics.max_buffer_occupancy
        assert results["hbh+spray"] <= results["none"]


class TestDeterminism:
    def test_same_seed_same_results(self):
        outcomes = []
        for _ in range(2):
            cfg = SimConfig(
                n=16, h=2, duration=3000, propagation_delay=4,
                congestion_control="hbh+spray", seed=13,
            )
            engine = Engine(cfg, workload=permutation_workload(cfg, 100))
            engine.run()
            outcomes.append(
                (
                    engine.metrics.cells_sent,
                    engine.metrics.payload_cells_delivered,
                    engine.metrics.max_queue_length,
                )
            )
        assert outcomes[0] == outcomes[1]

    def test_different_seeds_differ(self):
        outcomes = []
        for seed in (1, 2):
            cfg = SimConfig(
                n=16, h=2, duration=3000, propagation_delay=4,
                congestion_control="hbh+spray", seed=seed,
            )
            engine = Engine(cfg, workload=permutation_workload(cfg, 100))
            engine.run()
            outcomes.append(engine.metrics.cells_sent)
        assert outcomes[0] != outcomes[1]


class TestDummyAndTokens:
    def test_tokens_flow_in_hbh(self):
        cfg, engine = make_engine(cc="hop-by-hop", duration=2000)
        engine.schedule_flows(single_flow_workload(0, 15, 30))
        engine.run_until_quiescent(max_extra=50_000)
        assert engine.metrics.tokens_sent > 0

    def test_no_tokens_without_hbh(self):
        cfg, engine = make_engine(cc="none", duration=2000)
        engine.schedule_flows(single_flow_workload(0, 15, 30))
        engine.run_until_quiescent(max_extra=50_000)
        assert engine.metrics.tokens_sent == 0

    def test_idle_network_sends_nothing(self):
        cfg, engine = make_engine(duration=500)
        engine.run()
        assert engine.metrics.cells_sent == 0


def _busy_engine(t):
    """An engine at slot ``t`` with two flows still sending."""
    cfg, engine = make_engine()
    engine.schedule_flows([(0, 0, 15, 500, 0), (0, 3, 9, 500, 0)])
    engine.run(t)
    return engine


def _busy_multiclass(t):
    inter = two_class_interleave(16, 2, 4, s=0.5, cutoff_cells=50)
    sim = MultiClassSimulation(inter, SimConfig(n=16, h=2, seed=8),
                               workload=[(0, 0, 15, 500, 0)])
    sim.run(t)
    return sim


def _simulate(slots):
    cfg = SimConfig(n=16, h=2, duration=50, seed=3)
    return simulate(cfg, single_flow_workload(0, 15, 20), duration=slots)


class TestSlotCounts:
    """Every run loop takes a slot count: an integer >= 0, refused at
    entry otherwise — ``run(2.5)`` used to run 3 slots, ``run(True)`` 1,
    and a negative count returned at once with the work undone."""

    @pytest.mark.parametrize("start,call,slots", [
        (0, lambda sim, k: sim.run(k), 2.5),
        (0, lambda sim, k: sim.run(k), True),
        (0, lambda sim, k: sim.run(k), -1),
        (100, lambda sim, k: sim.run_until_quiescent(k), 2.5),
        (100, lambda sim, k: sim.run_until_quiescent(k), -1),
        (None, lambda sim, k: _simulate(k), -10),
        (None, lambda sim, k: _simulate(k), 1.5),
        ("mc", lambda sim, k: sim.run(k), 2.5),
        ("mc", lambda sim, k: sim.run(k), -1),
        ("mc", lambda sim, k: sim.run_until_quiescent(k), 2.5),
        ("mc", lambda sim, k: sim.run_until_quiescent(k), -1),
    ], ids=["run-float", "run-bool", "run-negative", "drain-float",
            "drain-negative", "simulate-negative", "simulate-float",
            "multiclass-run-float", "multiclass-run-negative",
            "multiclass-drain-float", "multiclass-drain-negative"])
    def test_refused_at_entry(self, start, call, slots):
        sim = (None if start is None else _busy_multiclass(100)
               if start == "mc" else _busy_engine(start))
        t = None if sim is None else sim.t
        with pytest.raises(ValueError, match="must be an integer >= 0"):
            call(sim, slots)
        assert sim is None or sim.t == t

    def test_zero_is_a_no_op(self):
        engine = _busy_engine(100)
        engine.run(0)
        engine.run_until_quiescent(0)
        assert engine.t == 100 and engine.flows.active_count == 2
        sim = _busy_multiclass(100)
        sim.run(0)
        sim.run_until_quiescent(0)
        assert sim.t == 100
        assert _simulate(0).engine.t == 0


class TestQuiescenceDeadline:
    def test_max_extra_stops_with_traffic_pending(self):
        # a flow arriving far beyond the deadline must not keep the loop
        # alive: run_until_quiescent gives up at max_extra with the flow
        # still pending
        cfg, engine = make_engine()
        engine.schedule_flows(single_flow_workload(0, 15, 20, arrival=10_000))
        engine.run_until_quiescent(max_extra=50)
        assert engine.t == 50
        assert engine._pending_flows
        assert len(engine.flows.completed) == 0
        # the deadline is relative to the current time, so a later call can
        # still finish the run
        engine.run_until_quiescent(max_extra=50_000)
        assert len(engine.flows.completed) == 1


class TestWireDrop:
    def test_wire_drop_restores_one_hbh_credit(self):
        cfg, engine = make_engine(cc="hbh+spray", n=16)
        engine.schedule_flows(permutation_workload(cfg, 200))
        # step until a charged (non-final-hop) payload cell is on the wire
        victim = None
        for _ in range(500):
            engine.step()
            for tx in engine._in_flight:
                cell = tx.cell
                if cell is not None and tx.receiver != cell.dst:
                    victim = tx
                    break
            if victim is not None:
                break
        assert victim is not None, "no non-final-hop payload cell in flight"
        sender = engine.nodes[victim.sender]
        before = sender.ledger.outstanding()
        losses = engine.metrics.wire_losses
        engine.wire_drop(victim)
        # exactly the one token charged for this cell's next-hop bucket is
        # healed, and the loss is accounted
        assert sender.ledger.outstanding() == before - 1
        assert engine.metrics.wire_losses == losses + 1

    def test_wire_drop_final_hop_leaves_ledger_alone(self):
        cfg, engine = make_engine(cc="hbh+spray", n=16)
        engine.schedule_flows(permutation_workload(cfg, 200))
        victim = None
        for _ in range(500):
            engine.step()
            for tx in engine._in_flight:
                cell = tx.cell
                if cell is not None and tx.receiver == cell.dst:
                    victim = tx
                    break
            if victim is not None:
                break
        assert victim is not None, "no final-hop payload cell in flight"
        sender = engine.nodes[victim.sender]
        before = sender.ledger.outstanding()
        engine.wire_drop(victim)
        # final hops are never charged, so there is nothing to heal
        assert sender.ledger.outstanding() == before
