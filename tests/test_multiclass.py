"""Integration tests for interleaved multi-class simulation."""

import pytest

from repro.core.interleave import two_class_interleave
from repro.sim.config import SimConfig
from repro.sim.multiclass import MultiClassSimulation


def make_sim(s=0.5, n=16, cutoff=50, duration=4000):
    inter = two_class_interleave(n, 2, 4, s=s, cutoff_cells=cutoff)
    base = SimConfig(
        n=n, h=2, duration=duration, propagation_delay=2,
        congestion_control="hbh+spray", seed=8,
    )
    return inter, MultiClassSimulation(inter, base)


class TestConstruction:
    def test_engine_per_class(self):
        inter, sim = make_sim()
        assert len(sim.engines) == 2
        assert sim.engines[0].config.h == 4
        assert sim.engines[1].config.h == 2

    def test_size_mismatch_rejected(self):
        inter = two_class_interleave(16, 2, 4, s=0.5, cutoff_cells=10)
        base = SimConfig(n=81, h=2)
        with pytest.raises(ValueError, match="nodes"):
            MultiClassSimulation(inter, base)


class TestDispatch:
    def test_flows_classified_by_size(self):
        inter, sim = make_sim(cutoff=50)
        sim.schedule_flows([
            (0, 0, 15, 10, 2440),      # short -> latency class (h=4)
            (0, 1, 14, 500, 122_000),  # long  -> bulk class (h=2)
        ])
        sim.run(duration=10)
        assert sim.engines[0].flows.active_count + len(
            sim.engines[0].flows.completed
        ) == 1
        assert sim.engines[1].flows.active_count + len(
            sim.engines[1].flows.completed
        ) == 1

    def test_each_class_only_steps_its_slots(self):
        inter, sim = make_sim(s=0.3)
        sim.run(duration=100)
        # master clock is shared: both engines report master time
        assert sim.t == 100


class TestEndToEnd:
    def test_both_classes_complete(self):
        inter, sim = make_sim(duration=6000)
        sim.schedule_flows([
            (0, 0, 15, 10, 2440),
            (0, 1, 14, 200, 48_800),
            (100, 2, 13, 20, 4880),
        ])
        sim.run(6000)
        sim.run_until_quiescent(max_extra=100_000)
        records = sim.completed_flows()
        assert len(records) == 3
        assert sim.total_delivered_cells() == 10 + 200 + 20

    def test_fcts_in_master_slots(self):
        """A flow on a 50%-share h=4 class should take roughly twice as
        long as on a dedicated h=4 network (schedule dilation) — visible
        once the flow is long enough for transmission time to dominate."""
        from repro.sim.engine import Engine

        size = 200
        cfg = SimConfig(
            n=16, h=4, duration=8000, propagation_delay=2,
            congestion_control="hbh+spray", seed=8,
        )
        dedicated = Engine(cfg, workload=[(0, 0, 15, size, size * 244)])
        dedicated.run_until_quiescent(max_extra=100_000)
        (dedicated_flow,) = dedicated.flows.completed
        dedicated_fct = dedicated_flow.fct

        inter, sim = make_sim(s=0.5, duration=8000, cutoff=size)
        sim.schedule_flows([(0, 0, 15, size, size * 244)])
        sim.run(8000)
        sim.run_until_quiescent(max_extra=100_000)
        (inter_flow,) = sim.completed_flows()
        inter_fct = inter_flow.fct
        assert 1.3 * dedicated_fct < inter_fct < 6 * dedicated_fct

    def test_completed_by_class(self):
        inter, sim = make_sim(duration=6000)
        sim.schedule_flows([
            (0, 0, 15, 10, 2440),
            (0, 1, 14, 200, 48_800),
        ])
        sim.run(6000)
        sim.run_until_quiescent(max_extra=100_000)
        by_class = sim.completed_by_class()
        assert len(by_class[0]) == 1  # short flow on the latency class
        assert len(by_class[1]) == 1  # long flow on the bulk class
