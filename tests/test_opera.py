"""Tests for the Opera baseline model."""

import pytest

from repro.analysis.fct import normalized_fcts
from repro.baselines.opera import OperaConfig, OperaSimulator, RotorTopology


def only_flow(sim):
    """The one row of ``sim.completed``, and whether it rode RotorLB."""
    (row,) = sim.completed
    return row, row.size_cells > sim.config.bulk_cutoff_cells


class TestRotorTopology:
    def test_validation(self):
        with pytest.raises(ValueError):
            RotorTopology(2, 1)
        with pytest.raises(ValueError):
            RotorTopology(10, 0)
        with pytest.raises(ValueError):
            RotorTopology(10, 10)

    def test_offsets_in_range(self):
        topo = RotorTopology(20, 4)
        for period in range(40):
            for offset in topo.live_offsets(period):
                assert 1 <= offset <= 19

    def test_each_rotor_cycles_all_offsets(self):
        topo = RotorTopology(12, 2)
        seen = {topo.offset(0, k) for k in range(11)}
        assert seen == set(range(1, 12))

    def test_neighbors_count(self):
        topo = RotorTopology(20, 4)
        assert len(topo.neighbors(3, 0)) == 4

    def test_connected_matches_offsets(self):
        topo = RotorTopology(20, 4)
        for period in (0, 5, 17):
            for node in (0, 7):
                for nb in topo.neighbors(node, period):
                    assert topo.connected(node, nb, period) is not None
                assert topo.connected(node, (node + 10) % 20, period) in (
                    None, *range(4)
                )

    def test_next_direct_period_found_within_cycle(self):
        topo = RotorTopology(20, 4)
        for dst in (1, 9, 19):
            period = topo.next_direct_period(0, dst, after=0)
            assert topo.connected(0, dst, period) is not None
            assert period <= 20

    def test_path_length_short_in_expander(self):
        """With several live matchings, most pairs are a few hops apart."""
        topo = RotorTopology(64, 8)
        lengths = [
            topo.path_length(0, dst, period=0) for dst in range(1, 64)
        ]
        assert all(l is not None for l in lengths)
        assert max(lengths) <= 10
        # the typical pair is still just a few hops away
        assert sum(lengths) / len(lengths) <= 5

    def test_mean_direct_interval(self):
        topo = RotorTopology(577, 8)
        assert topo.mean_direct_interval() == pytest.approx(72.0)


class TestOperaSimulator:
    def make(self, n=36, **kw):
        kw.setdefault("period_cells", 100)
        kw.setdefault("propagation_cells", 5)
        return OperaSimulator(OperaConfig(n=n, uplinks=4, **kw))

    def test_short_flow_completes_quickly(self):
        sim = self.make()
        sim.schedule_flows([(0, 0, 7, 10, 2440)])
        sim.run_until_quiescent()
        row, bulk = only_flow(sim)
        assert not bulk
        # a 10-cell flow over a few expander hops: far below one rotor cycle
        assert row.fct < 35 * 100

    def test_bulk_flow_waits_for_matchings(self):
        sim = self.make(bulk_cutoff_cells=50, indirect=False)
        sim.schedule_flows([(0, 0, 7, 1000, 244_000)])
        sim.run_until_quiescent()
        _, bulk = only_flow(sim)
        assert bulk
        # served only ~uplinks/(n-1) of the time: heavy slowdown vs ideal
        assert normalized_fcts(sim.completed, 5)[0] > 2.0

    def test_bulk_penalty_grows_with_n(self):
        """The Fig. 4 mechanism: RotorLB slowdown scales with N."""
        slowdowns = {}
        for n in (24, 96):
            sim = OperaSimulator(OperaConfig(
                n=n, uplinks=4, period_cells=100,
                bulk_cutoff_cells=50, indirect=False, propagation_cells=5,
            ))
            sim.schedule_flows([(0, 0, n // 2, 2000, 488_000)])
            sim.run_until_quiescent()
            slowdowns[n] = normalized_fcts(sim.completed, 5)[0]
        assert slowdowns[96] > 1.5 * slowdowns[24]

    def test_indirect_relaying_helps(self):
        fcts = {}
        for indirect in (False, True):
            sim = self.make(bulk_cutoff_cells=50, indirect=indirect)
            sim.schedule_flows([(0, 0, 7, 2000, 488_000)])
            sim.run_until_quiescent()
            fcts[indirect] = only_flow(sim)[0].fct
        assert fcts[True] <= fcts[False]

    def test_capacity_shared_at_receiver(self):
        """Two bulk flows into one receiver cannot exceed its ingress."""
        sim = self.make(bulk_cutoff_cells=50, indirect=False)
        sim.schedule_flows([
            (0, 1, 0, 500, 122_000),
            (0, 2, 0, 500, 122_000),
        ])
        sim.run(20_000)
        columns = sim.completed.columns()
        delivered = columns["size_cells"][columns["dst"] == 0].sum()
        # ingress cap: at most period_cells per period
        assert delivered <= sim.period * 100

    def test_config_validation(self):
        with pytest.raises(ValueError):
            OperaConfig(n=10, period_cells=0)

    def test_record_normalization(self):
        sim = self.make()
        sim.schedule_flows([(0, 0, 7, 10, 2440)])
        sim.run_until_quiescent()
        row, _ = only_flow(sim)
        assert normalized_fcts(sim.completed, 5)[0] == row.fct / 15
