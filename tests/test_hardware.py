"""Tests for the hardware models: memory scaling, prototype, resources."""

import pytest

from repro.hardware.memory_model import (
    ShaleMemoryModel,
    shoal_on_chip_bytes,
)
from repro.hardware.prototype import (
    HardwareNetwork,
    HardwareNode,
    HardwareTimings,
)
from repro.hardware.resources import (
    ResourceObservation,
    observe_resources,
    provision_memory,
)
from repro.sim.config import SimConfig
from repro.sim.engine import Engine
from repro.workloads.generators import permutation_workload


class TestShaleMemoryModel:
    def make(self, n=10_000, h=2, a=600, qp=50, qt=16):
        return ShaleMemoryModel(
            n=n, h=h, active_buckets=a, pieo_depth=qp, token_queue_depth=qt
        )

    def test_radix_rounds_up_for_non_powers(self):
        model = self.make(n=10_000, h=2)
        assert model.radix == 100
        model = self.make(n=10_001, h=2)
        assert model.radix == 101

    def test_neighbors(self):
        assert self.make(n=10_000, h=2).neighbors == 2 * 99

    def test_on_chip_components_sum(self):
        model = self.make()
        assert model.on_chip_bytes() == (
            model.pieo_bytes()
            + model.token_queue_bytes()
            + model.token_count_bytes()
            + model.bucket_map_bytes()
            + model.freelist_bytes()
        )

    def test_h4_leaner_than_h2(self):
        """Fig. 7: h=4 needs less on-chip memory than h=2 at equal N."""
        h2 = ShaleMemoryModel(10_000, 2, 1200, 100, 16)
        h4 = ShaleMemoryModel(10_000, 4, 250, 150, 16)
        assert h4.on_chip_bytes() < h2.on_chip_bytes()

    def test_dram_formula(self):
        model = self.make()
        assert model.dram_cells() == 2 * 600 * model.neighbors

    def test_optimizations_reduce_memory(self):
        """Section 4.2: each optimization strictly shrinks cell storage."""
        model = self.make(n=2_401, h=4, a=100)
        naive = model.naive_dram_cells()
        first = model.first_optimization_dram_cells()
        final = model.dram_cells()
        assert naive > first > final

    def test_on_chip_magnitude_matches_paper(self):
        """Fig. 7: Shale h=2 at N=10,000 sits around a megabyte."""
        model = ShaleMemoryModel(10_000, 2, 1200, 100, 16)
        assert 100_000 < model.on_chip_bytes() < 5_000_000


class TestShoalModel:
    def test_quadratic_scaling(self):
        small = shoal_on_chip_bytes(5_000)
        large = shoal_on_chip_bytes(25_000)
        assert large / small == pytest.approx(25, rel=0.15)

    def test_gigabytes_at_datacenter_scale(self):
        assert shoal_on_chip_bytes(25_000) > 1 << 30  # > 1 GB

    def test_orders_of_magnitude_vs_shale(self):
        """The Fig. 7 headline gap."""
        shale = ShaleMemoryModel(25_000, 4, 250, 150, 16).on_chip_bytes()
        assert shoal_on_chip_bytes(25_000) > 1000 * shale

    def test_validation(self):
        with pytest.raises(ValueError):
            shoal_on_chip_bytes(1)


class TestHardwareTimings:
    def test_defaults_match_paper(self):
        t = HardwareTimings()
        assert t.cycle_ns == pytest.approx(6.4)
        assert t.slot_ns == pytest.approx(435.2)
        assert t.available_gbps == pytest.approx(9.412, rel=1e-3)

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            HardwareTimings(cycles_per_slot=5, tx_cycles=7, rx_cycles=2)


class TestHardwarePrototype:
    def test_permutation_throughput_above_guarantee(self):
        net = HardwareNetwork(16, 2, seed=3)
        for node in net.nodes:
            node.add_local_cells((node.node_id + 5) % 16, 6000, 0)
        net.run(6000)
        assert net.throughput_gbps() >= net.timings.available_gbps / 4 * 0.95

    def test_pipelines_fit_cycle_budget(self):
        net = HardwareNetwork(16, 2, seed=3)
        for node in net.nodes:
            node.add_local_cells((node.node_id + 3) % 16, 500, 0)
        net.run(2000)
        assert net.timing_ok()
        assert all(n.cycles_used_tx <= 7 for n in net.nodes)
        assert all(n.cycles_used_rx <= 3 for n in net.nodes)

    def test_delivery_conservation(self):
        net = HardwareNetwork(16, 2, seed=3)
        net.nodes[0].add_local_cells(9, 50, 0)
        net.run(3000)
        assert net.nodes[9].cells_delivered == 50

    def test_h4_works(self):
        net = HardwareNetwork(16, 4, seed=3)
        net.nodes[0].add_local_cells(15, 20, 0)
        net.run(3000)
        assert net.nodes[15].cells_delivered == 20

    def test_active_bucket_exhaustion_raises(self):
        net = HardwareNetwork(16, 2, active_bucket_slots=1, seed=3)
        for node in net.nodes:
            node.add_local_cells((node.node_id + 1) % 16, 100, 0)
        with pytest.raises(OverflowError):
            net.run(2000)

    def test_propagation_delay_slows_tokens(self):
        fast = HardwareNetwork(16, 2, propagation_delay=0, seed=3)
        slow = HardwareNetwork(16, 2, propagation_delay=30, seed=3)
        for net in (fast, slow):
            for node in net.nodes:
                node.add_local_cells((node.node_id + 5) % 16, 4000, 0)
            net.run(4000)
        assert slow.delivered < fast.delivered


class TestResources:
    def run_engine(self):
        cfg = SimConfig(
            n=16, h=2, duration=3000, propagation_delay=2,
            congestion_control="hbh+spray", seed=3,
        )
        engine = Engine(cfg, workload=permutation_workload(cfg, 500))
        engine.run()
        return engine

    def test_observation_fields(self):
        obs = observe_resources(self.run_engine())
        assert obs.n == 16
        assert obs.h == 2
        assert obs.max_active_buckets > 0
        assert obs.max_pieo_length > 0

    def test_provisioning_doubles(self):
        obs = ResourceObservation(16, 2, 10, 20, 30)
        model = provision_memory(obs, headroom=2.0)
        assert model.active_buckets == 20
        assert model.pieo_depth == 40

    def test_headroom_validation(self):
        obs = ResourceObservation(16, 2, 10, 20, 30)
        with pytest.raises(ValueError):
            provision_memory(obs, headroom=0.5)

    def test_observation_without_hbh(self):
        cfg = SimConfig(
            n=16, h=2, duration=1000, propagation_delay=2,
            congestion_control="none", seed=3,
        )
        engine = Engine(cfg, workload=permutation_workload(cfg, 100))
        engine.run()
        obs = observe_resources(engine)
        assert obs.max_active_buckets == 0  # no bucket tracking without HBH

    @pytest.mark.parametrize("crash", [False, True])
    def test_active_bucket_peak_survives_a_recovery(self, crash):
        """Node 0 reaches the run's peak of 5 active buckets in slot 2533;
        a crash two slots later hands it a fresh tracker on recovery, and
        the peak must not go with the old one."""
        from repro.experiments.common import load_for, workload_for
        from repro.failures.manager import FailureEvent, FailureManager

        cfg = SimConfig(n=16, h=2, duration=3000, propagation_delay=8,
                        congestion_control="hbh+spray", seed=2)
        manager = FailureManager(events=[
            FailureEvent(2535, 0, failed=True),
            FailureEvent(2573, 0, failed=False),
        ]) if crash else None
        engine = Engine(cfg, workload=workload_for(cfg, "short-flow",
                                                   load=load_for(2)),
                        failure_manager=manager)
        engine.run()
        assert observe_resources(engine).max_active_buckets == 5
        assert engine.metrics.summary()["max_active_buckets"] == 5

    def test_fig13_cell_reads_the_slab_not_the_object_model(self,
                                                            monkeypatch):
        """A Fig. 13 cell stepped on the vector slab reports the object
        run's observation from the parked run's columns: the end-of-cell
        resource query builds no node."""
        from repro.experiments import fig13_scalability as fig13
        from repro.sim.backends import set_default_backend

        seen = {}

        def observing(engine):
            observation = observe_resources(engine)
            seen[engine.config.backend] = (engine, observation)
            return observation

        monkeypatch.setattr(fig13, "observe_resources", observing)
        rows = {}
        for backend in ("object", "vector"):
            previous = set_default_backend(backend)
            try:
                rows[backend] = fig13.run(
                    sizes={2: (144,)}, duration=400, workers=1).rows
            finally:
                set_default_backend(previous)
        engine, observation = seen["vector"]
        assert engine.backend_effective == "vector"
        assert engine.model_syncs == 0
        assert observation == seen["object"][1]
        assert rows["vector"] == rows["object"]
        # one record per high-water mark: the observation is the metrics'
        summary = engine.metrics.summary()
        assert observation.max_active_buckets \
            == summary["max_active_buckets"] > 0
        assert observation.max_pieo_length == summary["max_queue_length"] > 0
        assert summary == seen["object"][0].metrics.summary()
