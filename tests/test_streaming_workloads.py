"""Open-loop streaming workloads: determinism, slicing, state round-trips."""

import math

import pytest

from repro.sim.config import SimConfig
from repro.workloads import (
    HeavyTailedDistribution,
    OpenLoopSource,
    TenantProfile,
    constant_curve,
    diurnal_curve,
    split_by_class,
    streaming_workload,
    workload_to_string,
)


def _cfg(**kw):
    kw.setdefault("n", 16)
    kw.setdefault("h", 2)
    return SimConfig(**kw)


class TestCurves:
    def test_constant_curve_is_flat(self):
        curve = constant_curve(0.7)
        assert curve(0) == curve(12345) == 0.7

    def test_constant_curve_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            constant_curve(0.0)

    def test_diurnal_curve_peaks_and_troughs(self):
        curve = diurnal_curve(1000, low=0.2, high=1.0)
        assert curve(500) == pytest.approx(1.0)  # default peak at period/2
        assert curve(0) == pytest.approx(0.2)
        assert curve(1000) == pytest.approx(0.2)

    def test_diurnal_curve_custom_peak(self):
        curve = diurnal_curve(1000, low=0.5, high=0.9, peak=100)
        assert curve(100) == pytest.approx(0.9)

    def test_diurnal_curve_validation(self):
        with pytest.raises(ValueError):
            diurnal_curve(0)
        with pytest.raises(ValueError):
            diurnal_curve(100, low=0.0)
        with pytest.raises(ValueError):
            diurnal_curve(100, low=0.9, high=0.5)


class TestTenantProfile:
    def test_rejects_nonpositive_weight(self):
        with pytest.raises(ValueError):
            TenantProfile("t", weight=0.0)

    def test_rejects_degenerate_node_pool(self):
        with pytest.raises(ValueError):
            TenantProfile("t", nodes=(3, 3))

    def test_node_pool_out_of_range(self):
        with pytest.raises(ValueError):
            OpenLoopSource(_cfg(n=9), [TenantProfile("t", nodes=(1, 99))])


class TestOpenLoopSource:
    def test_same_seed_same_trace(self):
        cfg = _cfg(seed=11)
        a = streaming_workload(cfg, load=0.3, duration=5_000)
        b = streaming_workload(cfg, load=0.3, duration=5_000)
        assert workload_to_string(a) == workload_to_string(b)
        assert len(a) > 10

    def test_different_seed_different_trace(self):
        cfg = _cfg(seed=11)
        a = streaming_workload(cfg, load=0.3, duration=5_000)
        b = streaming_workload(cfg, load=0.3, duration=5_000, seed=999)
        assert workload_to_string(a) != workload_to_string(b)

    def test_slicing_never_changes_the_trace(self):
        """take(a) + take(b) == take(b): the core determinism contract."""
        cfg = _cfg(seed=3)
        whole = OpenLoopSource(cfg, load=0.4).take(6_000)
        sliced_src = OpenLoopSource(cfg, load=0.4)
        sliced = []
        for until in (137, 1_000, 1_001, 4_500, 6_000):
            sliced.extend(sliced_src.take(until))
        assert sliced == whole

    def test_arrivals_sorted_and_in_range(self):
        cfg = _cfg(n=9, seed=5)
        flows = streaming_workload(cfg, load=0.5, duration=3_000)
        arrivals = [f[0] for f in flows]
        assert arrivals == sorted(arrivals)
        assert all(0 <= f[0] < 3_000 for f in flows)
        for _, src, dst, cells, size in flows:
            assert 0 <= src < 9 and 0 <= dst < 9 and src != dst
            assert cells >= 1 and size >= 1

    def test_load_sets_arrival_rate(self):
        cfg = _cfg(seed=9)
        low = streaming_workload(cfg, load=0.1, duration=20_000)
        high = streaming_workload(cfg, load=0.5, duration=20_000)
        assert len(high) > 3 * len(low)

    def test_diurnal_curve_modulates_rate(self):
        cfg = _cfg(seed=4)
        curve = diurnal_curve(20_000, low=0.1, high=1.0)
        flows = streaming_workload(cfg, load=0.4, curve=curve,
                                   duration=20_000)
        trough = sum(1 for f in flows if f[0] < 4_000)
        peak = sum(1 for f in flows if 8_000 <= f[0] < 12_000)
        assert peak > 2 * trough

    def test_tenant_weights_share_the_load(self):
        cfg = _cfg(seed=8)
        tenants = [
            TenantProfile("big", weight=3.0),
            TenantProfile("small", weight=1.0),
        ]
        source = OpenLoopSource(cfg, tenants, load=0.4)
        source.take(30_000)
        big, small = source.per_tenant["big"], source.per_tenant["small"]
        assert big + small == source.emitted
        assert big / max(small, 1) == pytest.approx(3.0, rel=0.3)

    def test_tenant_node_pool_respected(self):
        cfg = _cfg(n=16, seed=2)
        pool = (0, 1, 2, 3)
        source = OpenLoopSource(
            cfg, [TenantProfile("racked", nodes=pool)], load=0.3
        )
        for flow in source.take(5_000):
            assert flow[1] in pool and flow[2] in pool

    def test_adjust_load_scales_future_only(self):
        """Pre-adjustment arrivals are untouched; later gaps rescale."""
        cfg = _cfg(seed=6)
        base_src = OpenLoopSource(cfg, load=0.2)
        base = base_src.take(20_000)
        adj_src = OpenLoopSource(cfg, load=0.2)
        prefix = adj_src.take(10_000)
        adj_src.set_load_factor(3.0)
        suffix = adj_src.take(20_000)
        assert prefix == [f for f in base if f[0] < 10_000]
        base_suffix = sum(1 for f in base if f[0] >= 10_000)
        assert len(suffix) > 1.5 * base_suffix
        assert adj_src.adjustments == [(10_000, 3.0)] or (
            adj_src.adjustments[0][1] == 3.0
        )

    def test_adjust_load_rejects_nonpositive(self):
        source = OpenLoopSource(_cfg(), load=0.2)
        with pytest.raises(ValueError):
            source.set_load_factor(0.0)

    @pytest.mark.parametrize("factor", [math.nan, math.inf, -math.inf])
    def test_adjust_load_rejects_non_finite(self, factor):
        """inf would make every later gap 0 (``take`` never returns), nan
        would fail inside ``take``: both are refused up front."""
        source = OpenLoopSource(_cfg(), load=0.2)
        source.set_load_factor(2.0)
        with pytest.raises(ValueError, match="finite"):
            source.set_load_factor(factor)
        assert source.factor == 2.0
        assert [f for _, f in source.adjustments] == [2.0]

    def test_load_validation(self):
        with pytest.raises(ValueError):
            OpenLoopSource(_cfg(), load=0.0)
        with pytest.raises(ValueError):
            OpenLoopSource(_cfg(), load=1.5)
        with pytest.raises(ValueError):
            OpenLoopSource(_cfg(), [])

    def test_state_roundtrip_resumes_bit_exactly(self):
        cfg = _cfg(seed=13)
        curve = diurnal_curve(5_000)
        reference = OpenLoopSource(cfg, load=0.3, curve=curve)
        whole = reference.take(20_000)

        first = OpenLoopSource(cfg, load=0.3, curve=curve)
        prefix = first.take(7_321)
        state = first.state_dict()
        second = OpenLoopSource(cfg, load=0.3, curve=curve)
        second.load_state(state)
        assert prefix + second.take(20_000) == whole
        assert second.emitted == reference.emitted

    def test_state_roundtrip_survives_json(self):
        """Checkpoint state must survive list/tuple mangling (pickle-free
        transports like the service wire encode tuples as lists)."""
        import json

        cfg = _cfg(seed=21)
        source = OpenLoopSource(cfg, load=0.3)
        source.take(5_000)
        state = json.loads(json.dumps(source.state_dict()))
        twin = OpenLoopSource(cfg, load=0.3)
        twin.load_state(state)
        assert twin.take(12_000) == source.take(12_000)

    def test_load_state_rejects_wrong_seed(self):
        cfg = _cfg(seed=1)
        state = OpenLoopSource(cfg, load=0.2).state_dict()
        other = OpenLoopSource(cfg, load=0.2, seed=4242)
        with pytest.raises(ValueError, match="seed"):
            other.load_state(state)

    def test_mean_cells_weighted(self):
        tenants = [
            TenantProfile("short", weight=1.0),
            TenantProfile("heavy", weight=1.0,
                          distribution=HeavyTailedDistribution()),
        ]
        source = OpenLoopSource(_cfg(), tenants, load=0.2)
        means = [t.distribution.mean_cells() for t in tenants]
        assert source.mean_cells == pytest.approx(sum(means) / 2)


class TestSplitByClass:
    def test_partitions_by_interleave_cutoff(self):
        from repro.core import two_class_interleave

        cfg = _cfg(seed=7)
        tenants = [
            TenantProfile("mix", distribution=HeavyTailedDistribution()),
        ]
        flows = streaming_workload(cfg, tenants, load=0.4, duration=10_000)
        interleave = two_class_interleave(cfg.n, h_bulk=2, h_latency=4,
                                          s=0.5)
        parts = split_by_class(flows, interleave)
        assert sum(len(v) for v in parts.values()) == len(flows)
        for class_id, part in parts.items():
            for flow in part:
                assert interleave.classify_flow(flow[3]) == class_id
