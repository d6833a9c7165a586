"""Tests for the multiprocess sweep helper.

Covers the dispatch paths (sequential, single-cell, pool, pool-unavailable
fallback) through one shared grid-order assertion, worker crash isolation,
and — for every experiment module's worker function — that a parallel run
is *identical* to a sequential one: same plain results and same
per-engine :class:`~repro.sim.digest.DeterminismDigest`s.
"""

import os

import pytest

from repro.sim.parallel import CellOutcome, default_workers, sweep, sweep_cells

#: recorded at import time in the parent; fork copies it, so a worker
#: process sees a stale value and can be told apart from the parent
_PARENT_PID = os.getpid()


def square(x):
    return x * x


def combine(a, b=10):
    return a + b


def parent_only(x):
    """Succeeds in the sweep parent, raises in any forked worker."""
    if os.getpid() != _PARENT_PID:
        raise RuntimeError("simulated worker crash")
    return x * 2


def always_fail(x):
    raise ValueError("this cell is broken everywhere")


def flaky_engine_cell(duration):
    """``engine_cell``, but dies in any forked worker (parent retry wins)."""
    if os.getpid() != _PARENT_PID:
        raise RuntimeError("simulated worker crash")
    return engine_cell(duration)


def engine_cell(duration):
    """A tiny real simulation, for telemetry/digest dispatch tests."""
    from repro.sim.config import SimConfig
    from repro.sim.engine import Engine
    from repro.workloads.generators import permutation_workload

    cfg = SimConfig(n=9, h=2, duration=duration, seed=3)
    engine = Engine(cfg, workload=permutation_workload(cfg, 20))
    engine.run()
    return engine.metrics.payload_cells_delivered


def assert_grid_order(fn, grid, expected, **kwargs):
    """Shared helper: every dispatch path must return results in grid order.

    Exercises ``workers<=1``, ``len(cells)<=1`` (each cell alone) and the
    pool path against the same expectation.
    """
    assert sweep(fn, grid, workers=1, **kwargs) == expected
    assert sweep(fn, grid, workers=None, **kwargs) == expected
    assert sweep(fn, grid, workers=2, **kwargs) == expected
    for cell, value in zip(grid, expected):
        assert sweep(fn, [cell], workers=4, **kwargs) == [value]


class TestSweep:
    def test_sequential(self):
        grid = [{"x": i} for i in range(5)]
        assert sweep(square, grid, workers=1) == [0, 1, 4, 9, 16]

    def test_parallel_matches_sequential(self):
        grid = [{"x": i} for i in range(8)]
        assert sweep(square, grid, workers=3) == sweep(square, grid, workers=1)

    def test_all_paths_grid_order(self):
        grid = [{"x": i} for i in range(6)]
        assert_grid_order(square, grid, [0, 1, 4, 9, 16, 25])

    def test_order_preserved(self):
        grid = [{"a": i, "b": 100 - i} for i in range(6)]
        assert_grid_order(combine, grid, [100] * 6)

    def test_empty_grid(self):
        assert sweep(square, [], workers=4) == []

    def test_single_cell_runs_inline(self):
        assert sweep(square, [{"x": 7}], workers=4) == [49]

    def test_none_workers_sequential(self):
        assert sweep(square, [{"x": 2}], workers=None) == [4]

    def test_default_workers_positive(self):
        assert default_workers() >= 1
        assert default_workers(cap=2) <= 2


class TestCrashIsolation:
    def test_worker_crash_retried_sequentially(self):
        """A cell that dies in a worker is retried in the parent, not fatal."""
        grid = [{"x": i} for i in range(4)]
        assert sweep(parent_only, grid, workers=2) == [0, 2, 4, 6]

    def test_persistent_failure_propagates(self):
        """A cell that fails in the worker AND in the retry raises."""
        with pytest.raises(ValueError, match="broken everywhere"):
            sweep(always_fail, [{"x": 1}, {"x": 2}], workers=2)

    def test_sequential_failure_propagates(self):
        with pytest.raises(ValueError, match="broken everywhere"):
            sweep(always_fail, [{"x": 1}, {"x": 2}], workers=1)

    def test_zero_retry_budget_fails_fast(self):
        """``retries=0`` turns a worker crash into an immediate error."""
        grid = [{"x": i} for i in range(4)]
        with pytest.raises(RuntimeError, match="retry budget is 0"):
            sweep(parent_only, grid, workers=2, retries=0)

    def test_negative_retry_budget_rejected(self):
        with pytest.raises(ValueError, match="retry budget"):
            sweep(square, [{"x": 1}, {"x": 2}], workers=2, retries=-1)

    def test_ambient_retry_default_configurable(self):
        from repro.sim.parallel import (default_cell_retries,
                                        set_default_cell_retries)

        assert default_cell_retries() == 1
        set_default_cell_retries(3)
        try:
            assert default_cell_retries() == 3
            with pytest.raises(ValueError):
                set_default_cell_retries(-1)
        finally:
            set_default_cell_retries(1)

    def test_attempts_land_in_runtime_sidecar(self):
        """Crash-retried cells record their attempt count in the sidecar."""
        from repro.obs.capture import TelemetryCapture

        grid = [{"duration": 120}, {"duration": 160}]
        with TelemetryCapture() as capture:
            values = sweep(flaky_engine_cell, grid, workers=2)
            runtimes = capture.collect_runtime()
        assert values == sweep(engine_cell, grid, workers=1)
        stamped = [r["runtime"] for r in runtimes]
        assert [r["cell_attempts"] for r in stamped] == [2, 2]
        assert all(r["cell_retried"] for r in stamped)

    def test_clean_cells_record_single_attempt(self):
        from repro.obs.capture import TelemetryCapture

        grid = [{"duration": 120}, {"duration": 160}]
        with TelemetryCapture() as capture:
            sweep(engine_cell, grid, workers=2)
            runtimes = capture.collect_runtime()
        stamped = [r["runtime"] for r in runtimes]
        assert [r["cell_attempts"] for r in stamped] == [1, 1]
        assert not any(r["cell_retried"] for r in stamped)


class TestPoolFallback:
    def test_fallback_keeps_results_and_telemetry(self, monkeypatch):
        """Pool-unavailable falls back sequentially WITHOUT losing telemetry."""
        from repro.obs.capture import TelemetryCapture
        from repro.sim import parallel

        def broken_get_context(method):
            raise OSError("no process pools in this sandbox")

        monkeypatch.setattr(
            parallel.multiprocessing, "get_context", broken_get_context
        )
        grid = [{"duration": 120}, {"duration": 160}]
        with TelemetryCapture() as capture:
            values = sweep(engine_cell, grid, workers=2)
            runs = capture.collect()
        assert values == sweep(engine_cell, grid, workers=1)
        # the fallback path must still ship per-cell telemetry home,
        # merged in grid order
        assert [run["index"] for run in runs] == [0, 1]
        assert all("summary" in run for run in runs)


class TestSweepCells:
    def test_outcomes_carry_digests_and_wall(self):
        grid = [{"duration": 120}, {"duration": 160}]
        outcomes = sweep_cells(engine_cell, grid, workers=1, digest=True)
        assert all(isinstance(o, CellOutcome) for o in outcomes)
        assert all(len(o.digests) == 1 for o in outcomes)
        assert all(o.wall >= 0.0 for o in outcomes)
        assert not any(o.cached for o in outcomes)
        # different horizons must hash differently
        assert outcomes[0].digests != outcomes[1].digests

    def test_digests_off_by_default(self):
        outcomes = sweep_cells(engine_cell, [{"duration": 120}], workers=1)
        assert outcomes[0].digests == ()


# --------------------------------------------------------------------------- #
# parallel-vs-sequential equivalence, one case per experiment worker function

def _fig10_grid():
    from repro.experiments.fig10_shortflow import _run_cell

    shared = dict(n=16, duration=1000, propagation_delay=2,
                  workload_name="short-flow", seed=5, load=0.15)
    return _run_cell, [dict(mechanism=m, h=2, **shared)
                       for m in ("none", "hbh+spray")]


def _fig01_grid():
    from repro.analysis.theory import tradeoff_point

    return tradeoff_point, [dict(n=4096, slot_ns=5.632, h=h) for h in (1, 2)]


def _fig04_grid():
    from repro.experiments.fig04_opera import _run_system

    shared = dict(n=16, duration=1000, load=0.3, propagation_delay=4,
                  opera_period_cells=145, workload_scale=0.02, seed=1)
    return _run_system, [dict(system=s, **shared)
                         for s in ("shale", "opera")]


def _fig08_grid():
    from repro.experiments.fig08_validation import _run_cell

    shared = dict(n=16, flow_cells=800, duration=800,
                  propagation_delay=0, seed=7)
    return _run_cell, [dict(h=h, **shared) for h in (2, 4)]


def _fig09_grid():
    from repro.experiments.fig09_interleaving import _run_cell

    shared = dict(n=16, h_bulk=2, h_latency=4, duration=1000,
                  propagation_delay=2, cutoff_cells=64,
                  workload_scale=0.02, seed=3)
    return _run_cell, [dict(s=s, **shared) for s in (0.0, 0.4)]


def _fig12_grid():
    from repro.experiments.fig12_failures import _run_cell

    shared = dict(n=16, duration=1200, flow_cells=400, permutations=4,
                  propagation_delay=2, seed=23, mode="nodes",
                  detection_epochs=1)
    return _run_cell, [dict(h=2, fraction=f, **shared) for f in (0.0, 0.06)]


def _fig13_grid():
    from repro.experiments.fig13_scalability import _run_cell

    shared = dict(duration=1000, propagation_delay=2, seed=13)
    return _run_cell, [dict(h=2, n=n, **shared) for n in (16, 25)]


def _fig17_grid():
    from repro.experiments.fig17_nonincast import _run_cell

    shared = dict(n=16, h=2, duration=1200, propagation_delay=2, seed=17,
                  elephant_bytes=100_000, workload_scale=0.02, load=0.15)
    return _run_cell, [dict(mechanism=m, **shared)
                       for m in ("ndp", "hbh+spray")]


def _appd_grid():
    from repro.experiments.appd_token_budget import _run_cell

    shared = dict(n=16, h=2, duration=800, flow_cells=400, seed=19)
    return _run_cell, [dict(t_f=1, delay=d, **shared) for d in (0, 30)]


EQUIVALENCE_CASES = {
    "fig01": _fig01_grid,
    "fig04": _fig04_grid,
    "fig08": _fig08_grid,
    "fig09": _fig09_grid,
    "fig10": _fig10_grid,
    "fig12": _fig12_grid,
    "fig13": _fig13_grid,
    "fig17": _fig17_grid,
    "appd": _appd_grid,
}


class TestExperimentParallelism:
    @pytest.mark.parametrize("name", sorted(EQUIVALENCE_CASES))
    def test_parallel_equals_sequential(self, name):
        """Same results AND same determinism digests, workers=1 vs 2."""
        fn, grid = EQUIVALENCE_CASES[name]()
        seq = sweep_cells(fn, grid, workers=1, digest=True)
        par = sweep_cells(fn, grid, workers=2, digest=True)
        assert [o.value for o in seq] == [o.value for o in par]
        assert [o.digests for o in seq] == [o.digests for o in par]

    def test_fig10_parallel_equals_sequential(self):
        from repro.experiments import fig10_shortflow

        kwargs = dict(
            n=16, h_values=(2,), mechanisms=("none", "hbh+spray"),
            duration=3000, propagation_delay=2, load=0.15,
        )
        seq = fig10_shortflow.run(workers=1, **kwargs)
        par = fig10_shortflow.run(workers=2, **kwargs)
        for a, b in zip(seq.cells, par.cells):
            assert a.mechanism == b.mechanism
            assert a.fct_tail == b.fct_tail
            assert a.buffer_p9999 == b.buffer_p9999
            assert a.max_queue == b.max_queue
