"""Backend equivalence: the vector slot-stepper against the object reference.

The contract (ISSUE 8 / DESIGN.md §11): every supported configuration must
produce a *bit-exact* match between the ``"object"`` and ``"vector"``
backends — identical :class:`~repro.sim.digest.DeterminismDigest` event
streams, identical metrics, identical RNG consumption — and resolved
configs carry their backend explicitly so checkpoints and cache entries
can never silently mix backends.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.failures.manager import FailureEvent, FailureManager
from repro.sim.backends import (
    EngineBackend,
    backend_class,
    backend_names,
    default_backend,
    make_backend,
    set_default_backend,
)
from repro.sim.checkpoint import (
    CheckpointError,
    apply_checkpoint,
    load_checkpoint,
    restore_engine,
    save_checkpoint,
)
from repro.sim.config import SimConfig
from repro.sim.engine import Engine
from repro.workloads.generators import permutation_workload

pytestmark = pytest.mark.backends

MECHANISMS = ("none", "hop-by-hop", "hbh+spray", "isd")

#: (n, h) pairs with integral radix r = n**(1/h)
TOPOLOGIES = ((16, 1), (16, 2), (64, 1), (64, 2), (64, 3))


def _build(backend, n, h, cc, seed, fail=False, size_cells=25, duration=300):
    cfg = SimConfig(
        n=n, h=h, duration=duration, seed=seed, propagation_delay=4,
        congestion_control=cc, backend=backend,
    )
    manager = None
    if fail:
        manager = FailureManager(events=[
            FailureEvent(60, 1, failed=True),
            FailureEvent(180, 1, failed=False),
        ])
    engine = Engine(
        cfg,
        workload=permutation_workload(cfg, size_cells),
        failure_manager=manager,
    )
    return engine


def _run(backend, n, h, cc, seed, fail=False):
    engine = _build(backend, n, h, cc, seed, fail=fail)
    digest = engine.enable_digest()
    engine.run()
    engine.run_until_quiescent(max_extra=20_000)
    return {
        "digest": digest.hexdigest(),
        "events": digest.events,
        "t": engine.t,
        "rng": engine.rng.getstate(),
        "metrics": engine.metrics.state_dict(),
        "flows": engine.flows.state_dict(),
    }


class TestRegistry:
    def test_both_backends_registered(self):
        names = backend_names()
        assert "object" in names and "vector" in names

    def test_make_backend_resolves_default(self):
        assert default_backend() == "object"
        assert make_backend("").backend_name == "object"
        assert make_backend("vector").backend_name == "vector"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="backend"):
            backend_class("warp")
        with pytest.raises(ValueError, match="backend"):
            SimConfig(n=16, h=2, duration=10, backend="warp")

    def test_resolved_config_names_backend_explicitly(self):
        # the empty-string default resolves at construction time, so a
        # config never reaches cache keys or checkpoints anonymous
        assert SimConfig(n=16, h=2, duration=10).backend == "object"

    def test_set_default_backend_round_trips(self):
        previous = set_default_backend("vector")
        try:
            assert previous == "object"
            assert SimConfig(n=16, h=2, duration=10).backend == "vector"
            assert isinstance(make_backend(""), backend_class("vector"))
        finally:
            set_default_backend(previous)
        assert SimConfig(n=16, h=2, duration=10).backend == "object"

    def test_backend_contract_is_abstract(self):
        engine = _build("object", 16, 2, "none", 1)
        with pytest.raises(NotImplementedError):
            EngineBackend().advance(engine, 1, drain=False)


class TestBitExactEquivalence:
    """Random small configs through both backends: identical digests,
    identical RNG consumption, identical metrics — whether the vector
    backend takes its fast path (cc=none, vlb, no failures) or falls
    back to the reference pipeline."""

    @settings(deadline=None, max_examples=12)
    @given(
        st.sampled_from(TOPOLOGIES),
        st.sampled_from(MECHANISMS),
        st.integers(min_value=0, max_value=2**16),
        st.booleans(),
    )
    def test_backends_are_bit_exact(self, topo, cc, seed, fail):
        n, h = topo
        reference = _run("object", n, h, cc, seed, fail=fail)
        vectored = _run("vector", n, h, cc, seed, fail=fail)
        assert vectored == reference

    def test_fast_path_really_engages(self):
        """Guard against the property passing only because the vector
        backend silently fell back everywhere: on a plain cc=none run the
        vector stepper must actually take its column path (it builds its
        per-engine tables on first use), and still match bit-exactly."""
        engine = _build("vector", 64, 2, "none", 9)
        digest = engine.enable_digest()
        engine.run()
        assert engine.backend._nbr is not None, (
            "vector fast path never engaged on a vector-eligible config"
        )
        assert engine.metrics.payload_cells_delivered > 0
        ref_engine = _build("object", 64, 2, "none", 9)
        ref_digest = ref_engine.enable_digest()
        ref_engine.run()
        assert digest.hexdigest() == ref_digest.hexdigest()
        assert engine.metrics.state_dict() == ref_engine.metrics.state_dict()


class TestCheckpointBackendValidation:
    def _snapshot_engine(self, backend):
        engine = _build(backend, 16, 2, "none", 5, size_cells=30,
                        duration=400)
        engine.run(150)
        return engine

    def test_cross_backend_resume_rejected(self):
        checkpoint = self._snapshot_engine("object").snapshot()
        target = _build("vector", 16, 2, "none", 5, size_cells=30,
                        duration=400)
        with pytest.raises(CheckpointError, match="configuration"):
            apply_checkpoint(target, checkpoint)

    @pytest.mark.parametrize("backend", ["object", "vector"])
    def test_same_backend_round_trip(self, backend, tmp_path):
        engine = self._snapshot_engine(backend)
        path = tmp_path / "ckpt.bin"
        save_checkpoint(engine.snapshot(), path)
        restored = restore_engine(load_checkpoint(path))
        assert restored.config.backend == backend
        assert type(restored.backend) is backend_class(backend)
        engine.run(400 - engine.t)
        restored.run(400 - restored.t)
        assert restored.t == engine.t
        assert restored.rng.getstate() == engine.rng.getstate()
        assert restored.metrics.state_dict() == engine.metrics.state_dict()


class TestGoldenTracesOnVectorBackend:
    """The full golden matrix re-run with the vector backend installed as
    the ambient default: every scenario and mechanism must reproduce the
    recorded reference digests bit-exactly."""

    @pytest.mark.parametrize("cc", MECHANISMS)
    def test_golden_matrix_on_vector(self, cc):
        from tests.test_golden_traces import (
            SCENARIOS,
            _load_goldens,
            run_scenario,
        )

        goldens = _load_goldens()
        previous = set_default_backend("vector")
        try:
            for scenario, params in sorted(SCENARIOS.items()):
                result = run_scenario(cc, params)
                assert result == goldens[scenario][cc], (
                    f"{scenario}/{cc}: vector backend diverged from the "
                    f"golden reference"
                )
        finally:
            set_default_backend(previous)
