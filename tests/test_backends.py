"""Backend equivalence: the vector slot-stepper against the object reference.

The contract (ISSUE 8 / DESIGN.md §11): every supported configuration must
produce a *bit-exact* match between the ``"object"`` and ``"vector"``
backends — identical :class:`~repro.sim.digest.DeterminismDigest` event
streams, identical metrics, identical RNG consumption — and resolved
configs carry their backend explicitly so checkpoints and cache entries
can never silently mix backends.
"""

import contextlib
import logging
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.failures.manager import FailureEvent, FailureManager
from repro.sim import engine as engine_mod
from repro.sim.backends import (
    EngineBackend,
    backend_class,
    backend_names,
    default_backend,
    make_backend,
    set_default_backend,
)
from repro.sim.backends.token_slab import TokenRun
from repro.sim.backends.vector import VectorBackend
from repro.sim.checkpoint import (
    CheckpointError,
    apply_checkpoint,
    load_checkpoint,
    restore_engine,
    save_checkpoint,
)
from repro.sim.config import SimConfig
from repro.sim.engine import Engine
from repro.sim.monitor import RunMonitor
from repro.workloads.generators import permutation_workload

pytestmark = pytest.mark.backends

MECHANISMS = ("none", "spray-short", "hop-by-hop", "hbh+spray", "isd")

#: the mechanisms the vector slab steps itself (above the size floor)
SLAB_MECHANISMS = ("none", "spray-short", "hop-by-hop", "hbh+spray")

#: (n, h) pairs with integral radix r = n**(1/h)
TOPOLOGIES = ((16, 1), (16, 2), (64, 1), (64, 2), (64, 3))


@contextlib.contextmanager
def slab_floor(n):
    """Run with the token family's size floor at ``n`` (0: always slab).

    The floor is a measured constant, not an option; the small networks
    these tests use sit below it, so they patch it to reach the slab.
    """
    previous = VectorBackend.TOKEN_SLAB_MIN_N
    VectorBackend.TOKEN_SLAB_MIN_N = n
    try:
        yield
    finally:
        VectorBackend.TOKEN_SLAB_MIN_N = previous


@pytest.fixture
def no_floor():
    with slab_floor(0):
        yield


def _build(backend, n, h, cc, seed, fail=False, size_cells=25, duration=300,
           **config):
    cfg = SimConfig(
        n=n, h=h, duration=duration, seed=seed, propagation_delay=4,
        congestion_control=cc, backend=backend, **config,
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


def _trace(engine):
    """Everything two equivalent runs must agree on, node state included.

    Tokens may still be in flight at quiescence, so token conservation is
    checked as equality of the whole unpacked state (queues, ledger,
    tracker with its peak, token-return queues, ``pending_tokens``, the
    wire) with the object run's — not as "nothing outstanding".
    """
    return {
        "digest": engine.digest.hexdigest(),
        "events": engine.digest.events,
        "t": engine.t,
        "rng": engine.rng.getstate(),
        "metrics": engine.metrics.state_dict(),
        "flows": engine.flows.state_dict(),
        "nodes": [node.state_dict() for node in engine.nodes],
        "wire": [tx.state() for tx in engine._in_flight],
    }


def _run(backend, n, h, cc, seed, fail=False, **config):
    """(trace after run + drain, the engine)."""
    engine = _build(backend, n, h, cc, seed, fail=fail, **config)
    engine.enable_digest()
    engine.run()
    engine.run_until_quiescent(max_extra=20_000)
    return _trace(engine), engine


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
    identical RNG consumption, identical metrics and node state — on the
    slab for the mechanisms it steps (cc=none and the token family, vlb,
    no failures), on the reference pipeline, reason recorded, for the
    rest."""

    @settings(deadline=None, max_examples=16)
    @given(
        st.sampled_from(TOPOLOGIES),
        st.sampled_from(MECHANISMS),
        st.integers(min_value=0, max_value=2**16),
        st.booleans(),
    )
    def test_backends_are_bit_exact(self, topo, cc, seed, fail):
        n, h = topo
        with slab_floor(0):
            reference, _ = _run("object", n, h, cc, seed, fail=fail)
            vectored, engine = _run("vector", n, h, cc, seed, fail=fail)
        assert vectored == reference
        # ... and not vacuously: the slab engaged exactly where it should
        if cc == "isd":
            assert engine.backend_effective == "object"
            assert engine.backend_reason == "congestion_control='isd'"
        elif fail:
            assert engine.backend_effective == "object"
            assert engine.backend_reason == "failure manager attached"
        else:
            assert engine.backend_effective == "vector"
            assert engine.backend_reason == ""

    @pytest.mark.parametrize("cc", SLAB_MECHANISMS)
    def test_fast_path_really_engages(self, cc, no_floor):
        """Guard against the property passing only because the vector
        backend silently fell back everywhere: on a slab mechanism the
        vector stepper must actually take its column path (it builds its
        per-engine tables on first use), and still match bit-exactly."""
        engine = _build("vector", 64, 2, cc, 9)
        digest = engine.enable_digest()
        engine.run()
        assert engine.backend._nbr is not None, (
            "vector fast path never engaged on a vector-eligible config"
        )
        assert engine.backend_effective == "vector"
        assert engine.metrics.payload_cells_delivered > 0
        ref_engine = _build("object", 64, 2, cc, 9)
        ref_digest = ref_engine.enable_digest()
        ref_engine.run()
        assert digest.hexdigest() == ref_digest.hexdigest()
        assert engine.metrics.state_dict() == ref_engine.metrics.state_dict()
        if cc in ("hop-by-hop", "hbh+spray"):
            # the token protocol really ran on the slab: tokens crossed
            # the wire, some of them in token-only dummy transmissions
            assert engine.metrics.tokens_sent > 0
            assert engine.metrics.dummy_cells_sent > 0

    @pytest.mark.parametrize("config,reason", [
        (dict(token_budget=2),
         "token_budget=2, first_hop_token_budget=0"),
        (dict(first_hop_token_budget=3),
         "token_budget=1, first_hop_token_budget=3"),
        (dict(use_fifo_for_hbh=True), "use_fifo_for_hbh=True"),
    ])
    def test_token_variants_stay_on_the_reference(self, config, reason,
                                                  no_floor):
        reference, _ = _run("object", 16, 2, "hbh+spray", 4, **config)
        vectored, engine = _run("vector", 16, 2, "hbh+spray", 4, **config)
        assert vectored == reference
        assert engine.backend_effective == "object"
        assert engine.backend_reason == reason


class TestHandOff:
    """The object model is authoritative between backend calls, so a run
    may be cut anywhere: every cut packs and unpacks the ledger, the token
    rings, the tracker and the token-bearing and dummy transmissions."""

    @settings(deadline=None, max_examples=10)
    @given(
        st.sampled_from(TOPOLOGIES),
        st.sampled_from(("spray-short", "hop-by-hop", "hbh+spray")),
        st.integers(min_value=0, max_value=2**16),
        st.integers(min_value=1, max_value=40),
    )
    def test_manual_steps_then_run(self, topo, cc, seed, steps):
        n, h = topo
        with slab_floor(0):
            reference, _ = _run("object", n, h, cc, seed)
            engine = _build("vector", n, h, cc, seed)
            engine.enable_digest()
            for _ in range(steps):
                engine.step()       # the reference slot body, by hand
            engine.run(engine.config.duration - engine.t)
            engine.run_until_quiescent(max_extra=20_000)
        assert _trace(engine) == reference
        assert engine.backend_effective == "vector"

    @settings(deadline=None, max_examples=10)
    @given(
        st.sampled_from(TOPOLOGIES),
        st.sampled_from(("hop-by-hop", "hbh+spray")),
        st.integers(min_value=0, max_value=2**16),
    )
    def test_random_chunks(self, topo, cc, seed):
        n, h = topo
        chunks = random.Random(seed)
        owed = dummies = charged = 0
        with slab_floor(0):
            reference, _ = _run("object", n, h, cc, seed)
            engine = _build("vector", n, h, cc, seed)
            engine.enable_digest()
            while engine.t < engine.config.duration:
                engine.run(min(chunks.randint(1, 25),
                               engine.config.duration - engine.t))
                owed += any(node.pending_tokens for node in engine.nodes)
                dummies += any(tx.cell.dummy for tx in engine._in_flight)
                charged += any(node.ledger.outstanding()
                               for node in engine.nodes)
            engine.run_until_quiescent(max_extra=20_000)
        assert _trace(engine) == reference
        assert engine.backend_effective == "vector"
        # the cuts were not vacuous: chunks ended (and the next began) on
        # queued tokens, token-only dummies on the wire, spent credit
        assert owed and dummies and charged

    def test_token_rings_grow(self, no_floor, monkeypatch):
        """A ring that fills doubles; start from one slot so it must."""
        grown = []
        grow = TokenRun._grow_rings
        monkeypatch.setattr(TokenRun, "RING_SLOTS", 1)
        monkeypatch.setattr(
            TokenRun, "_grow_rings",
            lambda run: (grown.append(run.tq_cap), grow(run))[1],
        )
        reference, _ = _run("object", 64, 2, "hbh+spray", 3)
        vectored, engine = _run("vector", 64, 2, "hbh+spray", 3)
        assert vectored == reference
        assert engine.backend_effective == "vector"
        assert grown

    def test_ledger_is_sized_by_outstanding_tokens(self, no_floor):
        """n=1296: a dense (node, link, dst, sprays) ledger would be
        1.9 GB as int64 and 235 MB as uint8; the slab's holds one key per
        outstanding token."""
        slots = 60
        engines = {}
        for backend in ("object", "vector"):
            cfg = SimConfig(n=1296, h=2, duration=slots, seed=2,
                            congestion_control="hbh+spray", backend=backend)
            engine = Engine(cfg, workload=permutation_workload(cfg, 40))
            engine.enable_digest()
            engines[backend] = engine
        engines["object"].run()
        engine = engines["vector"]
        backend = engine.backend
        run = TokenRun(engine, *backend._tables(engine),
                       backend._link_tables(engine))
        assert run.pack() is None
        run.advance(slots, drain=False)
        outstanding = sum(column.size - 1 for column in run.ledger)
        ledger_bytes = sum(column.nbytes for column in run.ledger)
        run.unpack()
        assert outstanding > 1000
        assert outstanding == sum(
            node.ledger.outstanding() for node in engine.nodes
        )
        assert ledger_bytes == 8 * (outstanding + run.L) < 1 << 20
        assert _trace(engine) == _trace(engines["object"])


class TestFallbackReasons:
    """Every state the slab declines is named — distinctly."""

    def _reason(self, engine):
        engine.run(20)
        assert engine.backend_effective == "object"
        return engine.backend_reason

    def test_every_declined_state_has_its_own_reason(self, no_floor):
        monitored = _build("vector", 16, 2, "none", 1)
        RunMonitor().attach(monitored)
        reasons = {
            "isd": self._reason(_build("vector", 16, 2, "isd", 1)),
            "ndp": self._reason(_build("vector", 16, 2, "ndp", 1)),
            "budget": self._reason(
                _build("vector", 16, 2, "hbh+spray", 1, token_budget=2)),
            "fifo": self._reason(
                _build("vector", 16, 2, "hbh+spray", 1,
                       use_fifo_for_hbh=True)),
            "routing": self._reason(
                _build("vector", 16, 2, "none", 1,
                       routing="semi_oblivious")),
            "monitor": self._reason(monitored),
            "failures": self._reason(
                _build("vector", 16, 2, "none", 1, fail=True)),
        }
        with slab_floor(VectorBackend.TOKEN_SLAB_MIN_N + 100):
            reasons["floor"] = self._reason(
                _build("vector", 64, 2, "hbh+spray", 1))
        assert reasons == {
            "isd": "congestion_control='isd'",
            "ndp": "congestion_control='ndp'",
            "budget": "token_budget=2, first_hop_token_budget=0",
            "fifo": "use_fifo_for_hbh=True",
            "routing": "routing='semi_oblivious'",
            "monitor": "monitor attached",
            "failures": "failure manager attached",
            "floor": "n=64 below the token-slab size floor (100)",
        }
        assert len(set(reasons.values())) == len(reasons)

    def test_size_floor_is_the_shipped_default(self):
        # below the measured crossover the object pipeline is the faster
        # one, so small token-family runs stay there and say why; cc=none
        # has no floor
        engine = _build("vector", 64, 2, "hbh+spray", 1)
        assert "size floor" in self._reason(engine)
        plain = _build("vector", 64, 2, "none", 1)
        plain.run(20)
        assert plain.backend_effective == "vector"

    def test_pack_reports_why_it_failed(self):
        """pack() failures are named individually (they used to all read
        "queued cells carry non-vectorizable headers")."""
        gauss = _build("vector", 16, 2, "none", 1)
        gauss.rng.gauss(0.0, 1.0)   # leaves a cached second variate
        assert self._reason(gauss) == "RNG holds a cached gauss() value"
        foreign = _build("vector", 16, 2, "none", 1)
        version, key, cached = foreign.rng.getstate()
        foreign.rng.getstate = lambda: (2, key, cached)
        assert self._reason(foreign) == \
            "RNG state version 2 is not MT19937"
        headers = _build("vector", 16, 2, "none", 1)
        headers.run(30)
        assert headers.backend_effective == "vector"
        queued = next(cell for node in headers.nodes
                      for queue in node.link_queues for cell in queue)
        queued.spray_phase = -1     # a hint the columns cannot carry
        headers.run(1)
        assert headers.backend_reason == \
            "queued cells carry non-vectorizable headers"

    def test_notice_logged_once_per_reason(self, caplog):
        engine_mod._fallbacks_logged.clear()
        with caplog.at_level(logging.WARNING, logger="repro.backend"):
            for seed in (1, 2, 3):
                _build("vector", 16, 2, "isd", seed).run(10)
            _build("vector", 16, 2, "ndp", 1).run(10)
        notices = [record.getMessage() for record in caplog.records
                   if record.name == "repro.backend"]
        assert notices == [
            "backend 'vector' fell back to 'object' pipeline "
            "(congestion_control='isd')",
            "backend 'vector' fell back to 'object' pipeline "
            "(congestion_control='ndp')",
        ]


class TestCheckpointBackendValidation:
    def _snapshot_engine(self, backend, cc="none"):
        # hop-by-hop flows outlast the snapshot slot, so it lands mid-run
        engine = _build(backend, 16, 2, cc, 5, duration=400,
                        size_cells=30 if cc == "none" else 150)
        engine.enable_digest()
        engine.run(150)
        return engine

    def test_cross_backend_resume_rejected(self):
        checkpoint = self._snapshot_engine("object").snapshot()
        target = _build("vector", 16, 2, "none", 5, size_cells=30,
                        duration=400)
        with pytest.raises(CheckpointError, match="configuration"):
            apply_checkpoint(target, checkpoint)

    def _round_trip(self, backend, cc, tmp_path):
        engine = self._snapshot_engine(backend, cc)
        path = tmp_path / "ckpt.bin"
        save_checkpoint(engine.snapshot(), path)
        restored = restore_engine(load_checkpoint(path))
        assert restored.config.backend == backend
        assert type(restored.backend) is backend_class(backend)
        engine.run(400 - engine.t)
        restored.run(400 - restored.t)
        assert restored.t == engine.t
        assert _trace(restored) == _trace(engine)
        assert restored.backend_effective == engine.backend_effective \
            == backend
        return restored

    @pytest.mark.parametrize("backend", ["object", "vector"])
    def test_same_backend_round_trip(self, backend, tmp_path):
        self._round_trip(backend, "none", tmp_path)

    @pytest.mark.parametrize("backend", ["object", "vector"])
    def test_round_trip_mid_run_under_hbh_spray(self, backend, tmp_path,
                                                no_floor):
        probe = self._snapshot_engine(backend, "hbh+spray")
        # the snapshot carries spent credit and tokens on their way back
        assert any(node.ledger.outstanding() for node in probe.nodes)
        assert any(node.pending_tokens for node in probe.nodes) \
            or any(tx.tokens for tx in probe._in_flight)
        restored = self._round_trip(backend, "hbh+spray", tmp_path)
        reference = self._snapshot_engine("object", "hbh+spray")
        reference.run(400 - reference.t)
        assert _trace(restored) == _trace(reference)


class TestGoldenTracesOnVectorBackend:
    """The full golden matrix re-run with the vector backend installed as
    the ambient default: every scenario and mechanism must reproduce the
    recorded reference digests bit-exactly — on the slab wherever the slab
    claims the state, which the test checks per engine."""

    @pytest.mark.parametrize("cc", MECHANISMS)
    def test_golden_matrix_on_vector(self, cc, no_floor):
        from tests.test_golden_traces import (
            SCENARIOS,
            _load_goldens,
            run_scenario,
        )

        goldens = _load_goldens()
        built = []
        engine_mod._construction_hooks.append(built.append)
        previous = set_default_backend("vector")
        try:
            for scenario, params in sorted(SCENARIOS.items()):
                result = run_scenario(cc, params)
                engine = built.pop()
                if cc in goldens[scenario]:
                    golden = goldens[scenario][cc]
                else:
                    # no recorded digest for this mechanism: the object
                    # pipeline is the reference
                    set_default_backend("object")
                    golden = run_scenario(cc, params)
                    set_default_backend("vector")
                    built.clear()
                assert result == golden, (
                    f"{scenario}/{cc}: vector backend diverged from the "
                    f"golden reference"
                )
                on_slab = (
                    cc in SLAB_MECHANISMS
                    and "fail_node" not in params
                    and params.get("routing", "vlb") == "vlb"
                )
                assert engine.backend_effective == (
                    "vector" if on_slab else "object"
                ), f"{scenario}/{cc}: {engine.backend_reason}"
        finally:
            set_default_backend(previous)
            engine_mod._construction_hooks.remove(built.append)
