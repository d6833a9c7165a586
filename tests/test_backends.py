"""Backend equivalence: the vector slot-stepper against the object reference.

The contract (ISSUE 8 / DESIGN.md §11): every supported configuration must
produce a *bit-exact* match between the ``"object"`` and ``"vector"``
backends — identical :class:`~repro.sim.digest.DeterminismDigest` event
streams, identical metrics, identical RNG consumption — and resolved
configs carry their backend explicitly so checkpoints and cache entries
can never silently mix backends.
"""

import contextlib
import gc
import logging
import os
import pathlib
import random
import subprocess
import sys
import textwrap
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import open_session, simulate
from repro.core.cell import Cell
from repro.core.strategies import schedule_names
from repro.failures.manager import FailureEvent, FailureManager
from repro.sim import engine as engine_mod
from repro.sim import node as node_mod
from repro.sim import tables
from repro.sim.backends import (
    EngineBackend,
    backend_class,
    backend_names,
    default_backend,
    make_backend,
    set_default_backend,
)
from repro.sim.backends import vector as vector_mod
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
from repro.sim.digest import DeterminismDigest
from repro.sim.engine import Engine
from repro.sim.monitor import RunMonitor
from repro.sim.trace import CellTracer, validate_trace
from repro.workloads.generators import permutation_workload

from .equivalence import equal, run_state as _trace

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
        vector stepper must actually take its column path (its packed run
        is parked on the engine afterwards), and still match bit-exactly."""
        engine = _build("vector", 64, 2, cc, 9)
        digest = engine.enable_digest()
        engine.run()
        assert engine._parked is not None, (
            "vector fast path never engaged on a vector-eligible config"
        )
        assert engine.backend_effective == "vector"
        assert engine.metrics.payload_cells_delivered > 0
        ref_engine = _build("object", 64, 2, cc, 9)
        ref_digest = ref_engine.enable_digest()
        ref_engine.run()
        assert digest.hexdigest() == ref_digest.hexdigest()
        assert equal(engine.metrics.state_dict(),
                     ref_engine.metrics.state_dict())
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
                dummies += any(tx.cell is None for tx in engine._in_flight)
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
            engine.run()
        run = engine._parked
        assert type(run) is TokenRun
        outstanding = sum(column.size - 1 for column in run.ledger)
        ledger_bytes = sum(column.nbytes for column in run.ledger)
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

    def test_full_scan_and_failed_links_are_told_apart(self):
        scan = _build("vector", 144, 2, "none", 1)
        scan.force_full_scan = True
        assert self._reason(scan) == "force_full_scan=True"
        assert scan.failed_links == set()
        failed = _build("vector", 144, 2, "none", 1)
        failed.failed_links.add((0, 1))
        assert self._reason(failed) == "failed links present"

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
        # a control message no cc=none column carries, on the wire
        sent = next(tx for tx in headers._in_flight if tx.cell is not None)
        sent.ctrl = (node_mod.ControlMessage("pull", 0, sent.sender,
                                             sent.receiver),)
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


def _staggered_flows(cfg, seed, waves=5, gap=97):
    """Permutation waves ``gap`` slots apart, sorted by arrival."""
    flows = []
    for wave in range(waves):
        wave_cfg = SimConfig(n=cfg.n, h=cfg.h, seed=seed + wave)
        flows.extend((wave * gap, src, dst, cells, size) for _, src, dst,
                     cells, size in permutation_workload(wave_cfg, 60))
    return flows


@pytest.fixture
def nodes_built(monkeypatch):
    """The ids of every ``Node`` constructed while the test runs."""
    built = []
    construct = node_mod.Node.__init__

    def counting(node, node_id, engine):
        built.append(node_id)
        construct(node, node_id, engine)

    monkeypatch.setattr(node_mod.Node, "__init__", counting)
    return built


@pytest.fixture
def packs(monkeypatch):
    """One entry per ``pack()`` of any slab run while the test runs."""
    calls = []
    pack = vector_mod._VectorRun.pack
    monkeypatch.setattr(
        vector_mod._VectorRun, "pack",
        lambda run, model: (calls.append(type(run).__name__),
                            pack(run, model))[1],
    )
    return calls


class TestResidentSlab:
    """The packed run is the engine's state between ``advance`` calls and
    the object model exists only once something reads it — invisible
    except in cost: after every advance a snapshot (taken from the columns,
    nothing built) equals the object run's, and so do the nodes and the
    wire once read."""

    @pytest.mark.parametrize("cc", ["none", "hbh+spray"])
    def test_simulate_never_builds_the_object_model(self, cc, no_floor,
                                                    nodes_built):
        reference, _ = _run("object", 64, 2, cc, 11)
        del nodes_built[:]
        cfg = _build("vector", 64, 2, cc, 11).config
        result = simulate(cfg, permutation_workload(cfg, 25), digest=True)
        engine = result.engine
        engine.run_until_quiescent(max_extra=20_000)
        assert engine.backend_effective == "vector"
        assert _trace(engine) == reference
        assert engine.model_syncs == 0 and not nodes_built
        # the first read builds it, once, equal to the object run's
        engine.nodes
        assert engine.model_syncs == 1
        assert sorted(nodes_built) == list(range(64))
        assert _trace(engine) == reference and engine.model_syncs == 1

    @pytest.mark.parametrize("cc", ["none", "spray-short", "hbh+spray"])
    @pytest.mark.parametrize("stride", [1, 7, 256])
    def test_slicing_is_invisible(self, cc, stride, no_floor, packs,
                                  nodes_built):
        """One ``run(T)`` against slices of ``stride`` slots with the
        flows of each slice scheduled just before it (what a live session
        does): same engine-level state after the last slice, one pack."""
        horizon = 600
        cfg = _build("object", 64, 2, cc, 5).config
        flows = _staggered_flows(cfg, 5)
        whole = Engine(cfg, workload=flows)
        whole.enable_digest()
        whole.run(horizon)
        del packs[:], nodes_built[:]
        sliced = Engine(_build("vector", 64, 2, cc, 5).config)
        sliced.enable_digest()
        cursor = 0
        while sliced.t < horizon:
            target = min(horizon, sliced.t + stride)
            upto = cursor
            while upto < len(flows) and flows[upto][0] < target:
                upto += 1
            sliced.schedule_flows(flows[cursor:upto])
            cursor = upto
            sliced.run(target - sliced.t)
        assert _trace(sliced) == _trace(whole)
        assert len(packs) == 1 and not nodes_built
        assert sliced.model_syncs == 0
        assert sliced.backend_effective == "vector"
        sliced.nodes
        assert _trace(sliced) == _trace(whole)

    def _twins(self, cc, seed=8, backends=("object", "vector")):
        # flows long enough to be mid-send at every cut of these tests
        engines = [_build(backend, 64, 2, cc, seed, duration=500,
                          size_cells=200)
                   for backend in backends]
        for engine in engines:
            engine.enable_digest()
            engine.run(120)
        return engines

    @pytest.mark.parametrize("cc", ["none", "hbh+spray"])
    def test_manual_step_materialises_once(self, cc, no_floor):
        reference, engine = self._twins(cc)
        # mid-run maxima are the metrics', nothing is built
        summary = engine.metrics.summary()
        assert summary == reference.metrics.summary()
        assert summary["max_queue_length"] and summary["max_buffer"]
        assert bool(summary["max_active_buckets"]) == (cc == "hbh+spray")
        assert engine.model_syncs == 0
        for twin in (reference, engine):
            for _ in range(5):
                twin.step()
        assert engine.model_syncs == 1
        assert _trace(engine) == _trace(reference)
        for twin in (reference, engine):
            twin.run(100)       # packs again, from the object model
            twin.run(100)
        assert _trace(engine) == _trace(reference)
        assert engine.model_syncs == 1
        assert engine.backend_effective == "vector"

    @pytest.mark.parametrize("cc", ["none", "spray-short", "hbh+spray"])
    def test_snapshot_is_read_off_the_columns(self, cc, no_floor,
                                              nodes_built):
        reference, engine, twin = self._twins(
            cc, backends=("object", "vector", "vector"))
        del nodes_built[:]
        state = engine.snapshot().state
        assert not nodes_built
        assert engine._parked is not None and engine.model_syncs == 0
        # mid-run: cells queued and in flight — and, under hop-by-hop,
        # spent credit and tokens on their way back
        model = state["nodes"]
        assert len(model["wire"]) and len(model["cells"]) > len(model["wire"])
        assert model["queues"][:, tables.col("queues", "len")].any()
        if cc == "hbh+spray":
            assert model["ledger"][:, tables.col("ledger", "spent")].all()
            assert len(model["tokens"]) and len(model["wire_tokens"])
        # integer tables through and through, every one the schema names
        assert set(model) == set(tables.TABLES)
        assert all(held.dtype == np.int64
                   and held.shape[1:] == (len(tables.TABLES[name]),)
                   for name, held in model.items())
        # the same state, every key, as a snapshot of the loaded objects
        twin.nodes
        assert twin.model_syncs == 1 and twin._parked is None
        assert equal(twin.snapshot().state, state)
        # ... and as the object run's, every table
        assert equal(reference.snapshot().state["nodes"], model)
        assert _trace(engine) == _trace(reference)

    @pytest.mark.parametrize("cc", ["none", "spray-short", "hbh+spray"])
    def test_restore_continues_on_the_slab(self, cc, no_floor, nodes_built,
                                           packs):
        """Was ``test_snapshot_materialises_once_and_restores``: neither a
        snapshot nor a restore builds a node any more."""
        reference, engine = self._twins(cc)
        checkpoint = engine.snapshot()
        # restoring onto a parked run drops the run
        parked = _build("vector", 64, 2, cc, 8, duration=500,
                        size_cells=200)
        parked.run(40)
        assert parked._parked is not None
        del nodes_built[:], packs[:]
        restored = restore_engine(checkpoint)
        apply_checkpoint(parked, checkpoint)
        assert parked._parked is None
        for twin in (restored, parked):
            # engine-level reads answer from the pending plain model
            assert twin.metrics.summary() == reference.metrics.summary()
            assert twin.throughput() == reference.throughput()
            assert _trace(twin) == _trace(reference)
        for twin in (reference, engine, restored, parked):
            twin.run(380)
        assert not nodes_built and len(packs) == 2
        for twin in (engine, restored, parked):
            assert twin.backend_effective == "vector"
            assert twin.backend_reason == "" and twin.model_syncs == 0
            assert _trace(twin) == _trace(reference)
        # the first read loads the nodes, equal to the object run's
        restored.nodes
        assert restored.model_syncs == 1
        assert _trace(restored) == _trace(reference)

    def test_a_restored_failed_node_is_seen_without_building_it(
            self, no_floor, nodes_built):
        reference, engine = self._twins("none")
        for twin in (reference, engine):
            twin.nodes[3].failed = True
        del nodes_built[:]
        restored = restore_engine(engine.snapshot())
        alive = restored.metrics.mean_throughput_cells_per_slot(
            restored.t, 63)
        assert restored.throughput() == reference.throughput() == alive
        assert not nodes_built
        for twin in (reference, engine, restored):
            twin.run(50)
        # declined by the same scan, over plain fields, with the reason
        # the built objects give
        assert restored.backend_reason == engine.backend_reason \
            == "node 3 carries non-vectorizable state"
        assert restored.backend_effective == "object"
        assert _trace(restored) == _trace(engine) == _trace(reference)

    @pytest.mark.parametrize("cc", ["none", "hbh+spray"])
    def test_monitor_attached_mid_run_materialises_once(self, cc, no_floor):
        reference, engine = self._twins(cc)
        monitors = [RunMonitor(strict=True).attach(twin)
                    for twin in (reference, engine)]
        assert engine.model_syncs == 0      # attaching reads no node
        for twin in (reference, engine):
            twin.run(200)
            twin.run(180)
        assert engine.model_syncs == 1
        assert engine.backend_reason == "monitor attached"
        assert monitors[0].checks == monitors[1].checks > 0
        assert _trace(engine) == _trace(reference)

    @pytest.mark.parametrize("cc", ["none", "spray-short", "hbh+spray"])
    def test_engine_level_changes_between_slices_do_not_materialise(
            self, cc, no_floor, packs, nodes_built):
        """A digest or profiler enabled between slices is picked up by the
        next one, and an engine RNG somebody else drew from is mirrored
        again — all on the parked run."""
        engines = [_build(backend, 64, 2, cc, 8, duration=500,
                          size_cells=200)
                   for backend in ("object", "vector")]
        del packs[:], nodes_built[:]
        for engine in engines:
            engine.run(90)
            engine.enable_digest()
            engine.run(90)
            engine.rng.random()
            engine.run(90)
            profiler = engine.enable_profiler()
            engine.run(90)
            assert profiler.steps == 90
        reference, engine = engines
        assert _trace(engine) == _trace(reference)
        assert engine.model_syncs == 0 and len(packs) == 1
        assert nodes_built == list(range(64))   # the object twin's

    def test_an_rng_the_slab_cannot_mirror_hands_back(self, no_floor):
        reference, engine = self._twins("none")
        for twin in (reference, engine):
            twin.rng.gauss(0.0, 1.0)    # leaves a cached second variate
            twin.run(100)
        assert engine.model_syncs == 1
        assert engine.backend_reason == "RNG holds a cached gauss() value"
        assert _trace(engine) == _trace(reference)

    def test_status_is_engine_level(self, nodes_built):
        cfg = _build("vector", 64, 2, "none", 3).config
        session = open_session(cfg, permutation_workload(cfg, 25),
                               digest=True, telemetry=True)
        session.advance(100)
        status = session.status()
        session.advance(100)
        assert status["model_syncs"] == session.status()["model_syncs"] == 0
        assert status["backend"] == "vector" and not nodes_built
        assert session.engine.throughput() > 0 and not nodes_built
        session.engine.step()
        assert session.status()["model_syncs"] == 1

    @pytest.mark.parametrize("cc", SLAB_MECHANISMS)
    def test_a_dropped_engine_frees_its_slab_at_once(self, cc, no_floor):
        """A parked run holds no reference back to its engine: no cycle
        keeps the slab of a finished run alive until the collector runs
        (a sweep would otherwise carry several engines' columns)."""
        engine = _build("vector", 64, 2, cc, 3)
        engine.run(50)
        engine.run(50)
        run = weakref.ref(engine._parked)
        gc.disable()
        try:
            del engine
            assert run() is None
        finally:
            gc.enable()

    def test_first_materialisation_is_logged_with_its_cause(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="repro.backend"):
            read = _build("vector", 16, 2, "none", 1)
            read.run(20)
            read.nodes
            read.run(20)
            read.nodes                  # a second sync is not news
            stepped = _build("object", 16, 2, "none", 1)
            stepped.step()
        assert (read.model_syncs, stepped.model_syncs) == (2, 1)
        causes = [record.getMessage().rsplit(" ", 1)[1]
                  for record in caplog.records
                  if record.name == "repro.backend"]
        assert causes == ["'nodes'", "'_in_flight'"]

    @pytest.mark.parametrize("cc", ["none", "spray-short"])
    def test_rng_replay_is_rebased_and_blocked(self, cc, no_floor,
                                               monkeypatch):
        """Both draw cursors (uniform spraying, tie-breaks) survive being
        synced every 1, 7 and 256 slots, and a replay cut into blocks: the
        engine RNG ends where the object run's does, and a sync replays
        the words drawn since the previous one, not the run's history."""
        replayed = []
        sync_rng = vector_mod._VectorRun._sync_rng
        monkeypatch.setattr(
            vector_mod._VectorRun, "_sync_rng",
            lambda run: (replayed.append(run.words_consumed),
                         sync_rng(run))[1],
        )

        def build(backend):
            return _build(backend, 64, 2, cc, 21, duration=520,
                          size_cells=150)

        reference = build("object")
        reference.run()
        expected = reference.rng.getstate()
        totals = []
        for stride in (1, 7, 256):
            del replayed[:]
            engine = build("vector")
            while engine.t < 520:
                engine.run(min(stride, 520 - engine.t))
            assert engine.rng.getstate() == expected, stride
            assert engine.model_syncs == 0
            totals.append(sum(replayed))
        del replayed[:]
        monkeypatch.setattr(vector_mod, "_REPLAY_BLOCK", 1_000)
        engine = build("vector")
        engine.run()
        assert engine.rng.getstate() == expected
        (words,) = replayed
        assert words > 2_000 and words % 1_000  # blocks and a remainder
        assert totals == [words] * 3


class TestSlabTables:
    """The slab's lookup tables and next hop come from the coordinate
    system, and nothing about them grows with n**2."""

    @pytest.mark.parametrize("schedule", schedule_names())
    @pytest.mark.parametrize("n,h", [(16, 1), (16, 2), (27, 3), (64, 2)])
    def test_tables_match_the_nodes_own(self, schedule, n, h):
        try:
            cfg = SimConfig(n=n, h=h, schedule=schedule, backend="vector")
        except ValueError:
            pytest.skip(f"{schedule} cannot build n={n}, h={h}")
        engine = Engine(cfg)
        tables = vector_mod._SlabTables(engine.schedule, engine.coords)
        # the loop the arithmetic replaced, kept here as the reference
        flat = [node.neighbors_flat for node in engine.nodes]
        assert tables.peer.T.tolist() == [list(row) for row in flat]
        assert tables.nbr.tolist() == [
            [row[link] for row in flat] for link in tables.link_table
        ]
        assert tables.link_table == [
            engine.nodes[0].link_index(phase, offset)
            for phase, offset in zip(engine.schedule.phase_table,
                                     engine.schedule.offset_table)
        ]
        peer, back, pair_key, pair_link = tables.links
        if back is not None:
            for link, reverse in enumerate(back.tolist()):
                assert all(flat[nb][reverse] == i
                           for i, nb in enumerate(peer[link].tolist()))

    @pytest.mark.parametrize("n,h", [(16, 1), (16, 2), (27, 3), (64, 2),
                                     (81, 4)])
    def test_next_hop_is_the_nodes_own(self, n, h):
        """Every (hint, receiver, dst) the slab can route — one direct
        cell each — takes ``Node._direct_link``'s hop."""
        engine = Engine(SimConfig(n=n, h=h, backend="vector"))
        run = vector_mod._VectorRun(
            engine, vector_mod._SlabTables(engine.schedule, engine.coords))
        rv, dd = (a.ravel() for a in np.meshgrid(
            np.arange(n), np.arange(n), indexing="ij"))
        away = rv != dd
        rv, dd = rv[away], dd[away]
        run._init_slab(rv.size)
        fc = np.arange(run.Ln, run.Ln + rv.size)
        nodes = engine.nodes
        # every cell of a batch carries its send slot's hint; the link
        # taken fixes the next one (its phase + 1)
        for hint in range(h):
            link = run._next_hops(
                fc, rv, dd, np.zeros(rv.size, dtype=bool), hint)
            expected = [nodes[i]._direct_link(d, hint)
                        for i, d in zip(rv.tolist(), dd.tolist())]
            assert link.tolist() == expected, hint

    def test_tables_are_linear_in_n(self):
        """No table grows with n**2: at n=1296, h=2 every array the slab
        tables hold — ``links`` built too — is at most 4 * L * n int64s."""
        engine = Engine(SimConfig(n=1296, h=2, backend="vector"))
        tables = vector_mod._SlabTables(engine.schedule, engine.coords)
        assert tables.links[1] is not None
        held = []
        for value in vars(tables).values():
            held += value if isinstance(value, tuple) else [value]
        arrays = [a for a in held if isinstance(a, np.ndarray)]
        assert len(arrays) >= 5  # peer, nbr, back, pair_key, pair_link
        bound = 4 * (2 * (engine.coords.r - 1)) * 1296 * 8
        assert max(a.nbytes for a in arrays) <= bound

    def test_tables_die_with_their_run(self, monkeypatch):
        """Nothing outlives a run: its tables go with it, and the arrays
        it stepped with go with its engine."""
        built = []
        init = vector_mod._SlabTables.__init__

        def record(tables, schedule, coords):
            init(tables, schedule, coords)
            built.append((weakref.ref(tables), weakref.ref(tables.nbr)))

        monkeypatch.setattr(vector_mod._SlabTables, "__init__", record)
        cfg = SimConfig(n=64, h=2, duration=60, congestion_control="none",
                        backend="vector")
        result = simulate(cfg, permutation_workload(cfg, 10))
        assert result.engine.model_syncs == 0
        ((tables, nbr),) = built
        assert nbr() is not None  # the parked run still steps with it
        del result
        gc.collect()
        assert tables() is None and nbr() is None


class TestSlabPages:
    """The slab's arrays live on pages of their own (DESIGN.md §5): private,
    so a forked sweep cell or shard worker copies on write, and returned to
    the OS with their run, so a process that runs one simulation after
    another does not keep the largest slab it ever freed."""

    def test_a_forked_child_never_writes_its_parents_slab(self):
        engine = _build("vector", 144, 2, "none", 5)
        engine.run(60)
        run = engine._parked
        assert run is not None and run.free_top > 0
        arrays = (run._slab, run.c_nxt, run.free)
        before = [array.copy() for array in arrays]
        pid = os.fork()
        if pid == 0:  # pragma: no cover - the child exits at once
            try:
                for array in arrays:
                    array[...] = -7
            finally:
                os._exit(0)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0
        for array, copy in zip(arrays, before):
            assert np.array_equal(array, copy)

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="reads VmHWM from /proc/self/status")
    def test_a_second_run_does_not_ratchet_the_peak(self):
        """Four consecutive cc=none runs at n=1296 in a fresh process: the
        high-water mark after the fourth is within 5 MB of the first's.
        Slab arrays from malloc rose ≈ 12 MB here, as glibc's threshold
        moved the second run's slab onto the heap."""
        probe = textwrap.dedent("""
            from repro import SimConfig, simulate
            from repro.workloads import permutation_workload

            def hwm():
                with open("/proc/self/status") as status:
                    for line in status:
                        if line.startswith("VmHWM:"):
                            return int(line.split()[1]) / 1024

            marks = []
            for _ in range(4):
                config = SimConfig(n=1296, h=2, duration=300,
                                   congestion_control="none",
                                   backend="vector")
                simulate(config, permutation_workload(config, 10 ** 6))
                marks.append(hwm())
            print(*marks)
        """)
        src = pathlib.Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.run([sys.executable, "-c", probe], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        marks = [float(mark) for mark in proc.stdout.split()]
        assert marks[-1] - marks[0] <= 5.0, marks


class TestFirstHopCharge:
    """A first-hop admission whose neighbour is the destination charges a
    bucket the destination never credits: it delivers the cell and returns
    no token, so the charge outlives every cell (ROADMAP item 9).  Pinned
    as it stands on both pipelines until the fix lands with new goldens."""

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="the direct-delivery first-hop "
                       "charge is never returned (ROADMAP item 9)")
    @pytest.mark.parametrize("backend", ("object", "vector"))
    def test_no_charge_to_the_destination_outlives_the_run(self, backend,
                                                           no_floor):
        engine = _build(backend, 16, 2, "hbh+spray", 3)
        engine.run()
        engine.run_until_quiescent(max_extra=20_000)
        assert engine.backend_effective == backend
        ledger = engine.snapshot().state["nodes"]["ledger"]
        to_dest = (ledger[:, tables.col("ledger", "neighbor")]
                   == ledger[:, tables.col("ledger", "dest")])
        assert not to_dest.any(), f"{to_dest.sum()} of {len(ledger)} rows"


class TestLongPropagationDelays:
    """No cell keeps its next spray phase: the receiver reads it off the
    link the cell came in on (the send slot's phase plus one), and the
    slab off the batch's send slot.  With a propagation delay that is not
    a multiple of the phase length the arrival slot's phase is another
    one, so taking it instead would skip a coordinate of the spraying
    semi-path — an illegal path, and a run the slab no longer matches."""

    @settings(max_examples=12, deadline=None)
    @given(cc=st.sampled_from(SLAB_MECHANISMS), h=st.sampled_from((2, 3)),
           above_floor=st.booleans(), delay=st.integers(0, 40),
           seed=st.integers(0, 2**16))
    def test_paths_and_digests_hold_at_any_delay(self, cc, h, above_floor,
                                                 delay, seed):
        n = {2: (64, 144), 3: (64, 125)}[h][above_floor]
        assert (n >= VectorBackend.TOKEN_SLAB_MIN_N) == above_floor
        digests = {}
        for backend in ("object", "vector"):
            cfg = SimConfig(n=n, h=h, duration=150, seed=seed,
                            propagation_delay=delay, congestion_control=cc,
                            backend=backend)
            engine = Engine(cfg, workload=permutation_workload(cfg, 12))
            engine.enable_digest()
            if backend == "object":
                tracer = CellTracer.attach(engine)
            engine.run()
            engine.run_until_quiescent(max_extra=2_000)
            digests[backend] = engine.digest.hexdigest()
        assert engine.backend_effective == \
            ("vector" if above_floor or cc == "none" else "object")
        assert digests["object"] == digests["vector"]
        completed = tracer.completed()
        assert completed
        for trace in completed:
            validate_trace(trace, engine.schedule)


class TestExportedModels:
    """A slab run exported mid-run is the object run's plain model at the
    same slot, table by table — bare headers on the wire, the per-node
    PIEO peaks and, after hop-by-hop's mid-list picks, FIFO order."""

    @pytest.mark.parametrize("cc", SLAB_MECHANISMS)
    @pytest.mark.parametrize("n,h", ((144, 2), (256, 2), (125, 3), (216, 3)))
    def test_export_is_the_object_model(self, cc, n, h, monkeypatch):
        mid_list = []
        pick = TokenRun._pick

        def recording(run, link, ids, nb):
            picked = pick(run, link, ids, nb)
            mid_list.append(bool((picked[2] >= run.Ln).any()))
            return picked

        monkeypatch.setattr(TokenRun, "_pick", recording)
        models = {}
        for backend in ("object", "vector"):
            engine = _build(backend, n, h, cc, 7, size_cells=60,
                            duration=10**6)
            engine.run(150)
            models[backend] = engine._plain_model()
        assert engine.backend_effective == "vector", engine.backend_reason
        assert engine.model_syncs == 0
        for name in tables.TABLES:
            assert equal(models["object"][name], models["vector"][name]), name
        wire = models["vector"]["wire"]
        payload = wire[:, tables.col("wire", "payload")]
        assert len(models["vector"]["cells"]) \
            == models["vector"]["queues"].sum() + payload.sum()
        # the token family returns credit in bare headers
        assert (payload == 0).any() == (cc in ("hop-by-hop", "hbh+spray"))
        assert engine.metrics.max_queue_length > 1
        assert any(mid_list) == (cc in ("hop-by-hop", "hbh+spray"))


class TestCellLayout:
    """One cell layout, written three times: ``Cell.state()``, the plain
    model's ``cells`` table and the slab's records — rows of that table,
    nine int64 fields, read through one column view per field (the list
    pointer ``nxt`` is a column of its own)."""

    #: slab column -> the ``Cell`` field it holds
    SLAB_FIELD = {
        "c_src": "src", "c_dst": "dst", "c_fid": "flow_id", "c_seq": "seq",
        "c_sprays": "sprays_remaining", "c_prev": "prev_hop",
        "c_created": "created_at", "c_fsize": "flow_size", "c_hops": "hops",
    }

    def test_every_field_lands_where_its_name_says(self):
        names = tuple(tables.TABLES["cells"])
        assert sorted(names) == sorted(self.SLAB_FIELD.values())
        # a cell holding a value of its own in every field
        values = {name: 100 + i for i, name in enumerate(names)}
        cell = Cell(0, 0)
        for name, value in values.items():
            setattr(cell, name, value)
        state = cell.state()
        assert state == tuple(values[name] for name in names)
        restored = Cell.from_state(state)
        assert {name: getattr(restored, name) for name in names} == values

        # a queued ``cells`` row packs into a slab record that *is* the
        # row, every column view reads its own field of it, and the
        # export gives the row back unchanged
        engine = Engine(SimConfig(n=16, h=2, congestion_control="none",
                                  backend="vector"))
        run = vector_mod._VectorRun(
            engine, vector_mod._SlabTables(engine.schedule, engine.coords))
        model = tables.idle(16, run.L)
        model["queues"][0, tables.col("queues", "len")] = 1
        model["cells"] = np.array([state], dtype=np.int64)
        assert run.pack(model) is None
        row = run.Ln  # the first row past the queue sentinels
        assert run._slab[row].tolist() == list(state)
        assert run._slab[row].nbytes == 72
        for column, field in self.SLAB_FIELD.items():
            assert getattr(run, column)[row] == values[field], column
        assert run.export_model()["cells"].tolist() == [list(state)]

        # delivering the record folds the object hook's event, field by
        # field
        class Recording(DeterminismDigest):
            __slots__ = ("seen",)

            def __init__(self):
                super().__init__()
                self.seen = []

            def _fold(self, ints):
                self.seen.append(list(ints))

            def fold_table(self, ev, widths=None):
                self.seen += [fields[:width] for fields, width
                              in zip(ev.tolist(), widths.tolist())]

        expected = Recording()
        expected.on_delivery(cell, 7)
        engine.digest = Recording()
        run._ensure_flow(values["flow_id"])
        run._arrive(7, np.array([row]), np.array([values["dst"]]),
                    np.zeros(1, dtype=bool), 0)
        run.sync()
        assert engine.digest.seen == expected.seen


class TestDigestBuffer:
    """Deliveries and token headers share one buffer of digest rows, in
    the order the object pipeline folds them, folded a block at a time and
    at every sync — so where a block ends is invisible."""

    def test_blocks_fold_in_event_order(self, monkeypatch):
        # above the size floor, and two token slots per header so delivery
        # and token rows have different widths
        config = dict(n=144, h=2, seed=4, propagation_delay=4,
                      congestion_control="hbh+spray", tokens_per_header=2)
        assert config["n"] >= VectorBackend.TOKEN_SLAB_MIN_N
        flows = permutation_workload(SimConfig(**config), 40)
        slices = (1, 37, 50, 2, 150)
        folds = []
        fold_table = DeterminismDigest.fold_table
        monkeypatch.setattr(
            DeterminismDigest, "fold_table",
            lambda digest, ev, widths=None: (
                folds.append(widths if widths is None else widths.copy()),
                fold_table(digest, ev, widths))[1])

        def digests(backend, block=None):
            if block is not None:
                monkeypatch.setattr(vector_mod, "_DIGEST_BLOCK", block)
            engine = Engine(SimConfig(**config, backend=backend),
                            workload=flows)
            engine.enable_digest()
            seen = []
            for k in slices:
                engine.run(k)
                seen.append((engine.digest.value, engine.digest.events))
            if backend == "vector":
                assert engine.backend_effective == "vector"
                assert engine.model_syncs == 0
            return seen

        reference = digests("object")
        default = digests("vector")
        del folds[:]
        tiny = digests("vector", block=3)
        assert tiny == default == reference
        # blocks of three rows cut the run into far more folds than there
        # are slices, and some fold both kinds of row at once
        assert len(folds) > 10 * len(slices)
        assert any((widths == 7).any() and (widths > 7).any()
                   for widths in folds)


class TestTokenHeaders:
    """Every header size the slab accepts, straight and resumed from a
    file: a header carries up to ``tokens_per_header`` tokens, and a node
    that owes tokens but sends no cell sends them in a bare header."""

    SLOTS = 240
    CUTS = (90, 170)

    def _engine(self, backend, n, h, cc, tph):
        engine = _build(backend, n, h, cc, 11, size_cells=80,
                        duration=self.SLOTS, tokens_per_header=tph)
        engine.enable_digest()
        return engine

    @staticmethod
    def _outcome(engine):
        return (engine.digest.hexdigest(), engine.digest.events,
                engine.metrics.payload_cells_delivered,
                engine.metrics.max_active_buckets)

    @pytest.mark.parametrize("n,h", ((144, 2), (125, 3)))
    @pytest.mark.parametrize("cc", ("hop-by-hop", "hbh+spray"))
    @pytest.mark.parametrize("tph", (1, 2, 3))
    def test_headers_match_the_object_pipeline(self, tph, cc, n, h,
                                               tmp_path):
        assert n >= VectorBackend.TOKEN_SLAB_MIN_N
        reference = self._engine("object", n, h, cc, tph)
        reference.run()
        expected = self._outcome(reference)
        straight = self._engine("vector", n, h, cc, tph)
        straight.run()
        assert straight.backend_effective == "vector", \
            straight.backend_reason
        assert straight.model_syncs == 0
        assert self._outcome(straight) == expected
        for cut in self.CUTS:
            engine = self._engine("vector", n, h, cc, tph)
            engine.run(cut)
            model = engine.snapshot().state["nodes"]
            # the cut lands on headers in flight: bare ones, and (when a
            # header holds more than one) ones carrying several tokens
            wire = model["wire"]
            assert (wire[:, tables.col("wire", "payload")] == 0).any()
            per_header = np.bincount(model["wire_tokens"][:, 0])
            assert (per_header.max() > 1) == (tph > 1)
            path = tmp_path / f"{cut}.ckpt"
            save_checkpoint(engine.snapshot(), path)
            resumed = restore_engine(load_checkpoint(path))
            resumed.run(self.SLOTS - cut)
            assert resumed.backend_effective == "vector"
            assert resumed.model_syncs == 0
            assert self._outcome(resumed) == expected, cut


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
