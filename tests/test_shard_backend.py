"""Shard backend equivalence: K worker processes, bit-exact with one.

The contract (ISSUE 9 / DESIGN.md §12): the ``"shard"`` backend partitions
nodes across a pool of worker processes along EBS phase-group boundaries
and exchanges cross-shard cells through deterministic per-slot mailboxes —
and for *every* shard count the run is bit-exact with single-process
execution: identical :class:`~repro.sim.digest.DeterminismDigest` streams,
identical metrics/flow tables, identical RNG consumption.  Shard count is
therefore an execution detail, never an identity: cell-cache keys ignore
it, and checkpoints split per shard compose back into one resumable run.
"""

import os
import signal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.backends import default_shards, set_default_shards
from repro.sim.backends.shard import ShardBackend, shard_ranges
from repro.sim.cellcache import CellCache
from repro.sim.checkpoint import (
    load_checkpoint,
    save_checkpoint,
    restore_engine,
    snapshot_engine,
)
from repro.sim.config import SimConfig
from repro.sim.engine import Engine
from repro.sim.parallel import get_shard_pool, shutdown_shard_pools
from repro.workloads.generators import permutation_workload

from .equivalence import equal, run_state

pytestmark = [pytest.mark.backends, pytest.mark.shard]

MECHANISMS = ("none", "hop-by-hop", "hbh+spray", "isd")

#: (n, h) pairs with integral radix r = n**(1/h)
TOPOLOGIES = ((16, 1), (16, 2), (64, 1), (64, 2), (64, 3))


@pytest.fixture()
def shards():
    """Restore the ambient shard count (and pools) around each test."""
    previous = default_shards()
    yield set_default_shards
    set_default_shards(previous)


def _build(backend, n, h, cc, seed, size_cells=25, duration=300):
    cfg = SimConfig(
        n=n, h=h, duration=duration, seed=seed, propagation_delay=4,
        congestion_control=cc, backend=backend,
    )
    return Engine(cfg, workload=permutation_workload(cfg, size_cells))


def _trace(backend, n, h, cc, seed=7):
    engine = _build(backend, n, h, cc, seed)
    engine.enable_digest()
    engine.run()
    engine.run_until_quiescent(max_extra=20_000)
    return run_state(engine)


#: vector-backend golden traces, computed once per (n, h, cc)
_BASELINES = {}


def _baseline(n, h, cc):
    key = (n, h, cc)
    if key not in _BASELINES:
        _BASELINES[key] = _trace("vector", n, h, cc)
    return _BASELINES[key]


class TestGoldenEquivalence:
    """Every golden trace, bit-exact on the shard backend."""

    @pytest.mark.parametrize("cc", MECHANISMS)
    @pytest.mark.parametrize("n,h", TOPOLOGIES)
    def test_golden_matrix_4_shards(self, shards, n, h, cc):
        shards(4)
        assert _trace("shard", n, h, cc) == _baseline(n, h, cc)

    @pytest.mark.parametrize("count", [1, 2])
    @pytest.mark.parametrize("n,h", TOPOLOGIES)
    def test_shard_counts_eligible(self, shards, count, n, h):
        # cc="none" is the multi-process-eligible pipeline; the other
        # mechanisms fall back to the reference path before sharding, so
        # their traces cannot depend on the count (covered above at K=4)
        shards(count)
        assert _trace("shard", n, h, "none") == _baseline(n, h, "none")

    def test_dispatch_engages(self, shards):
        # guard against silently "passing" by never sharding at all
        shards(4)
        engine = _build("shard", 64, 2, "none", 3)
        engine.run()
        assert isinstance(engine.backend, ShardBackend)
        assert engine.backend.dispatches > 0
        assert engine.backend_effective == "shard"

    def test_token_family_runs_the_in_process_slab(self, shards,
                                                   slab_floor):
        # shard workers carry no token columns: above the size floor
        # hbh+spray steps on the parent's own slab — still accelerated, so
        # not a reference fallback — and never scatters
        shards(4)
        engine = _build("shard", 64, 2, "hbh+spray", 3)
        digest = engine.enable_digest()
        engine.run()
        assert engine.backend_effective == "shard"
        assert engine.backend_reason == ""
        assert engine.backend.dispatches == 0
        reference = _build("object", 64, 2, "hbh+spray", 3)
        ref_digest = reference.enable_digest()
        reference.run()
        assert digest.hexdigest() == ref_digest.hexdigest()
        assert digest.events == ref_digest.events
        assert equal(engine.metrics.state_dict(),
                     reference.metrics.state_dict())

    def test_reference_fallback_is_recorded(self, shards):
        shards(4)
        engine = _build("shard", 16, 2, "isd", 3)
        engine.run(50)
        assert engine.backend_effective == "object"

    def test_a_value_past_a_32_bit_record_is_declined(self, shards):
        """The workers' slabs are the vector slab's int32 records: a flow
        of 2**31 cells never scatters, and the run says why."""
        shards(4)
        states = {}
        for backend in ("object", "shard"):
            engine = _build(backend, 64, 2, "none", 3)
            engine.enable_digest()
            engine.schedule_flows([(5, 0, 9, 2 ** 31, 0)])
            engine.run(60)
            states[backend] = run_state(engine)
        assert engine.backend.dispatches == 0
        assert engine.backend_effective == "object"
        assert engine.backend_reason == \
            "a flow of 2147483648 cells does not fit a 32-bit slab record"
        assert states["shard"] == states["object"]


class TestShardCountInvariance:
    @settings(max_examples=6, deadline=None)
    @given(
        count=st.integers(min_value=1, max_value=5),
        n=st.sampled_from((16, 64)),
        cc=st.sampled_from(MECHANISMS),
    )
    def test_any_count_matches_single_process(self, count, n, cc):
        previous = default_shards()
        try:
            set_default_shards(count)
            assert _trace("shard", n, 2, cc) == _baseline(n, 2, cc)
        finally:
            set_default_shards(previous)


class TestShardRanges:
    def test_tiles_node_space(self):
        for n, r in ((64, 8), (81, 3), (16, 4)):
            for count in (1, 2, 3, 4, 7):
                ranges = shard_ranges(n, r, count)
                assert ranges[0][0] == 0 and ranges[-1][1] == n
                for (a, b), (c, _) in zip(ranges, ranges[1:]):
                    assert b == c and a < b

    def test_block_alignment(self):
        # when count <= r, boundaries land on digit-0 block multiples so
        # one EBS phase of every epoch is shard-local traffic
        for count in (2, 4, 8):
            for lo, hi in shard_ranges(64, 8, count):
                assert lo % 8 == 0 and hi % 8 == 0


class TestCacheKeys:
    def test_key_shard_invariant(self, shards, tmp_path):
        cache = CellCache(tmp_path)
        kwargs = {"n": 64, "h": 2, "congestion_control": "none",
                  "backend": "shard", "seed": 3}
        shards(1)
        key_one = cache.key_for(_build, kwargs)
        shards(4)
        key_four = cache.key_for(_build, kwargs)
        assert key_one == key_four


class TestShardedCheckpoints:
    def test_kill_one_shard_resume_bit_exact(self, shards, tmp_path):
        """Kill a shard worker mid-run; resume from the snapshot.

        The resumed run must replay to the exact trace of an uninterrupted
        one — the respawned worker pool, the checkpoint and the mailbox
        protocol all have to agree for this to hold.
        """
        shards(3)
        baseline = _trace("shard", 64, 2, "none", 11)

        # interrupted run: snapshot at slot 150, then one shard worker
        # dies (SIGKILL, as a crashed shard would)
        engine = _build("shard", 64, 2, "none", 11)
        engine.enable_digest()
        engine.run(150)
        # mark the snapshot as taken inside run loop 0 ending at slot 300
        # (what the periodic CheckpointWriter records), so the resumed
        # engine's run() stops where the uninterrupted one would
        path = tmp_path / "shard.ckpt"
        save_checkpoint(snapshot_engine(engine, loop=(0, 300)), path)
        from repro.sim.backends.shard import _shard_worker_main

        pool = get_shard_pool(3, _shard_worker_main)
        os.kill(pool.procs[1].pid, signal.SIGKILL)
        pool.procs[1].join(timeout=10.0)

        # resume: drive the rebuilt engine to completion on the shard
        # backend
        engine = restore_engine(load_checkpoint(path))
        engine.run()
        engine.run_until_quiescent(max_extra=20_000)
        assert run_state(engine) == baseline


class TestFlowCounterPreload:
    def test_each_advance_hands_the_flows_it_can_deliver(self, shards,
                                                         monkeypatch):
        """Flows arriving all through the run: every advance hands the
        workers the delivered counts of the flows active or arriving
        before its end slot, not of every flow still pending, and the run
        is the vector run."""
        handed = []
        scatter = ShardBackend._scatter

        def spy(self, engine, t0, end, drain, ranges):
            out = scatter(self, engine, t0, end, drain, ranges)
            if out is not None:
                flows, pending = engine.flows, engine._pending_flows
                arriving = [flows._next_id + off
                            for off, flow in enumerate(pending)
                            if flow[0] < end]
                ids = [fid for task in out[0] for fid, _ in task["fdel"]]
                assert sorted(ids) == sorted(flows._active) + arriving
                handed.append(len(pending) - len(arriving))
            return out

        monkeypatch.setattr(ShardBackend, "_scatter", spy)
        shards(2)
        states = []
        for backend in ("vector", "shard"):
            cfg = SimConfig(n=64, h=2, duration=400, seed=5,
                            propagation_delay=4, congestion_control="none",
                            backend=backend)
            workload = sorted(
                flow for arrival in range(0, 400, 40)
                for flow in permutation_workload(cfg, 6, arrival=arrival))
            engine = Engine(cfg, workload=workload)
            engine.enable_digest()
            for _ in range(4):
                engine.run(100)
            engine.run_until_quiescent(max_extra=20_000)
            states.append(run_state(engine))
        assert states[0] == states[1]
        # some advance left flows pending past its end out
        assert max(handed) > 0


def teardown_module(module):
    shutdown_shard_pools()
