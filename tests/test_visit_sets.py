"""The per-link visit sets must be invisible in simulated behaviour.

``object_backend.run_tx`` visits, for the slot's link, only the nodes in
that link's visit set, and retires a node from it when the node owes the
link nothing; with ``force_full_scan`` every live node is offered every
slot and the sets are left alone.  Both call the same ``Node.transmit``, so
each case below runs twice and must produce identical delivery events,
digests and ``cells_sent``.  Unlike the saturated permutations of
``test_properties.TestEngineFastPathEquivalence``, these are the states
where nodes do leave sets: light Poisson load, failures and recovery, the
receiver-driven control plane, restored checkpoints, and hand-offs from
the slab and the shard workers into the object pipeline.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.failures import FailureEvent, LinkFailureEvent
from repro.failures.manager import FailureManager
from repro.sim.backends.vector import VectorBackend
from repro.sim.checkpoint import restore_engine
from repro.sim.config import SimConfig
from repro.sim.engine import Engine
from repro.sim.monitor import RunMonitor
from repro.workloads.distributions import ShortFlowDistribution
from repro.workloads.generators import permutation_workload, poisson_workload


def _poisson(cfg, load, duration=600):
    return poisson_workload(cfg, ShortFlowDistribution(), load,
                            duration=duration,
                            rng=random.Random(cfg.seed))


def _trace(engine, full_scan, stretches, between=None, hooked_from=0):
    """Run ``engine`` for each stretch in turn (``None`` = to quiescence),
    calling ``between(engine, i)`` before stretch ``i > 0``; it may hand
    back a replacement engine.  Deliveries are listed from stretch
    ``hooked_from`` on (a delivery hook keeps a run off the slab; the
    digest folds every delivery anyway).  Returns what the two scans must
    agree on."""
    engine.force_full_scan = full_scan
    digest = engine.enable_digest()
    events = []

    def hook(cell, t):
        events.append((t, cell.flow_id, cell.seq, cell.src, cell.dst))

    for i, slots in enumerate(stretches):
        if i and between is not None:
            engine = between(engine, i) or engine
            digest = engine.enable_digest()
        if i >= hooked_from:
            engine.delivery_hook = hook
        if slots is None:
            engine.run_until_quiescent(max_extra=20_000)
        else:
            engine.run(slots)
    return events, digest.hexdigest(), engine.metrics.cells_sent


def _assert_same(build, stretches, between=None, hooked_from=0):
    fast = _trace(build(), False, stretches, between, hooked_from)
    ref = _trace(build(), True, stretches, between, hooked_from)
    assert fast[0], "no cell was delivered: the case exercises nothing"
    assert fast == ref


class TestLightLoad:
    @settings(deadline=None, max_examples=20)
    @given(
        st.sampled_from([16, 64]),
        st.sampled_from([1, 2]),
        st.sampled_from(SimConfig.VALID_CC),
        st.floats(min_value=0.1, max_value=0.3),
        st.integers(min_value=0, max_value=2**16),
    )
    def test_poisson_short_flows_match_full_scan(self, n, h, cc, load, seed):
        cfg = SimConfig(n=n, h=h, duration=10**9, propagation_delay=2,
                        congestion_control=cc, seed=seed)
        _assert_same(lambda: Engine(cfg, workload=_poisson(cfg, load)),
                     [800])

    def test_ndp_control_plane_matches_full_scan(self):
        """Trims, pulls and rtx requests: a small queue limit under a
        permutation forces all three."""
        cfg = SimConfig(n=16, h=2, duration=10**9, propagation_delay=2,
                        congestion_control="ndp", seed=5, ndp_queue_limit=2)

        def build():
            return Engine(cfg, workload=permutation_workload(cfg, 60))

        _assert_same(build, [1500, None])
        engine = build()
        engine.run(1500)
        assert engine.metrics.control_messages and engine.metrics.cells_trimmed


class TestFailures:
    def test_link_flap_and_node_crash_match_full_scan(self):
        def build():
            manager = FailureManager(events=[
                LinkFailureEvent(200, 0, 1),
                LinkFailureEvent(700, 0, 1, failed=False),
                FailureEvent(400, 5, failed=True),
                FailureEvent(1100, 5, failed=False),
            ])
            cfg = SimConfig(n=16, h=2, duration=10**9, propagation_delay=2,
                            congestion_control="hbh+spray", seed=9)
            return Engine(cfg, workload=_poisson(cfg, 0.2, duration=1600),
                          failure_manager=manager)

        _assert_same(build, [2000])
        engine = build()
        engine.run(2000)
        assert engine.failure_manager.detections


class TestRestore:
    @pytest.mark.parametrize("cc", ["hbh+spray", "ndp", "none"])
    def test_snapshot_restore_mid_run_matches_full_scan(self, cc):
        """A restore re-enters every node the snapshot lists on every link;
        the run goes on exactly as the uninterrupted full scan."""
        cfg = SimConfig(n=16, h=2, duration=10**9, propagation_delay=2,
                        congestion_control=cc, seed=4)

        def restore(engine, i):
            return restore_engine(engine.snapshot())

        _assert_same(lambda: Engine(cfg, workload=_poisson(cfg, 0.2)),
                     [300, 500], restore)


class TestHandOffs:
    def test_slab_to_object_hand_off_matches_full_scan(self):
        """n=144 hbh+spray steps on the slab until a monitor is attached;
        the object pipeline then runs from the slab's export, whose
        ``active_ids`` enter every link's set."""
        assert 144 >= VectorBackend.TOKEN_SLAB_MIN_N
        cfg = SimConfig(n=144, h=2, duration=10**9, propagation_delay=2,
                        congestion_control="hbh+spray", seed=6,
                        backend="vector")

        pipelines = []

        def attach_monitor(engine, i):
            pipelines.append((engine.force_full_scan, engine.model_syncs))
            RunMonitor().attach(engine)

        _assert_same(lambda: Engine(cfg, workload=_poisson(cfg, 0.2,
                                                           duration=400)),
                     [200, 300], attach_monitor, hooked_from=1)
        # the fast run stayed on the slab until the monitor came
        assert pipelines == [(False, 0), (True, 1)]

    @pytest.mark.shard
    def test_shard_round_then_object_stretch_matches_full_scan(self):
        """The shard gather installs queues and flows on the objects; the
        nodes it lists must be on every link's set for the object stretch
        that follows."""
        from repro.sim.backends import default_shards, set_default_shards

        cfg = SimConfig(n=64, h=2, duration=10**9, propagation_delay=4,
                        congestion_control="none", seed=3, backend="shard")

        dispatches = []

        def attach_monitor(engine, i):
            dispatches.append(engine.backend.dispatches)
            RunMonitor().attach(engine)

        previous = default_shards()
        set_default_shards(2)
        try:
            _assert_same(lambda: Engine(cfg, workload=permutation_workload(
                cfg, 25)), [40, None], attach_monitor, hooked_from=1)
        finally:
            set_default_shards(previous)
        # the fast run's first stretch ran on the shard workers
        assert dispatches[0] and not dispatches[1]


class TestMemoryBound:
    def test_sets_empty_once_the_work_is_done(self):
        """After quiescence and one more visit of every link (tokens still
        owed ride on dummies for up to an epoch), no node is listed."""
        cfg = SimConfig(n=16, h=2, duration=10**9, propagation_delay=2,
                        congestion_control="hbh+spray", seed=2)
        engine = Engine(cfg, workload=_poisson(cfg, 0.3, duration=300))
        engine.run_until_quiescent(max_extra=20_000)
        assert engine.metrics.payload_cells_delivered
        epoch = engine.schedule.epoch_length
        engine.run(3 * epoch + cfg.propagation_delay)
        assert not any(engine._visit)
        assert not len(engine.snapshot().state["nodes"]["active_ids"])

    def test_fresh_engine_lists_only_the_nodes_with_flows(self):
        cfg = SimConfig(n=64, h=2, duration=10**9, propagation_delay=2,
                        congestion_control="hbh+spray", seed=2)
        sources = [3, 17, 40]
        engine = Engine(cfg, workload=[(0, s, (s + 1) % 64, 5, 1220)
                                       for s in sources])
        engine.step()
        assert set().union(*engine._visit) == set(sources)
        assert engine.snapshot().state["nodes"]["active_ids"][:, 0] \
            .tolist() == sources
