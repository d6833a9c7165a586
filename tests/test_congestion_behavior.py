"""Behavioural tests for each congestion-control mechanism.

These verify the *distinguishing* behaviour of each mechanism — the
properties the paper attributes to it — rather than just that flows finish.
"""

import pytest

from repro.congestion.mechanisms import (
    EVALUATION_ORDER,
    MECHANISMS,
    baseline_mechanisms,
    config_for,
    shale_mechanisms,
)
from repro.sim.config import SimConfig
from repro.sim.engine import Engine
from repro.workloads.generators import (
    incast_workload,
    permutation_workload,
    poisson_workload,
)
from repro.workloads.distributions import FixedSizeDistribution


def run_engine(cc, workload_fn, n=16, h=2, duration=4000, delay=2, **kw):
    cfg = SimConfig(
        n=n, h=h, duration=duration, propagation_delay=delay,
        congestion_control=cc, seed=21, **kw
    )
    engine = Engine(cfg, workload=workload_fn(cfg))
    engine.run()
    return engine


class TestRegistry:
    def test_all_mechanisms_registered(self):
        assert set(EVALUATION_ORDER) == set(MECHANISMS)
        assert set(EVALUATION_ORDER) == set(SimConfig.VALID_CC)

    def test_kind_partition(self):
        assert set(shale_mechanisms()) | set(baseline_mechanisms()) == set(
            MECHANISMS
        )
        assert "hbh+spray" in shale_mechanisms()
        assert "ndp" in baseline_mechanisms()

    def test_config_for(self):
        base = SimConfig(n=16, h=2)
        cfg = config_for("ndp", base)
        assert cfg.congestion_control == "ndp"
        assert cfg.n == base.n

    def test_config_for_unknown(self):
        with pytest.raises(ValueError):
            config_for("bbr", SimConfig(n=16, h=2))


class TestHopByHopInvariant:
    def test_outstanding_tokens_bounded_by_budget(self):
        """At all times, outstanding credit per (neighbour, bucket) <= T."""
        cfg = SimConfig(
            n=16, h=2, duration=2000, propagation_delay=2,
            congestion_control="hop-by-hop", token_budget=1, seed=2,
        )
        engine = Engine(cfg, workload=permutation_workload(cfg, 500))
        for _ in range(2000):
            engine.step()
            for node in engine.nodes:
                for spent in node.ledger._spent.values():
                    assert spent <= max(
                        cfg.token_budget,
                        cfg.first_hop_token_budget or cfg.token_budget,
                    )

    def test_bucket_queue_occupancy_invariant(self):
        """Paper Section 3.3.2: at most one cell per bucket per upstream
        neighbour enqueued at each node (with T=1)."""
        cfg = SimConfig(
            n=16, h=2, duration=3000, propagation_delay=2,
            congestion_control="hop-by-hop", seed=4,
        )
        engine = Engine(
            cfg, workload=incast_workload(cfg, 0, list(range(1, 10)), 200)
        )
        for _ in range(3000):
            engine.step()
            for node in engine.nodes:
                seen = {}
                for queue in node.link_queues:
                    for cell in queue:
                        key = (cell.prev_hop, cell.dst, cell.sprays_remaining)
                        seen[key] = seen.get(key, 0) + 1
                for key, count in seen.items():
                    assert count <= cfg.token_budget or key[0] == node.node_id, (
                        f"invariant violated at node {node.node_id}: {key} "
                        f"has {count} cells"
                    )

    def test_tokens_ride_headers_two_at_a_time(self):
        cfg = SimConfig(
            n=16, h=2, duration=2000, propagation_delay=2,
            congestion_control="hop-by-hop", tokens_per_header=2, seed=2,
        )
        engine = Engine(cfg, workload=permutation_workload(cfg, 500))
        max_tokens = 0
        for _ in range(1500):
            engine.step()
            for tx in engine._in_flight:
                max_tokens = max(max_tokens, len(tx.tokens))
        assert 0 < max_tokens <= 2


class TestSprayShort:
    def test_spray_short_prefers_short_queues(self):
        """Spray-short should produce lower max queue lengths than random
        spraying on a collision-heavy workload."""
        def wl(cfg):
            return poisson_workload(
                cfg, FixedSizeDistribution(244 * 20), load=0.22,
            )

        random_spray = run_engine("none", wl, duration=6000)
        short_spray = run_engine("spray-short", wl, duration=6000)
        assert (
            short_spray.metrics.max_queue_length
            <= random_spray.metrics.max_queue_length
        )

    def test_spray_short_does_not_hurt_throughput(self):
        """Paper: no observed throughput reduction from spray-short."""
        def wl(cfg):
            return permutation_workload(cfg, 8000)

        base = run_engine("none", wl, duration=8000, delay=0)
        spray = run_engine("spray-short", wl, duration=8000, delay=0)
        assert spray.throughput() >= 0.95 * base.throughput()


class TestIsd:
    def test_isd_caps_receiver_rate(self):
        """Total delivery rate to an incasted receiver stays near R."""
        cfg = SimConfig(
            n=16, h=2, duration=6000, propagation_delay=2,
            congestion_control="isd", isd_rate_factor=1.25, seed=9,
        )
        senders = list(range(1, 13))
        engine = Engine(cfg, workload=incast_workload(cfg, 0, senders, 500))
        engine.run()
        # an incast: every delivered cell is the receiver's
        rate = engine.metrics.payload_cells_delivered / cfg.duration
        cap = cfg.isd_rate_factor / (2 * cfg.h)
        assert rate <= cap * 1.15  # small slack for startup burstiness

    def test_isd_rate_splits_between_flows(self):
        """With clairvoyant fair sharing no sender can hog the receiver."""
        cfg = SimConfig(
            n=16, h=2, duration=5000, propagation_delay=2,
            congestion_control="isd", seed=9,
        )
        senders = [1, 2, 3, 4]
        engine = Engine(cfg, workload=incast_workload(cfg, 0, senders, 2000))
        engine.run()
        sent = {f.src: f.sent for f in engine.flows.active_flows()}
        if len(sent) == len(senders):
            values = sorted(sent.values())
            assert values[-1] <= 2 * max(1, values[0])


class TestReceiverDriven:
    def test_rd_pulls_are_generated(self):
        cfg = SimConfig(
            n=16, h=2, duration=4000, propagation_delay=2,
            congestion_control="rd", pull_batch=20, seed=3,
        )
        engine = Engine(cfg, workload=[(0, 0, 15, 200, 200 * 244)])
        engine.run_until_quiescent(max_extra=100_000)
        assert engine.metrics.control_messages > 0
        assert len(engine.flows.completed) == 1

    def test_rd_window_blocks_without_pulls(self):
        """A sender may not exceed initial window + pulled credit."""
        cfg = SimConfig(
            n=16, h=2, duration=200, propagation_delay=50,
            congestion_control="rd", initial_window=10, pull_batch=5, seed=3,
        )
        engine = Engine(cfg, workload=[(0, 0, 15, 500, 500 * 244)])
        # With 200 slots and 50-slot propagation, few pulls can return;
        # the flow must be window-limited near the initial window.
        engine.run()
        flow = next(iter(engine.flows.active_flows()))
        assert flow.sent <= 10 + flow.credit + 1

    def test_ndp_trims_under_pressure(self):
        cfg = SimConfig(
            n=16, h=2, duration=6000, propagation_delay=2,
            congestion_control="ndp", ndp_queue_limit=3, seed=3,
        )
        senders = list(range(1, 14))
        engine = Engine(cfg, workload=incast_workload(cfg, 0, senders, 400))
        engine.run()
        assert engine.metrics.cells_trimmed > 0

    def test_ndp_retransmits_trimmed_cells(self):
        cfg = SimConfig(
            n=16, h=2, duration=4000, propagation_delay=2,
            congestion_control="ndp", ndp_queue_limit=3, seed=3,
        )
        senders = list(range(1, 14))
        engine = Engine(cfg, workload=incast_workload(cfg, 0, senders, 100))
        engine.run_until_quiescent(max_extra=400_000)
        if engine.metrics.cells_trimmed:
            assert engine.metrics.retransmissions > 0
        # despite trimming, all flows eventually complete
        assert len(engine.flows.completed) == len(senders)

    def test_rd_never_trims(self):
        cfg = SimConfig(
            n=16, h=2, duration=4000, propagation_delay=2,
            congestion_control="rd", seed=3,
        )
        senders = list(range(1, 14))
        engine = Engine(cfg, workload=incast_workload(cfg, 0, senders, 200))
        engine.run()
        assert engine.metrics.cells_trimmed == 0


class TestPriority:
    def test_priority_favors_short_flows(self):
        """A short flow arriving during a long transfer should complete
        faster under priority than under none."""
        def wl(cfg):
            return [
                (0, 1, 0, 3000, 3000 * 244),     # elephant to node 0
                (500, 2, 0, 10, 10 * 244),       # mouse to the same node
            ]

        fcts = {}
        for cc in ("none", "priority"):
            cfg = SimConfig(
                n=16, h=2, duration=8000, propagation_delay=2,
                congestion_control=cc, seed=6,
            )
            engine = Engine(cfg, workload=wl(cfg))
            engine.run_until_quiescent(max_extra=100_000)
            mouse = [r for r in engine.flows.completed if r.size_cells == 10]
            assert mouse, f"mouse flow did not complete under {cc}"
            fcts[cc] = mouse[0].fct
        assert fcts["priority"] <= fcts["none"]


class TestHbhSprayCombination:
    def test_combined_beats_none_on_buffers(self):
        def wl(cfg):
            return incast_workload(cfg, 0, list(range(1, 13)), 300)

        none_run = run_engine("none", wl, duration=5000)
        combo = run_engine("hbh+spray", wl, duration=5000)
        assert (
            combo.metrics.max_buffer_occupancy
            < none_run.metrics.max_buffer_occupancy
        )

    def test_fifo_ablation_hol_blocking(self):
        """With FIFO queues instead of PIEO, hop-by-hop should deliver no
        more (and typically less) than with PIEO (head-of-line blocking)."""
        def wl(cfg):
            return incast_workload(cfg, 0, list(range(1, 13)), 400)

        pieo = run_engine("hop-by-hop", wl, duration=5000)
        fifo = run_engine("hop-by-hop", wl, duration=5000,
                          use_fifo_for_hbh=True)
        assert (
            fifo.metrics.payload_cells_delivered
            <= pieo.metrics.payload_cells_delivered
        )
