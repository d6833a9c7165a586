"""Tests for failure detection, invalidation and rerouting.

Detection is cell-driven: a neighbour is declared down only after
``detection_epochs`` consecutive missed cells (plus propagation delay), so
tests run the engine past the detection transient before asserting.  For
n=16, h=2 (r=4) the epoch is 6 slots; with ``propagation_delay=2`` every
initial failure is detected well within 20 slots.
"""

import pytest

from repro.failures.manager import FailureEvent, FailureManager, LinkFailureEvent
from repro.sim.config import SimConfig
from repro.sim.engine import Engine
from repro.workloads.generators import (
    permutation_workload,
    single_flow_workload,
)

pytestmark = pytest.mark.faults

#: slots that comfortably cover detection + token propagation at n=16, h=2
SETTLE = 100


def build(failed=(), events=None, n=16, h=2, duration=4000, cc="hbh+spray",
          propagate=True, seed=31, detection_epochs=1, failed_links=()):
    cfg = SimConfig(
        n=n, h=h, duration=duration, propagation_delay=2,
        congestion_control=cc, seed=seed,
    )
    manager = FailureManager(
        failed_nodes=failed, events=events, propagate=propagate,
        detection_epochs=detection_epochs, failed_links=failed_links,
    )
    return cfg, Engine(cfg, failure_manager=manager), manager


def knows_about(node, failed_id):
    """Has the node learned (locally or via tokens) about ``failed_id``?"""
    return (
        failed_id in node.failed_neighbors
        or failed_id in node.known_failed
        or any(dest == failed_id for _via, dest in node.link_invalid)
    )


class TestFailureEvents:
    def test_event_repr_and_fields(self):
        event = FailureEvent(100, 3)
        assert event.t == 100
        assert event.failed

    def test_link_event_fields(self):
        event = LinkFailureEvent(50, 1, 2, failed=True, bidirectional=False)
        assert (event.a, event.b) == (1, 2)
        assert not event.bidirectional
        assert "->" in repr(event)

    def test_detection_epochs_validated(self):
        with pytest.raises(ValueError):
            FailureManager(detection_epochs=0)

    def test_cell_loss_rate_validated(self):
        with pytest.raises(ValueError):
            FailureManager(cell_loss_rate=1.5)

    def test_link_endpoints_must_be_neighbors(self):
        # nodes 0 and 5 differ in both coordinates at n=16, h=2
        with pytest.raises(ValueError):
            build(failed_links=[(0, 5)])


class TestInitialFailures:
    def test_failed_nodes_marked(self):
        cfg, engine, _ = build(failed=[3, 7])
        assert engine.nodes[3].failed
        assert engine.nodes[7].failed
        assert not engine.nodes[0].failed

    def test_neighbors_detect_failed_links_from_missing_cells(self):
        cfg, engine, manager = build(failed=[3])
        # nothing is known before any cell could have been missed
        assert all(3 not in nb.failed_neighbors for nb in engine.nodes)
        engine.run(duration=SETTLE)
        epoch = engine.schedule.epoch_length
        for nb in engine.coords.all_neighbors(3):
            assert 3 in engine.nodes[nb].failed_neighbors
        # every detection happened within one epoch + propagation delay
        for t, detector, neighbor in manager.detections:
            assert neighbor == 3
            assert t <= epoch + cfg.propagation_delay

    def test_detection_latency_scales_with_detection_epochs(self):
        """The ``detection_epochs`` knob is operative: k epochs of silence."""
        first = {}
        for k in (1, 2, 4):
            cfg, engine, manager = build(failed=[3], detection_epochs=k)
            engine.run(duration=400)
            assert manager.detections, f"no detection with k={k}"
            first[k] = min(t for t, _d, _n in manager.detections)
        epoch = 2 * 3  # h * (r - 1) for n=16, h=2
        assert first[2] - first[1] == epoch
        assert first[4] - first[1] == 3 * epoch

    def test_flows_involving_failed_nodes_skipped(self):
        cfg, engine, _ = build(failed=[5])
        engine.schedule_flows([(0, 5, 1, 10, 2440), (0, 0, 5, 10, 2440)])
        engine.run(duration=100)
        assert engine.flows.active_count == 0

    def test_failed_nodes_never_transmit(self):
        cfg, engine, _ = build(failed=[3])
        engine.run(duration=200)
        for tx in engine._in_flight:
            assert tx.sender != 3


class TestRoutingAroundFailures:
    def test_flow_completes_despite_intermediate_failures(self):
        """Cells avoid failed nodes and the flow still completes."""
        cfg, engine, _ = build(failed=[5, 6], duration=8000)
        engine.run(duration=2 * SETTLE)  # let detection + gossip settle
        engine.schedule_flows(single_flow_workload(0, 15, 100))
        engine.run_until_quiescent(max_extra=300_000)
        assert len(engine.flows.completed) == 1

    @pytest.mark.parametrize("h,n", [(2, 16), (4, 81)])
    def test_permutation_completes_under_failures(self, h, n):
        # n is chosen so r >= 3: with r = 2 a phase has a single neighbour
        # and one failure severs the phase entirely.
        cfg, engine, _ = build(failed=[2, 9], h=h, n=n, duration=8000)
        engine.run(duration=2 * SETTLE)
        alive = [i for i in range(n) if i not in (2, 9)]
        engine.schedule_flows(
            permutation_workload(cfg, size_cells=60, nodes=alive)
        )
        engine.run_until_quiescent(max_extra=300_000)
        assert len(engine.flows.completed) == len(alive)

    def test_no_payload_targets_failed_node_after_detection(self):
        cfg, engine, _ = build(failed=[5], duration=3000)
        alive = [i for i in range(16) if i != 5]
        engine.schedule_flows(
            permutation_workload(cfg, size_cells=200, nodes=alive)
        )
        for _ in range(3000):
            engine.step()
            if engine.t <= SETTLE:
                continue  # pre-detection sprays may still hit the hole
            for tx in engine._in_flight:
                if tx.receiver == 5:
                    # only liveness probes may cross a detected-dead link
                    assert tx.cell is None


class TestLinkFailures:
    def test_both_sides_shut_a_bidirectional_dead_link(self):
        cfg, engine, manager = build(failed_links=[(0, 1)])
        engine.run(duration=2 * SETTLE)
        assert 1 in engine.nodes[0].failed_neighbors
        assert 0 in engine.nodes[1].failed_neighbors
        assert not engine.nodes[0].failed and not engine.nodes[1].failed

    def test_directed_failure_detected_via_deafness_complaint(self):
        """Only 0->1 is dead: 1 detects silence, 0 learns from the complaint."""
        events = [LinkFailureEvent(0, 0, 1, bidirectional=False)]
        cfg, engine, manager = build(events=events)
        engine.run(duration=2 * SETTLE)
        assert 0 in engine.nodes[1].failed_neighbors  # missed cells
        assert 1 in engine.nodes[0].failed_neighbors  # deafness complaint
        assert any(d == 0 and n == 1 for _t, d, n in manager.deaf_notices)

    def test_link_recovery_revalidates_both_sides(self):
        events = [
            LinkFailureEvent(0, 0, 1),
            LinkFailureEvent(600, 0, 1, failed=False),
        ]
        cfg, engine, manager = build(events=events, duration=2000)
        engine.run(duration=600)
        assert 1 in engine.nodes[0].failed_neighbors
        engine.run(duration=600)
        assert 1 not in engine.nodes[0].failed_neighbors
        assert 0 not in engine.nodes[1].failed_neighbors
        assert not engine.nodes[0]._fail_cause
        assert not engine.nodes[1]._fail_cause
        assert manager.undetects

    def test_traffic_survives_link_flap(self):
        events = [
            LinkFailureEvent(500, 0, 1),
            LinkFailureEvent(1500, 0, 1, failed=False),
        ]
        cfg, engine, _ = build(events=events, duration=10_000)
        engine.schedule_flows(
            permutation_workload(cfg, size_cells=100, nodes=list(range(16)))
        )
        engine.run_until_quiescent(max_extra=300_000)
        # a link failure severs no destination: everything still delivers,
        # except final-hop cells caught on the dead link (dropped, counted)
        delivered = engine.metrics.payload_cells_delivered
        dropped = engine.metrics.cells_dropped
        assert delivered + dropped == engine.metrics.cells_injected
        assert delivered >= 16 * 100 - dropped


class TestInvalidationPropagation:
    def test_invalidation_tokens_spread_knowledge(self):
        cfg, engine, _ = build(failed=[5], duration=6000)
        alive = [i for i in range(16) if i != 5]
        engine.schedule_flows(
            permutation_workload(cfg, size_cells=2000, nodes=alive)
        )
        engine.run()
        # under hop-by-hop traffic, invalidation gossip should have reached
        # well beyond the failed node's direct neighbours
        knowers = sum(
            1 for node in engine.nodes
            if not node.failed and knows_about(node, 5)
        )
        assert knowers > len(engine.coords.all_neighbors(5)) // 2

    def test_no_propagation_ablation(self):
        cfg, engine, _ = build(failed=[5], propagate=False, duration=4000)
        alive = [i for i in range(16) if i != 5]
        engine.schedule_flows(
            permutation_workload(cfg, size_cells=500, nodes=alive)
        )
        engine.run()
        for node in engine.nodes:
            assert 5 not in node.known_failed
            assert not node.link_invalid
        # local detection still happened (it is not propagation)
        assert all(
            5 in engine.nodes[nb].failed_neighbors
            for nb in engine.coords.all_neighbors(5)
        )


class TestMidRunFailures:
    def test_timed_failure_takes_effect(self):
        events = [FailureEvent(1000, 7)]
        cfg, engine, _ = build(events=events, duration=3000)
        engine.run(duration=500)
        assert not engine.nodes[7].failed
        engine.run(duration=1000)
        assert engine.nodes[7].failed

    def test_recovery_restores_node_and_neighbors(self):
        events = [FailureEvent(500, 7), FailureEvent(1500, 7, failed=False)]
        cfg, engine, _ = build(events=events, duration=3000)
        engine.run(duration=1000)
        assert engine.nodes[7].failed
        engine.run(duration=2000)
        assert not engine.nodes[7].failed
        for nb in engine.coords.all_neighbors(7):
            assert 7 not in engine.nodes[nb].failed_neighbors

    def test_recovered_node_state_is_clean(self):
        """Recovery wipes queues and learned failure knowledge."""
        events = [FailureEvent(500, 7), FailureEvent(1500, 7, failed=False)]
        cfg, engine, _ = build(events=events, duration=6000)
        alive = [i for i in range(16) if i != 7]
        engine.schedule_flows(
            permutation_workload(cfg, size_cells=400, nodes=alive)
        )
        engine.run()
        node = engine.nodes[7]
        assert node.total_enqueued == sum(len(q) for q in node.link_queues)
        # no stale failure knowledge survived the crash
        recovery_t = 1500
        assert not node.known_failed or all(
            engine.nodes[k].failed for k in node.known_failed
        )

    def test_fail_recover_round_trip_restores_throughput(self):
        """After fail -> recover -> re-validation, the node carries traffic."""
        events = [FailureEvent(500, 7), FailureEvent(1000, 7, failed=False)]
        cfg, engine, _ = build(events=events, duration=4000)
        engine.run(duration=1000 + 2 * SETTLE)  # past recovery + re-validation
        # every neighbour re-validated the link from heard cells
        for nb in engine.coords.all_neighbors(7):
            assert 7 not in engine.nodes[nb].failed_neighbors
        # the recovered node can originate and complete a flow
        engine.schedule_flows(single_flow_workload(7, 8, 50))
        engine.run_until_quiescent(max_extra=100_000)
        assert len(engine.flows.completed) == 1
        # and it participates as an intermediate again
        engine.schedule_flows(single_flow_workload(0, 15, 50))
        engine.run_until_quiescent(max_extra=100_000)
        assert len(engine.flows.completed) == 2

    def test_traffic_survives_mid_run_failure(self):
        events = [FailureEvent(1000, 6)]
        cfg, engine, _ = build(events=events, duration=10_000)
        alive = [i for i in range(16) if i != 6]
        engine.schedule_flows(
            permutation_workload(cfg, size_cells=100, nodes=alive)
        )
        engine.run(duration=10_000)
        # cells resident at (or in flight toward) node 6 when it died are
        # lost, so some flows cannot complete — but every cell must be
        # accounted for and the vast majority of flows still finish
        m = engine.metrics
        queued = sum(n.total_enqueued for n in engine.nodes)
        assert m.payload_cells_delivered + m.cells_dropped + queued \
            + engine._in_flight_payload == m.cells_injected
        assert len(engine.flows.completed) >= len(alive) - 6


class TestThroughputUnderFailures:
    def test_throughput_degrades_gracefully(self):
        """Fig. 12 shape: a few failures cost roughly their proportion."""
        tputs = {}
        for failed in ([], [3]):
            cfg, engine, _ = build(
                failed=failed, n=16, duration=6000, seed=7
            )
            alive = [i for i in range(16) if i not in set(failed)]
            engine.schedule_flows(
                permutation_workload(cfg, size_cells=6000, nodes=alive)
            )
            engine.run()
            delivered = engine.metrics.payload_cells_delivered
            tputs[len(failed)] = delivered / (len(alive) * cfg.duration)
        assert tputs[1] > 0.6 * tputs[0]
