"""Tests for the stochastic fault injector and the run-health watchdog."""

import pytest

from repro.failures import FailureEvent, FaultInjector, LinkFailureEvent
from repro.failures.manager import FailureManager
from repro.sim.config import SimConfig
from repro.sim.engine import Engine
from repro.sim.monitor import ConservationError, RunMonitor
from repro.workloads.generators import permutation_workload

pytestmark = pytest.mark.faults


def make_engine(manager=None, n=16, h=2, duration=4000, seed=11, **cfg_kw):
    cfg = SimConfig(
        n=n, h=h, duration=duration, propagation_delay=2,
        congestion_control="hbh+spray", seed=seed, **cfg_kw,
    )
    return cfg, Engine(cfg, failure_manager=manager)


class TestFaultInjector:
    def test_same_seed_byte_identical(self):
        kwargs = dict(n=16, h=2, duration=50_000, seed=42,
                      node_mtbf=8000, node_mttr=2000,
                      link_mtbf=6000, link_mttr=1500)
        a = FaultInjector(**kwargs)
        b = FaultInjector(**kwargs)
        assert a.describe() == b.describe()
        assert a.describe()  # non-trivial schedule

    def test_different_seed_differs(self):
        kwargs = dict(n=16, h=2, duration=50_000,
                      node_mtbf=8000, node_mttr=2000)
        assert FaultInjector(seed=1, **kwargs).describe() \
            != FaultInjector(seed=2, **kwargs).describe()

    def test_streams_are_per_entity(self):
        """Adding link flaps must not reshuffle the node-crash schedule."""
        nodes_only = FaultInjector(16, 2, 50_000, seed=3,
                                   node_mtbf=8000, node_mttr=2000)
        both = FaultInjector(16, 2, 50_000, seed=3,
                             node_mtbf=8000, node_mttr=2000,
                             link_mtbf=6000, link_mttr=1500)
        node_events = [e for e in both.events()
                       if isinstance(e, FailureEvent)]
        assert [repr(e) for e in nodes_only.events()] \
            == [repr(e) for e in node_events]

    def test_events_alternate_and_stay_in_horizon(self):
        inj = FaultInjector(16, 2, 30_000, seed=5,
                            node_mtbf=4000, node_mttr=1000,
                            link_mtbf=5000, link_mttr=1000)
        per_entity = {}
        for e in inj.events():
            assert 0 <= e.t < 30_000
            key = ("node", e.node) if isinstance(e, FailureEvent) \
                else ("link", e.a, e.b)
            per_entity.setdefault(key, []).append(e)
        assert per_entity, "mtbf of 4000 over 30k slots must fire"
        for events in per_entity.values():
            # strictly increasing times, alternating fail/recover, fail first
            times = [e.t for e in events]
            assert times == sorted(set(times))
            for i, e in enumerate(events):
                assert e.failed == (i % 2 == 0)

    def test_zero_mttr_is_permanent(self):
        inj = FaultInjector(16, 2, 500_000, seed=9, node_mtbf=10_000)
        for e in inj.events():
            assert e.failed  # never recovers

    def test_restriction_to_nodes_and_links(self):
        inj = FaultInjector(16, 2, 100_000, seed=4,
                            node_mtbf=5000, node_mttr=500,
                            link_mtbf=5000, link_mttr=500,
                            node_ids=[3], links=[(0, 1)])
        for e in inj.events():
            if isinstance(e, FailureEvent):
                assert e.node == 3
            else:
                assert (e.a, e.b) == (0, 1)

    def test_validation(self):
        with pytest.raises(ValueError):
            FaultInjector(16, 2, 0)
        with pytest.raises(ValueError):
            FaultInjector(16, 2, 1000, node_mtbf=-1)

    def test_from_config_uses_sim_seed(self):
        cfg = SimConfig(n=16, h=2, duration=20_000, seed=77)
        inj = FaultInjector.from_config(cfg, node_mtbf=5000, node_mttr=500)
        twin = FaultInjector(16, 2, 20_000, seed=77,
                             node_mtbf=5000, node_mttr=500)
        assert inj.describe() == twin.describe()


class TestCellLoss:
    def test_loss_drops_payload_but_preserves_contact(self):
        manager = FailureManager(cell_loss_rate=0.05)
        cfg, engine = make_engine(manager, duration=4000)
        monitor = RunMonitor().attach(engine)
        engine.schedule_flows(
            permutation_workload(cfg, size_cells=500)
        )
        engine.run()
        assert engine.metrics.wire_losses > 0
        assert not monitor.violations
        # noise is loss, not failure: nobody declared a neighbour down
        assert not manager.detections
        assert all(not node.failed_neighbors for node in engine.nodes)

    def test_loss_stream_is_reproducible(self):
        losses = []
        for _ in range(2):
            manager = FailureManager(cell_loss_rate=0.05)
            cfg, engine = make_engine(manager, duration=3000)
            engine.schedule_flows(permutation_workload(cfg, size_cells=300))
            engine.run()
            losses.append(engine.metrics.wire_losses)
        assert losses[0] == losses[1] > 0


class TestRunMonitor:
    def test_clean_run_has_no_violations(self):
        cfg, engine = make_engine(duration=2000)
        monitor = RunMonitor(strict=True).attach(engine)
        engine.schedule_flows(permutation_workload(cfg, size_cells=200))
        engine.run()
        assert monitor.checks > 0
        assert not monitor.violations
        assert not monitor.stalls

    def test_strict_raises_on_forged_cells(self):
        cfg, engine = make_engine(duration=2000)
        RunMonitor(strict=True).attach(engine)
        engine.metrics.cells_injected += 5  # forge: injected with no cell
        with pytest.raises(ConservationError):
            engine.run()

    def test_nonstrict_records_violation(self):
        cfg, engine = make_engine(duration=1000)
        monitor = RunMonitor().attach(engine)
        engine.metrics.cells_injected += 5
        engine.run()
        assert monitor.violations
        assert monitor.violations[0]["missing"] == 5

    def test_stall_detected_on_frozen_backlog(self):
        cfg, engine = make_engine(duration=3000)
        monitor = RunMonitor(stall_window_epochs=2).attach(engine)
        # a cell that sits in a queue forever with no matching progress
        engine.metrics.cells_injected += 1
        engine.nodes[0].total_enqueued += 1
        engine.run()
        assert monitor.stalls
        assert monitor.stalls[0]["kind"] in ("stall", "livelock")
        assert monitor.stalls[0]["backlog"] == 1

    def test_report_structure(self):
        manager = FailureManager(
            events=[FailureEvent(500, 3), FailureEvent(1500, 3, False)]
        )
        cfg, engine = make_engine(manager, duration=3000)
        monitor = RunMonitor().attach(engine)
        engine.schedule_flows(permutation_workload(cfg, size_cells=200))
        engine.run()
        rep = monitor.report()
        totals = rep["totals"]
        assert totals["injected"] == totals["delivered"] \
            + totals["dropped"] + totals["trimmed"] + totals["queued"] \
            + totals["in_flight"]
        fail_ev, rec_ev = rep["failures"]["events"]
        assert fail_ev["action"] == "fail" and fail_ev["target"] == [3]
        assert fail_ev["detect_first_slots"] is not None
        assert rec_ev["action"] == "recover"
        assert "fail" in monitor.format_report()

    def test_report_json_byte_identical_across_runs(self):
        """Same seed -> byte-identical resilience report."""
        reports = []
        for _ in range(2):
            inj = FaultInjector(16, 2, 6000, seed=13,
                                node_mtbf=2500, node_mttr=800,
                                link_mtbf=3000, link_mttr=600,
                                cell_loss_rate=0.01)
            manager = inj.build_manager()
            cfg, engine = make_engine(manager, duration=6000)
            monitor = RunMonitor().attach(engine)
            engine.schedule_flows(permutation_workload(cfg, size_cells=400))
            engine.run()
            reports.append(monitor.report_json())
        assert reports[0] == reports[1]


class TestConservationUnderInjectedFaults:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_fault_schedule_conserves_cells(self, seed):
        inj = FaultInjector(16, 2, 8000, seed=seed,
                            node_mtbf=2000, node_mttr=600,
                            link_mtbf=2500, link_mttr=500,
                            cell_loss_rate=0.005)
        manager = inj.build_manager()
        cfg, engine = make_engine(manager, duration=8000, seed=seed)
        monitor = RunMonitor(strict=True).attach(engine)
        engine.schedule_flows(permutation_workload(cfg, size_cells=600))
        engine.run()  # strict monitor raises on any leak
        monitor.check(engine, engine.t)
        assert not monitor.violations

    def test_mixed_fig12_mode_conserves(self):
        from repro.experiments import fig12_failures

        result = fig12_failures.run(
            n=16, h_values=(2,), failed_fractions=(0.0, 0.125),
            duration=3000, flow_cells=2000, permutations=4, mode="mixed",
        )
        assert all(row.conserved for row in result.rows)


class TestRecoveryEdgeWindow:
    """Regression: a node that fails AND recovers inside a single metrics
    sample window (here [100, 150) at ``metrics_sample_interval=50``) must
    produce the same determinism digest whether or not telemetry is
    attached — the recorder samples the window edge after the recovery and
    must observe, never perturb, the transient."""

    def _run(self, with_telemetry):
        from repro.obs.capture import TelemetryCapture

        def build_and_run():
            manager = FailureManager(events=[
                FailureEvent(120, 5, failed=True),
                FailureEvent(140, 5, failed=False),
            ])
            cfg, engine = make_engine(manager, duration=1200, seed=23,
                                      metrics_sample_interval=50)
            RunMonitor().attach(engine)
            engine.schedule_flows(permutation_workload(cfg, size_cells=150))
            digest = engine.enable_digest()
            engine.run()
            return manager, digest.hexdigest()

        if not with_telemetry:
            return build_and_run() + (None,)
        with TelemetryCapture() as capture:
            manager, hexdigest = build_and_run()
            runs = capture.collect()
        return manager, hexdigest, runs

    def test_digest_identical_with_and_without_telemetry(self):
        bare_manager, bare_digest, _ = self._run(with_telemetry=False)
        tele_manager, tele_digest, runs = self._run(with_telemetry=True)
        assert tele_digest == bare_digest
        assert sorted(tele_manager.detections) \
            == sorted(bare_manager.detections)
        # the transient really happened, and the telemetry run saw it:
        # the monitor report rode home in the captured run payload
        assert len(bare_manager.resilience_summary()["events"]) == 2
        assert len(runs) == 1
        assert "monitor" in runs[0]

    def test_transient_window_run_is_reproducible(self):
        digests = [self._run(with_telemetry=True)[1] for _ in range(2)]
        assert digests[0] == digests[1]


class TestRecoveryActiveSetEquivalence:
    """Regression: a node revived via ``Node.reset_for_recovery`` while
    outside the engine's per-link visit sets (``Engine._visit``) must
    rejoin every link's set before its next pending work (resumed local
    flows, probe replies, rtx queue) — otherwise ``run_tx``, which visits
    only the slot's link's set, silently skips it until an unrelated
    arrival, diverging from the full scan (the reference for the visit
    sets: same ``Node.transmit``, every live node offered every slot)."""

    def _run(self, full_scan):
        manager = FailureManager(events=[
            FailureEvent(300, 3, failed=True),
            FailureEvent(900, 3, failed=False),
        ])
        cfg, engine = make_engine(manager, duration=2500, seed=17)
        engine.force_full_scan = full_scan
        digest = engine.enable_digest()
        engine.schedule_flows(permutation_workload(cfg, size_cells=800))
        revived_sent = []
        engine.delivery_hook = lambda cell, t: (
            revived_sent.append((t, cell.seq))
            if cell.src == 3 and t > 900 else None
        )
        engine.run()
        engine.run_until_quiescent(max_extra=20_000)
        return (
            digest.hexdigest(),
            engine.metrics.payload_cells_delivered,
            sorted(manager.detections),
            len(revived_sent),
        )

    def test_kill_and_revive_matches_full_scan(self):
        fast = self._run(full_scan=False)
        ref = self._run(full_scan=True)
        assert fast == ref
        # the revival mattered: the node resumed sending its surviving
        # local flow after recovery, through the active-set path too
        assert fast[3] > 0


class TestWireDropTokenHeal:
    """Regression: the wire-loss token heal must not depend on the sender's
    liveness.  A sender can crash *between* transmitting a cell and the
    in-flight drop of that cell; the bucket credit it charged at transmit
    time must still be returned to its ledger, otherwise the charge leaks
    (the cell will never arrive to return it) and the persisted ledger
    state carries a phantom charge into checkpoints."""

    def test_heal_applies_to_failed_sender(self):
        from repro.core.cell import Cell
        from repro.sim.node import Transmission

        cfg, engine = make_engine(FailureManager(), duration=100)
        sender = engine.nodes[0]
        neighbor = next(iter(engine.coords.all_neighbors(0)))
        dst = next(
            d for d in range(cfg.n) if d not in (0, neighbor)
        )
        bucket = (dst, 1)
        sender.ledger.charge(neighbor, bucket)
        assert sender.ledger.available(neighbor, bucket) \
            == cfg.token_budget - 1
        cell = Cell(0, dst, flow_id=7, seq=3, sprays_remaining=1)
        tx = Transmission(0, neighbor, cell)
        sender.failed = True  # crash lands after the transmit
        engine.wire_drop(tx)
        assert engine.metrics.wire_losses == 1
        # the charge was healed even though the sender is down ...
        assert sender.ledger.available(neighbor, bucket) == cfg.token_budget
        # ... so the ledger the node carries into recovery is clean
        sender.reset_for_recovery(engine.t)
        assert sender.ledger.available(neighbor, bucket) == cfg.token_budget

    def test_crashed_sender_credit_heals_on_in_flight_drop(self):
        """Seeded end-to-end variant: crash a real sender while its cell is
        on the wire, fail the receiver so the cell drops, and check the
        sender's ledger got its credit back."""
        manager = FailureManager()
        cfg, engine = make_engine(manager, duration=4000, seed=11)
        engine.schedule_flows(permutation_workload(cfg, size_cells=200))
        tx = None
        for _ in range(200):
            engine.run(1)
            for cand in engine._in_flight:
                cell = cand.cell
                if cell is not None and not cell.dummy \
                        and cand.receiver != cell.dst:
                    tx = cand
                    break
            if tx is not None:
                break
        assert tx is not None, "no charged payload hop went on the wire"
        sender = engine.nodes[tx.sender]
        bucket = (tx.cell.dst, tx.cell.sprays_remaining)

        def avail():
            return sender.ledger.available(tx.receiver, bucket)

        before = avail()
        assert before < cfg.token_budget  # the transmit charged this bucket
        # the sender crashes with the cell mid-flight; the receiver crashes
        # too, which is what turns the arrival into a wire drop
        sender.failed = True
        engine.nodes[tx.receiver].failed = True
        losses_before = engine.metrics.wire_losses
        engine.run(cfg.propagation_delay + 2)
        assert engine.metrics.wire_losses > losses_before
        assert avail() > before
