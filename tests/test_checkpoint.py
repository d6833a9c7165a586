"""Checkpoint/resume: bit-exact snapshots of a running simulation.

The contract under test: ``run(0..T)`` and ``run(0..k); snapshot; restore;
run(k..T)`` are indistinguishable — same determinism digest, same metrics,
same flow records — for every congestion-control mechanism, with and
without failures and telemetry.  Plus the file format's self-healing: a
corrupt, truncated or foreign-versioned checkpoint is treated as absent
(start from slot 0), never a crash.
"""

import json
import logging
import pathlib
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import open_session
from repro.failures.manager import FailureEvent, FailureManager
from repro.obs.events import EventLog, RingSink
from repro.obs.timeseries import TimeSeriesRecorder
from repro.sim.checkpoint import (
    CHECKPOINT_VERSION,
    CheckpointError,
    CheckpointPolicy,
    apply_checkpoint,
    load_checkpoint,
    load_checkpoint_or_none,
    restore_engine,
    save_checkpoint,
    snapshot_engine,
)
from repro.sim.config import SimConfig
from repro.sim.engine import Engine
from repro.workloads.generators import permutation_workload
from repro.workloads.streaming import OpenLoopSource

from .test_golden_traces import MECHANISMS, SCENARIOS, run_scenario

GOLDEN_PATH = pathlib.Path(__file__).parent / "data" / "golden_traces.json"


def _build(cc, params, with_observers=True):
    cfg = SimConfig(
        n=params["n"], h=params["h"], seed=params["seed"],
        duration=params["duration"], propagation_delay=4,
        congestion_control=cc,
        schedule=params.get("schedule", "ebs"),
        routing=params.get("routing", "vlb"),
    )
    manager = None
    if "fail_node" in params:
        manager = FailureManager(events=[
            FailureEvent(params["fail_at"], params["fail_node"], failed=True),
            FailureEvent(params["recover_at"], params["fail_node"],
                         failed=False),
        ])
    workload = permutation_workload(cfg, params["size_cells"])
    engine = Engine(cfg, workload=workload, failure_manager=manager)
    engine.enable_digest()
    if with_observers:
        TimeSeriesRecorder().attach(engine)
        log = EventLog()
        log.add_sink(RingSink())
        log.attach(engine)
        engine.enable_profiler()
    return engine


def _fingerprint(engine):
    fcts = [record.fct for record in engine.flows.completed]
    return {
        "digest": engine.digest.hexdigest(),
        "events": engine.digest.events,
        "delivered": engine.metrics.payload_cells_delivered,
        "dropped": engine.metrics.cells_dropped,
        "fct_sum": sum(fcts),
        "fct_count": len(fcts),
    }


def _run_through_checkpoint(cc, params, k, tmp_path, attach_after=True):
    """run(0..k); snapshot to disk; restore; run(k..T); fingerprint."""
    engine = _build(cc, params)
    engine.run(k)
    path = tmp_path / "mid.ckpt"
    save_checkpoint(engine.snapshot(), path)
    restored = restore_engine(load_checkpoint(path))
    assert restored.t == k
    if attach_after:
        # observers attached post-restore absorb their pending state
        TimeSeriesRecorder().attach(restored)
        log = EventLog()
        log.add_sink(RingSink())
        log.attach(restored)
        restored.enable_profiler()
    restored.run(params["duration"] - k)
    return _fingerprint(restored)


class TestGoldenTracesThroughCheckpoint:
    """Every golden trace must survive a mid-run snapshot/restore cycle."""

    @pytest.mark.parametrize("cc", MECHANISMS)
    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_golden_after_restore(self, cc, scenario, tmp_path):
        params = SCENARIOS[scenario]
        golden = json.loads(GOLDEN_PATH.read_text())[scenario][cc]
        k = params["duration"] // 2
        result = _run_through_checkpoint(cc, params, k, tmp_path)
        assert result == golden, (
            f"{scenario}/{cc}: resumed run diverged from the golden trace"
        )


class TestRoundTripProperty:
    @settings(max_examples=12, deadline=None)
    @given(
        cc=st.sampled_from(MECHANISMS),
        k=st.integers(min_value=1, max_value=499),
        scenario=st.sampled_from(sorted(SCENARIOS)),
    )
    def test_snapshot_at_any_slot_is_bit_exact(self, cc, k, scenario,
                                               tmp_path_factory):
        params = SCENARIOS[scenario]
        k = min(k, params["duration"] - 1)
        straight = run_scenario(cc, params)
        tmp = tmp_path_factory.mktemp("ckpt")
        resumed = _run_through_checkpoint(cc, params, k, tmp)
        assert resumed == straight


class TestObserversAcrossRestore:
    def test_timeseries_and_events_identical(self, tmp_path):
        params = SCENARIOS["n16_seed1"]
        straight = _build("hbh+spray", params, with_observers=False)
        rec1 = TimeSeriesRecorder().attach(straight)
        log1 = EventLog().add_sink(RingSink()).attach(straight)
        straight.run()

        engine = _build("hbh+spray", params, with_observers=False)
        rec2 = TimeSeriesRecorder().attach(engine)
        log2 = EventLog().add_sink(RingSink()).attach(engine)
        engine.run(220)
        path = tmp_path / "mid.ckpt"
        save_checkpoint(engine.snapshot(), path)
        restored = restore_engine(load_checkpoint(path))
        rec3 = TimeSeriesRecorder().attach(restored)
        log3 = EventLog().add_sink(RingSink()).attach(restored)
        restored.run(params["duration"] - 220)

        assert rec3.state_dict() == rec1.state_dict()
        assert log3.state_dict() == log1.state_dict()
        assert restored.digest.value == straight.digest.value

    def test_failure_manager_restored_mid_outage(self, tmp_path):
        """Snapshot taken between failure and recovery keeps the protocol."""
        params = SCENARIOS["n16_nodefail"]
        straight = run_scenario("hbh+spray", params)
        k = (params["fail_at"] + params["recover_at"]) // 2
        resumed = _run_through_checkpoint("hbh+spray", params, k, tmp_path)
        assert resumed == straight


class TestFileFormat:
    def _snapshot(self, tmp_path):
        engine = _build("none", SCENARIOS["n16_seed1"], with_observers=False)
        engine.run(100)
        path = tmp_path / "x.ckpt"
        save_checkpoint(engine.snapshot(), path)
        return engine, path

    def test_round_trip_preserves_t_and_config(self, tmp_path):
        engine, path = self._snapshot(tmp_path)
        chk = load_checkpoint(path)
        assert chk.t == 100
        assert chk.config == engine.config
        assert chk.version == CHECKPOINT_VERSION

    def test_garbage_file_raises_and_self_heals(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"not a checkpoint at all")
        with pytest.raises(CheckpointError):
            load_checkpoint(path)
        assert load_checkpoint_or_none(path) is None
        assert not path.exists()  # bad file removed

    def test_truncated_file_self_heals(self, tmp_path):
        _, path = self._snapshot(tmp_path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        assert load_checkpoint_or_none(path) is None
        assert not path.exists()

    def test_flipped_byte_fails_integrity(self, tmp_path):
        _, path = self._snapshot(tmp_path)
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointError, match="integrity"):
            load_checkpoint(path)

    def test_missing_file_is_none(self, tmp_path, caplog):
        assert load_checkpoint_or_none(tmp_path / "absent.ckpt") is None
        assert caplog.records == []  # nothing was discarded: no notice

    def test_config_mismatch_rejected(self, tmp_path):
        _, path = self._snapshot(tmp_path)
        chk = load_checkpoint(path)
        other = Engine(SimConfig(n=16, h=2, seed=2, duration=500,
                                 propagation_delay=4))
        with pytest.raises(CheckpointError, match="configuration"):
            apply_checkpoint(other, chk)

    def test_foreign_version_self_heals(self, tmp_path, monkeypatch):
        engine, _ = self._snapshot(tmp_path)
        import repro.sim.checkpoint as ckpt_mod

        chk = snapshot_engine(engine)
        monkeypatch.setattr(ckpt_mod, "CHECKPOINT_VERSION", 999)
        path = tmp_path / "future.ckpt"
        chk.version = 999
        save_checkpoint(chk, path)
        monkeypatch.undo()
        # a file written by a future format version reads as "no checkpoint"
        assert load_checkpoint_or_none(path) is None
        assert not path.exists()

    def test_previous_version_is_discarded_with_one_warning(self, tmp_path,
                                                            caplog):
        """There is one load path: a version-1 file (raw sample lists, the
        per-cell latency list) is not read, it is refused by number — and
        the self-healing load says so once before it removes the file, so
        a restarted service does not silently begin at slot 0."""
        engine, path = self._snapshot(tmp_path)
        chk = engine.snapshot()
        chk.version = 1
        save_checkpoint(chk, path)
        with pytest.raises(CheckpointError, match=r"version.*: 1 \(want 2\)"):
            load_checkpoint(path)
        assert path.exists() and caplog.records == []
        with caplog.at_level(logging.WARNING, logger="repro.checkpoint"):
            assert load_checkpoint_or_none(path) is None
        assert not path.exists()
        (record,) = caplog.records
        assert record.name == "repro.checkpoint"
        assert record.levelno == logging.WARNING
        assert str(path) in record.getMessage()
        assert "1 (want 2)" in record.getMessage()


class TestSnapshotIsTheSizeOfTheNetwork:
    def test_metrics_state_stops_growing_with_the_clock(self):
        """A long run's collector state is counts, not history: between
        t = 5 000 and t = 20 000 of a live hbh+spray session the pickled
        ``metrics`` section grows by its ``throughput_series`` entry (one
        int per window, read by the figures) and some counter digits —
        no raw sample, no per-cell list.  The key set is the format."""
        cfg = SimConfig(n=16, h=2, seed=1, congestion_control="hbh+spray",
                        metrics_sample_interval=50)
        session = open_session(
            cfg, source=OpenLoopSource(cfg, load=0.25), telemetry=True)

        def sizes(horizon):
            session.advance_to(horizon)
            metrics = session.engine.snapshot().state["metrics"]
            return tuple(
                len(pickle.dumps(part, pickle.HIGHEST_PROTOCOL))
                for part in (metrics, metrics["throughput_series"]))

        early, early_series = sizes(5_000)
        late, late_series = sizes(20_000)
        assert late - early <= late_series - early_series + 256
        metrics = session.engine.metrics
        state = metrics.state_dict()
        assert set(state) == {
            "scalars", "buffer_counts", "queue_counts", "throughput_series",
            "window_delivered", "measuring", "delivered_per_node",
        }
        # canonical: dense, trimmed to the largest value ever sampled
        assert state["buffer_counts"][-1] > 0
        assert len(state["queue_counts"]) == metrics.queue_counts.size \
            <= metrics.max_queue_length + 1


class TestCellScope:
    def test_corrupt_checkpoint_starts_from_zero(self, tmp_path):
        policy = CheckpointPolicy(tmp_path, every=100)
        key = "deadbeef"
        (tmp_path / f"{key}-00.ckpt").write_bytes(b"garbage")
        with policy.cell_scope(key) as scope:
            engine = _build("none", SCENARIOS["n16_seed1"],
                            with_observers=False)
            engine.run()
        assert scope.resumed == []  # fresh start, no crash
        assert engine.t == SCENARIOS["n16_seed1"]["duration"]

    def test_resume_matches_uninterrupted(self, tmp_path):
        params = SCENARIOS["n16_seed1"]
        straight = run_scenario("hbh+spray", params)
        policy = CheckpointPolicy(tmp_path, every=100)
        key = "cafef00d"

        class Boom(Exception):
            pass

        with policy.cell_scope(key):
            # no profiler: run() must dispatch through the patched step
            engine = _build("hbh+spray", params, with_observers=False)
            real_step = engine.step
            def step():
                if engine.t >= 350:
                    raise Boom()
                real_step()
            engine.step = step
            with pytest.raises(Boom):
                engine.run()
        assert list(tmp_path.glob(f"{key}-*.ckpt"))

        with policy.cell_scope(key) as scope:
            resumed = _build("hbh+spray", params)
            resumed.run()
        assert scope.resumed and scope.resume_slot == 300
        assert _fingerprint(resumed) == straight

        # clean completion discards the snapshots
        with policy.cell_scope(key) as scope:
            engine = _build("hbh+spray", params)
            engine.run()
            scope.discard()
        assert not list(tmp_path.glob(f"{key}-*.ckpt"))


class TestApiFacade:
    def test_simulate_checkpoint_resume(self, tmp_path):
        from repro.api import simulate
        from repro.workloads import ShortFlowDistribution, poisson_workload

        cfg = SimConfig(n=16, h=2, duration=4000,
                        congestion_control="hbh+spray")
        wl = poisson_workload(cfg, ShortFlowDistribution(), load=0.2)
        clean = simulate(cfg, wl, drain=True, digest=True)

        path = tmp_path / "run.ckpt"
        engine = Engine(cfg, workload=list(wl))
        engine.enable_digest()
        engine.enable_checkpoints(path, 500)
        engine.run(2750)  # "interrupted" partway: checkpoint stays on disk
        assert path.exists()

        resumed = simulate(cfg, wl, drain=True, digest=True, checkpoint=path)
        assert resumed.resumed_from == 2500
        assert resumed.digest == clean.digest
        assert not path.exists()  # clean completion removes the file
