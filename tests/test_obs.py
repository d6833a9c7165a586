"""Tests for the run-telemetry subsystem (:mod:`repro.obs`).

Covers the three pillars — time series, structured events, profiling /
manifests — plus the ambient :class:`TelemetryCapture` and its cooperation
with :func:`repro.sim.parallel.sweep` workers.  The companion proof that
telemetry never perturbs simulated behavior lives in
``test_golden_traces.py`` (every golden scenario runs fully instrumented).
"""

import json
from collections import Counter

import numpy as np
import pytest

from repro.obs.capture import SweepTelemetry, TelemetryCapture, current_capture
from repro.obs.events import (
    CallbackSink,
    EventLog,
    FileSink,
    RingSink,
    encode_event,
    read_jsonl,
)
from repro.obs.manifest import run_manifest
from repro.obs.profiler import SECTIONS, StepProfiler
from repro.obs.serialize import canonical_json
from repro.obs.timeseries import TimeSeriesRecorder
from repro.sim import engine as engine_mod
from repro.sim.backends import set_default_shards
from repro.sim.config import SimConfig
from repro.sim.engine import Engine
from repro.sim.node import Node
from repro.sim.parallel import sweep
from repro.workloads.generators import permutation_workload

from .equivalence import RunState

pytestmark = pytest.mark.telemetry


def make_engine(n=16, h=2, seed=3, duration=600, cc="hop-by-hop",
                size_cells=20, warmup=0, sample_interval=50,
                backend="object"):
    cfg = SimConfig(
        n=n, h=h, seed=seed, duration=duration, propagation_delay=4,
        congestion_control=cc, warmup=warmup,
        metrics_sample_interval=sample_interval, backend=backend,
    )
    return Engine(cfg, workload=permutation_workload(cfg, size_cells))


# --------------------------------------------------------------------- #
# time series


class TestTimeSeries:
    def test_one_row_per_sample_window(self):
        engine = make_engine(duration=600, sample_interval=50)
        recorder = TimeSeriesRecorder().attach(engine)
        engine.run(engine.config.duration)
        # samples fire at t = 0, 50, ..., 550
        assert len(recorder) == 600 // 50
        series = recorder.series()
        assert set(series) == set(TimeSeriesRecorder.COLUMNS)
        assert all(len(col) == len(recorder) for col in series.values())
        assert recorder.column("t").tolist() == list(range(0, 600, 50))

    def test_deltas_sum_to_cumulative_counters(self):
        engine = make_engine(duration=800)
        recorder = TimeSeriesRecorder().attach(engine)
        engine.run(engine.config.duration)
        m = engine.metrics
        # the windows partition [0, last sample]; deliveries after the last
        # sampling instant are not in any window, so compare at that instant
        # by re-deriving the tail from the cumulative counter
        assert sum(recorder.column("delivered")) <= m.payload_cells_delivered
        assert sum(recorder.column("sent")) <= m.cells_sent
        assert sum(recorder.column("dummies")) <= m.dummy_cells_sent
        # every window delta is non-negative (counters are monotonic)
        for name in ("delivered", "injected", "sent", "dummies", "tokens"):
            assert min(recorder.column(name), default=0) >= 0

    def test_to_dict_is_json_serialisable(self):
        engine = make_engine(duration=300)
        recorder = TimeSeriesRecorder().attach(engine)
        engine.run(engine.config.duration)
        data = recorder.to_dict()
        json.dumps(data)  # must not raise
        assert set(data) == set(TimeSeriesRecorder.COLUMNS)
        assert all(isinstance(v, list) for v in data.values())

    def test_attach_is_idempotent_on_engine_slot(self):
        engine = make_engine(duration=200)
        recorder = TimeSeriesRecorder().attach(engine)
        assert engine.telemetry is recorder

    def test_recorder_observes_hbh_tokens(self):
        engine = make_engine(duration=800, cc="hbh+spray")
        recorder = TimeSeriesRecorder().attach(engine)
        engine.run(engine.config.duration)
        assert sum(recorder.column("tokens")) > 0

    def test_window_close_walks_the_object_model_once(self):
        """With telemetry attached, the metrics sample and the telemetry
        row come from one walk: every live node's occupancy is read once
        per closed window, its send queues only when it holds cells, none
        at all on an idle engine, and a failed node is in neither the
        samples nor the row — which equal what a read of every queue of
        every live node gives."""
        engine = make_engine(duration=100, cc="hbh+spray", size_cells=40)
        recorder = TimeSeriesRecorder().attach(engine)
        engine.run(engine.config.duration)
        failed = engine.nodes[5]
        failed.failed = True
        assert failed.total_enqueued, "the failed node must hold cells"
        alive = [node for node in engine.nodes if not node.failed]
        occupancies = [Node.total_enqueued.__get__(node) for node in alive]
        assert 0 in occupancies, "an empty live node must be walked too"
        assert any(occupancies), "a live node must hold cells"
        reads = Counter()
        queue_reads = Counter()

        class CountedNode(Node):
            __slots__ = ()

            @property
            def total_enqueued(self):
                reads[self] += 1
                return Node.total_enqueued.__get__(self)

            @property
            def link_queues(self):
                queue_reads[self] += 1
                return Node.link_queues.__get__(self)

        def count_reads(engine):
            for node in engine.nodes:
                node.__class__ = CountedNode

        count_reads(engine)
        before_buffers = engine.metrics.buffer_counts.copy()
        before_queues = engine.metrics.queue_counts.copy()
        peaks = (engine.metrics.max_queue_length,
                 engine.metrics.max_active_buckets)
        engine._sample_metrics()

        for node in engine.nodes:
            live = not node.failed
            assert reads[node] == live
            holds = live and Node.total_enqueued.__get__(node) > 0
            assert queue_reads[node] == holds

        def delta(after, before):
            after = after.copy()
            after[:before.size] -= before
            return after.tolist()

        lengths = [len(q) for node in alive
                   for q in Node.link_queues.__get__(node) if q]
        buffers = delta(engine.metrics.buffer_counts, before_buffers)
        assert buffers == np.bincount(
            occupancies, minlength=len(buffers)).tolist()
        queues = delta(engine.metrics.queue_counts, before_queues)
        expected = np.bincount(lengths, minlength=len(queues))
        expected[0] = 0
        assert queues == expected.tolist()
        # the window samples the queues and raises no enqueue-driven peak
        assert (engine.metrics.max_queue_length,
                engine.metrics.max_active_buckets) == peaks
        assert engine.metrics.max_queue_length >= max(lengths)
        row = {name: int(col[-1]) for name, col in recorder.series().items()}
        assert row["queued"] == sum(occupancies)
        assert row["max_buffer"] == max(occupancies)
        assert row["max_queue"] == max(lengths)

        # an idle engine: every live node is read, no queue is
        idle = make_engine(duration=100, cc="hbh+spray", size_cells=4)
        idle.run_until_quiescent()
        assert not any(node.total_enqueued for node in idle.nodes)
        reads.clear()
        queue_reads.clear()
        count_reads(idle)
        idle._sample_metrics()
        assert sorted(reads.values()) == [1] * len(idle.nodes)
        assert not queue_reads


class TestWarmupBoundary:
    def test_first_window_excludes_warmup_deliveries(self):
        """Regression: the first window's ``delivered`` once absorbed every
        cell delivered since t=0 when ``warmup > 0``."""
        warmup = 200
        engine = make_engine(duration=601, warmup=warmup, sample_interval=50)
        recorder = TimeSeriesRecorder().attach(engine)
        engine.run(warmup)  # slots 0..199: warm-up only
        delivered_before = engine.metrics.payload_cells_delivered
        assert delivered_before > 0, "warm-up must deliver something"
        assert len(recorder) == 0
        engine.run(601 - warmup)  # slots 200..600; windows close at 200..600
        assert sum(recorder.column("delivered")) == (
            engine.metrics.payload_cells_delivered - delivered_before
        )

    def test_telemetry_rebaselined_at_warmup(self):
        warmup = 200
        engine = make_engine(duration=601, warmup=warmup, sample_interval=50)
        recorder = TimeSeriesRecorder().attach(engine)
        engine.run(engine.config.duration)
        assert recorder.column("t").tolist() == list(range(200, 601, 50))


# --------------------------------------------------------------------- #
# structured events


class TestEventLog:
    def test_flow_lifecycle_events(self):
        engine = make_engine(duration=600)
        ring = RingSink()
        EventLog([ring]).attach(engine)
        engine.run(engine.config.duration)
        starts = [r for r in ring.records if r["kind"] == "flow_start"]
        ends = [r for r in ring.records if r["kind"] == "flow_end"]
        assert len(starts) == engine.config.n
        assert len(ends) == len(engine.flows.completed)
        assert ends, "expected completed flows in 600 slots"
        for record in ends:
            payload = record["payload"]
            assert payload["fct"] > 0
            assert {"flow", "src", "dst", "cells"} <= set(payload)

    def test_file_sink_round_trip(self, tmp_path):
        path = tmp_path / "events.jsonl"
        engine = make_engine(duration=400)
        log = EventLog([FileSink(path)]).attach(engine)
        engine.run(engine.config.duration)
        log.close()
        records = read_jsonl(path)
        assert len(records) == log.count
        assert all(set(r) == {"t", "kind", "payload"} for r in records)
        assert [r["t"] for r in records] == sorted(r["t"] for r in records)

    def test_same_seed_byte_identical(self, tmp_path):
        lines = []
        for run in range(2):
            engine = make_engine(duration=500, seed=11)
            ring = RingSink()
            EventLog([ring]).attach(engine)
            engine.run(engine.config.duration)
            lines.append("\n".join(encode_event(r) for r in ring.records))
        assert lines[0] == lines[1]
        assert lines[0], "event stream must not be empty"

    def test_ring_capacity_bounds_memory(self):
        ring = RingSink(capacity=3)
        log = EventLog([ring])
        for t in range(10):
            log.emit(t, "k", {"i": t})
        assert len(ring) == 3
        assert [r["t"] for r in ring.records] == [7, 8, 9]
        assert log.count == 10

    def test_callback_sink_and_multiple_sinks(self):
        seen = []
        log = EventLog([CallbackSink(seen.append)])
        ring = RingSink()
        log.add_sink(ring)
        log.emit(5, "x", {"a": 1})
        assert seen == ring.records == [{"t": 5, "kind": "x",
                                         "payload": {"a": 1}}]

    def test_encode_event_is_canonical(self):
        record = {"t": 1, "kind": "k", "payload": {"b": 2, "a": 1}}
        assert encode_event(record) == (
            '{"kind":"k","payload":{"a":1,"b":2},"t":1}'
        )

    def test_monitor_violations_reach_the_log(self):
        from repro.sim.monitor import RunMonitor

        engine = make_engine(duration=300)
        ring = RingSink()
        EventLog([ring]).attach(engine)
        RunMonitor().attach(engine)
        engine.run(200)
        # forge a leak: the next conservation check must emit an event
        engine.metrics.cells_injected += 7
        engine.run(100)
        violations = [r for r in ring.records
                      if r["kind"] == "conservation_violation"]
        assert violations
        assert violations[0]["payload"]["missing"] == 7

    def test_failure_events_reach_the_log(self):
        from repro.failures.manager import FailureEvent, FailureManager

        cfg = SimConfig(
            n=16, h=2, seed=5, duration=600, propagation_delay=4,
            congestion_control="hop-by-hop",
        )
        manager = FailureManager(events=[
            FailureEvent(120, 5, failed=True),
            FailureEvent(400, 5, failed=False),
        ])
        engine = Engine(cfg, workload=permutation_workload(cfg, 30),
                        failure_manager=manager)
        ring = RingSink()
        EventLog([ring]).attach(engine)
        engine.run(cfg.duration)
        kinds = {r["kind"] for r in ring.records}
        assert "failure_event" in kinds
        assert "detection" in kinds


# --------------------------------------------------------------------- #
# profiler + manifest


#: ``(writer.written, writer.last_t)`` after the run below with
#: ``enable_checkpoints(path, every=97)``, as recorded at the commit before
#: the run loops were merged into one driver: snapshots must keep landing
#: on the same slots, on every backend
SNAPSHOT_SLOTS = {
    ("none", False): (3, 291),
    ("none", True): (4, 397),
    ("hbh+spray", False): (3, 291),
    ("hbh+spray", True): (6, 591),
}


@pytest.fixture
def two_shards():
    previous = set_default_shards(2)
    yield
    set_default_shards(previous)


class TestProfiler:
    @pytest.mark.parametrize("checkpoints", [False, True],
                             ids=["ckpt-off", "ckpt-on"])
    @pytest.mark.parametrize("drain", [False, True],
                             ids=["run", "run+drain"])
    @pytest.mark.parametrize("cc", ["none", "hbh+spray"])
    @pytest.mark.parametrize("backend", ["object", "vector", "shard"])
    def test_profiled_run_matches_unprofiled(self, backend, cc, drain,
                                             checkpoints, tmp_path,
                                             two_shards, slab_floor):
        # n=16 sits below the token family's size floor; the fixture lifts
        # it so the matrix profiles the token slab, not a silent reference
        # fallback

        def run(observed, backend=backend):
            # flows outlast the run so the drain has work; the warm-up
            # boundary falls mid-run so the measurement crossing is covered
            engine = make_engine(duration=300, seed=9, cc=cc, warmup=100,
                                 size_cells=120, backend=backend)
            engine.enable_digest()
            # every run records its windows and its flow events, so the
            # matrix also pins what the three pipelines hand the engine's
            # effect layer (flow start / finish, window close)
            rings[engine] = RingSink()
            EventLog([rings[engine]]).attach(engine)
            TimeSeriesRecorder().attach(engine)
            if observed:
                engine.enable_profiler()
                if checkpoints:
                    engine.enable_checkpoints(tmp_path / "run.ckpt", every=97)
            engine.run()
            if drain:
                engine.run_until_quiescent()
            return engine

        def recorded(engine):
            return RunState({
                "telemetry": engine.telemetry.to_dict(),
                "events": rings[engine].records,
                "metrics": engine.metrics.state_dict(),
            })

        rings = {}
        plain = run(observed=False)
        profiled = run(observed=True)
        reference = run(observed=False, backend="object")
        assert recorded(profiled) == recorded(plain) == recorded(reference)
        assert profiled.digest.hexdigest() == plain.digest.hexdigest()
        assert profiled.t == plain.t
        assert (plain.t > 300) == drain
        report = profiled.profiler.report()
        assert report["steps"] == profiled.t
        assert tuple(report["sections"]) == SECTIONS
        assert report["sections"]["tx"]["seconds"] > 0
        assert profiled.backend_effective == backend
        if backend == "vector":
            # the slab books its own sections: token credit under deliver,
            # token drain and dummy transmissions under tx
            assert report["sections"]["deliver"]["seconds"] > 0
        if checkpoints:
            writer = profiled._checkpointer
            assert (writer.written, writer.last_t) == SNAPSHOT_SLOTS[cc, drain]

    def test_report_structure(self):
        profiler = StepProfiler()
        profiler.add("faults", 0.1)
        profiler.add("deliver", 0.2)
        profiler.add("tx", 0.3, slots=1)
        rep = profiler.report()
        assert rep["steps"] == 1
        assert rep["seconds"] == pytest.approx(0.6)
        assert set(rep["sections"]) == set(SECTIONS)
        assert rep["sections"]["tx"]["fraction"] == pytest.approx(0.5)
        assert "slots/sec" in profiler.format_report()

    def test_zero_steps_report_is_finite(self):
        rep = StepProfiler().report()
        assert rep["slots_per_sec"] == 0.0
        assert rep["sections"]["deliver"]["us_per_step"] == 0.0


class TestManifest:
    def test_run_part_is_deterministic(self):
        texts = []
        for _ in range(2):
            engine = make_engine(duration=300, seed=4)
            TimeSeriesRecorder().attach(engine)
            engine.run(engine.config.duration)
            texts.append(canonical_json(run_manifest(engine)["run"]))
        assert texts[0] == texts[1]
        run = json.loads(texts[0])
        assert run["n"] == 16 and run["seed"] == 4 and run["slots"] == 300
        assert run["telemetry"] is True
        assert run["config"]["congestion_control"] == "hop-by-hop"

    def test_fallback_reason_sits_beside_the_effective_backend(self):
        engine = make_engine(duration=100, cc="isd", backend="vector")
        engine.run(engine.config.duration)
        run = run_manifest(engine)["run"]
        assert run["backend"] == "vector"
        assert run["backend_effective"] == "object"
        assert run["backend_reason"] == "congestion_control='isd'"
        accelerated = make_engine(duration=100, cc="none", backend="vector")
        accelerated.run(accelerated.config.duration)
        run = run_manifest(accelerated)["run"]
        assert run["backend_effective"] == "vector"
        assert run["backend_reason"] == ""

    def test_runtime_part_carries_machine_facts(self):
        engine = make_engine(duration=200)
        engine.enable_profiler()
        engine.run(engine.config.duration)
        manifest = run_manifest(engine, wall_seconds=2.0)
        runtime = manifest["runtime"]
        assert runtime["wall_seconds"] == 2.0
        assert runtime["slots_per_sec"] == pytest.approx(100.0)
        assert runtime["peak_rss_kb"] is None or runtime["peak_rss_kb"] > 0
        assert runtime["profile"]["steps"] == 200


# --------------------------------------------------------------------- #
# ambient capture + sweeps


def _sweep_cell(n, seed):
    """Module-level sweep worker (must be picklable)."""
    cfg = SimConfig(n=n, h=2, seed=seed, duration=300, propagation_delay=4,
                    congestion_control="none")
    engine = Engine(cfg, workload=permutation_workload(cfg, 10))
    engine.run(cfg.duration)
    return engine.metrics.payload_cells_delivered


class TestTelemetryCapture:
    def test_instruments_engines_built_inside(self):
        assert current_capture() is None
        with TelemetryCapture() as cap:
            assert current_capture() is cap
            engine = make_engine(duration=300, seed=6)
            assert engine.telemetry is not None
            assert engine.events is not None
            engine.run(engine.config.duration)
        assert current_capture() is None
        assert not engine_mod._construction_hooks
        runs, runtimes, events = cap.collect_bundle()
        assert len(runs) == len(runtimes) == 1
        assert runs[0]["index"] == 0
        assert runs[0]["manifest"]["seed"] == 6
        assert runs[0]["summary"]["cells_delivered"] > 0
        assert len(runs[0]["series"]["t"]) == len(runs[0]["series"]["delivered"])
        assert events and all(e["run"] == 0 for e in events)

    def test_nested_captures_share_instrumentation(self):
        # the outer hook attaches the recorder/log; the inner hook must not
        # replace them — it reuses the recorder and adds its own event sink
        with TelemetryCapture() as outer:
            with TelemetryCapture() as inner:
                engine = make_engine(duration=200, seed=2)
                engine.run(engine.config.duration)
            assert current_capture() is outer
        outer_runs = outer.collect()
        inner_runs = inner.collect()
        assert len(outer_runs) == len(inner_runs) == 1
        assert outer_runs[0]["series"] == inner_runs[0]["series"]
        assert outer.collect_events() == inner.collect_events()

    def test_sweep_workers_ship_telemetry_home(self):
        grid = [dict(n=16, seed=s) for s in (1, 2, 3, 4)]
        sequential = sweep(_sweep_cell, grid, workers=1)
        with TelemetryCapture() as cap:
            results = sweep(_sweep_cell, grid, workers=2)
        assert results == sequential
        runs = cap.collect()
        assert len(runs) == len(grid)
        assert [r["index"] for r in runs] == [0, 1, 2, 3]
        assert [r["manifest"]["seed"] for r in runs] == [1, 2, 3, 4]

    def test_merge_reindexes_runs_and_events(self):
        cap = TelemetryCapture()
        cap.merge(SweepTelemetry("r0", [{"index": 0, "manifest": {}}],
                                 [{"index": 0}], [{"run": 0, "t": 1,
                                                   "kind": "k",
                                                   "payload": {}}]))
        cap.merge(SweepTelemetry("r1", [{"index": 0, "manifest": {}}],
                                 [{"index": 0}], [{"run": 0, "t": 2,
                                                   "kind": "k",
                                                   "payload": {}}]))
        runs, runtimes, events = cap.collect_bundle()
        assert [r["index"] for r in runs] == [0, 1]
        assert [r["index"] for r in runtimes] == [0, 1]
        assert [e["run"] for e in events] == [0, 1]


class TestMultiClassTelemetry:
    def test_per_class_series(self):
        from repro.core.interleave import two_class_interleave
        from repro.sim.multiclass import MultiClassSimulation

        inter = two_class_interleave(16, 2, 4, s=0.5, cutoff_cells=50)
        base = SimConfig(n=16, h=2, duration=2000, propagation_delay=2,
                         congestion_control="hbh+spray", seed=8)
        sim = MultiClassSimulation(inter, base)
        recorders = sim.attach_telemetry()
        assert len(recorders) == 2
        # idempotent: a second attach keeps the same recorders
        assert sim.attach_telemetry() == recorders
        workload = [(0, i, (i + 1) % 16, 20, 20 * 512) for i in range(8)]
        workload += [(0, i, (i + 1) % 16, 200, 200 * 512)
                     for i in range(8, 16)]
        sim.schedule_flows(workload)
        sim.run(2000)
        by_class = sim.telemetry_by_class()
        assert set(by_class) == {0, 1}
        for series in by_class.values():
            assert set(series) == set(TimeSeriesRecorder.COLUMNS)
        total = sum(sum(series["delivered"]) for series in by_class.values())
        assert total > 0
        assert total <= sim.total_delivered_cells()
