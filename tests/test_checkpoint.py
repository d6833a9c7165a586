"""Checkpoint/resume: bit-exact snapshots of a running simulation.

The contract under test: ``run(0..T)`` and ``run(0..k); snapshot; restore;
run(k..T)`` are indistinguishable — same determinism digest, same metrics,
same flow records — for every congestion-control mechanism, with and
without failures and telemetry.  Plus the file format's self-healing: a
corrupt, truncated or foreign-versioned checkpoint is treated as absent
(start from slot 0), never a crash.
"""

import hashlib
import json
import logging
import pathlib
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import open_session
from repro.failures.manager import (
    FailureEvent,
    FailureManager,
    LinkFailureEvent,
)
from repro.obs.events import EventLog, RingSink
from repro.obs.timeseries import TimeSeriesRecorder
from repro.sim import tables
from repro.sim.checkpoint import (
    CHECKPOINT_VERSION,
    CheckpointError,
    CheckpointPolicy,
    CheckpointWriter,
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

from .equivalence import equal
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

        assert equal(rec3.state_dict(), rec1.state_dict())
        assert log3.state_dict() == log1.state_dict()
        assert restored.digest.value == straight.digest.value

    def test_failure_manager_restored_mid_outage(self, tmp_path):
        """Snapshot taken between failure and recovery keeps the protocol."""
        params = SCENARIOS["n16_nodefail"]
        straight = run_scenario("hbh+spray", params)
        k = (params["fail_at"] + params["recover_at"]) // 2
        resumed = _run_through_checkpoint("hbh+spray", params, k, tmp_path)
        assert resumed == straight


class TestQueuedControlAndTokens:
    """A snapshot taken while control messages and tokens wait in their
    queues.  Nodes make those queues on first use, so a node's control
    queues exist in the order its links first carried a message; the
    rows must still come out in link order, or a round trip (which
    refills them in row order) would change what the node encodes."""

    DURATION = 600

    def _engine(self):
        cfg = SimConfig(n=16, h=2, seed=2, duration=self.DURATION,
                        propagation_delay=4, congestion_control="ndp")
        manager = FailureManager(events=[
            FailureEvent(100, 5), LinkFailureEvent(120, 0, 1),
            FailureEvent(300, 5, failed=False),
            LinkFailureEvent(320, 0, 1, failed=False),
        ])
        engine = Engine(cfg, workload=permutation_workload(cfg, 40),
                        failure_manager=manager)
        engine.enable_digest()
        return engine

    @staticmethod
    def _rows(node):
        rows = {name: [] for name in tables.TABLES}
        node.state_rows(rows)
        return rows

    @staticmethod
    def _queued_out_of_link_order(nodes):
        """Control and tokens are queued, and some node made its queued
        control links in an order other than link order."""
        def shuffled(node):
            links = [link for link, held in node.ctrl_out.items() if held]
            return links != sorted(links)

        return (any(node.pending_ctrl for node in nodes)
                and any(node.pending_tokens for node in nodes)
                and any(map(shuffled, nodes)))

    def test_round_trip_with_queued_control_and_tokens(self, tmp_path):
        straight = self._engine()
        straight.run()

        engine = self._engine()
        while not self._queued_out_of_link_order(engine.nodes):
            assert engine.t < self.DURATION, "no slot queues both"
            engine.step()
        k = engine.t
        snapshot = engine.snapshot()
        model = snapshot.state["nodes"]
        assert len(model["ctrl_out"]) and len(model["tokens"])
        # node-major, then link order, as tables.TABLES has it
        keys = model["ctrl_out"][:, :2].tolist()
        assert keys == sorted(keys)
        before = [self._rows(node) for node in engine.nodes]

        path = tmp_path / "queued.ckpt"
        save_checkpoint(snapshot, path)
        restored = restore_engine(load_checkpoint(path))
        assert [self._rows(node) for node in restored.nodes] == before
        restored.run(self.DURATION - k)
        assert restored.digest.value == straight.digest.value


class TestBareHeadersAcrossSnapshot:
    """A snapshot taken while a header with no payload is on the wire: the
    ``wire`` row says ``payload`` 0 and has no ``cells`` row, and the
    resumed run is the uninterrupted one."""

    DURATION = 400

    def _engine(self, n, cc, backend, events):
        cfg = SimConfig(n=n, h=2, seed=4, duration=self.DURATION,
                        propagation_delay=3, congestion_control=cc,
                        backend=backend)
        manager = FailureManager(events=list(events)) if events else None
        engine = Engine(cfg, workload=permutation_workload(cfg, 40),
                        failure_manager=manager)
        engine.enable_digest()
        return engine

    @staticmethod
    def _bare(model, empty):
        """The wire rows of ``model`` that carry no payload (and, if
        ``empty``, no token or control message either)."""
        rows = (model["wire"][:, tables.col("wire", "payload")] == 0)
        rows = rows.nonzero()[0]
        if empty:
            rows = np.setdiff1d(rows, np.concatenate(
                (model["wire_tokens"][:, 0], model["wire_ctrl"][:, 0])))
        return rows

    @pytest.mark.parametrize("n, cc, backend, events", [
        # hop-by-hop credit returns in bare headers
        (64, "hbh+spray", "object", ()),
        # a link that recovers: the first side to hear the other's probe
        # again answers with a probe reply, a header carrying nothing
        (16, "none", "object",
         (LinkFailureEvent(0, 0, 1), LinkFailureEvent(100, 0, 1,
                                                      failed=False))),
        (144, "hbh+spray", "vector", ()),
    ])
    def test_resume_from_a_bare_header_on_the_wire(self, n, cc, backend,
                                                   events, tmp_path):
        straight = self._engine(n, cc, backend, events)
        straight.run()
        engine = self._engine(n, cc, backend, events)
        payload = tables.col("wire", "payload")
        while True:
            engine.run(1)
            assert engine.t < self.DURATION, "no bare header ever in flight"
            snapshot = engine.snapshot()
            if self._bare(snapshot.state["nodes"], bool(events)).size:
                break
        path = tmp_path / "bare.ckpt"
        save_checkpoint(snapshot, path)
        loaded = load_checkpoint(path)
        model = loaded.state["nodes"]
        assert (model["wire"][:, payload] == 0).any()
        assert len(model["cells"]) == model["queues"].sum() \
            + model["wire"][:, payload].sum()
        restored = restore_engine(loaded)
        restored.run(self.DURATION - restored.t)
        assert restored.digest.hexdigest() == straight.digest.hexdigest()
        assert restored.backend_effective == straight.backend_effective \
            == backend


_MAGIC = b"SHALECKPT\n"


def _sections(path):
    """A checkpoint file's sections: magic, version line, JSON document
    line, array sections, footer."""
    data = path.read_bytes()
    version, _, rest = data[len(_MAGIC):-32].partition(b"\n")
    document, _, sections = rest.partition(b"\n")
    return [_MAGIC, version + b"\n", document + b"\n", sections, data[-32:]]


def _sealed(*payload):
    """The file holding ``payload`` under a good magic and footer."""
    payload = b"".join(payload)
    return _MAGIC + payload + hashlib.sha256(payload).digest()


def _document(document, edit):
    tree = json.loads(document)
    edit(tree)
    return json.dumps(tree).encode() + b"\n"


class _Planted:
    """Unpickling one of these would create the sentinel file."""

    def __init__(self, sentinel):
        self.sentinel = sentinel

    def __reduce__(self):
        return (pathlib.Path.touch, (self.sentinel,))


def _section(field, value):
    """A good file whose document says of the ``nodes.cells`` section that
    its ``field`` (1: dtype, 2: shape) is ``value``; the bytes stay."""
    def damage(parts, _):
        def change(tree):
            entry, = (e for e in tree["sections"] if e[0] == "nodes.cells")
            entry[field] = value
        return _sealed(parts[1], _document(parts[2], change), parts[3])
    return damage


def _flipped(parts, sentinel):
    data = bytearray(b"".join(parts))
    data[len(data) // 2] ^= 0xFF
    return bytes(data)


#: case -> (what it does to a good file's sections, the reason it reads)
HOSTILE = {
    **{f"truncated-after-{name}": (
        lambda parts, _, keep=keep: b"".join(parts[:keep]),
        "not a checkpoint|integrity")
       for keep, name in enumerate(
           ("magic", "version", "document", "sections"), start=1)},
    "foreign-magic": (
        lambda parts, _: b"SOMETHING\n" + b"".join(parts[1:]),
        "not a checkpoint file"),
    "version-2-pickle-era": (
        lambda parts, sentinel: _sealed(pickle.dumps(
            {"version": 2, "config": _Planted(sentinel), "state": {}})),
        r"unsupported checkpoint version.*: 2 or earlier \(want 9\)"),
    # a v3 file's digest value is FNV-1a state: continuing it with the
    # two-level hash would give a digest that matches nothing
    "version-3-fnv-digest": (
        lambda parts, _: _sealed(b"3\n", *parts[2:4]),
        r"unsupported checkpoint version.*: 3 \(want 9\)"),
    # a v4 file's cells carry a twelfth column and its metrics two records
    # no v6 reader has a place for
    "version-4-unread-records": (
        lambda parts, _: _sealed(b"4\n", *parts[2:4]),
        r"unsupported checkpoint version.*: 4 \(want 9\)"),
    # a v5 file keeps the PIEO high-water mark per queue, where a v6
    # reader finds a queue's seq
    "version-5-queue-peaks": (
        lambda parts, _: _sealed(b"5\n", *parts[2:4]),
        r"unsupported checkpoint version.*: 5 \(want 9\)"),
    # a v6 file's cells carry a spray phase and a dummy flag, its queues
    # and ranks a seq, and its wire rows a cell each, bare headers too
    "version-6-dummy-cells": (
        lambda parts, _: _sealed(b"6\n", *parts[2:4]),
        r"unsupported checkpoint version.*: 6 \(want 9\)"),
    # a v7 file's scalars carry three counters, and it holds a ranks
    # table, an active set and an in-flight count a v8 reader derives
    "version-7-stored-counters": (
        lambda parts, _: _sealed(b"7\n", *parts[2:4]),
        r"unsupported checkpoint version.*: 7 \(want 9\)"),
    # a v8 file's scalars carry each node's tracker and PIEO peaks, where
    # a v9 reader finds ``failed`` alone
    "version-8-node-peaks": (
        lambda parts, _: _sealed(b"8\n", *parts[2:4]),
        r"unsupported checkpoint version.*: 8 \(want 9\)"),
    "version-99": (
        lambda parts, _: _sealed(b"99\n", *parts[2:4]),
        r"unsupported checkpoint version.*: 99 \(want 9\)"),
    "flipped-byte": (_flipped, "integrity"),
    "section-overruns-file": (
        _section(2, [10**6, 12]),
        "undecodable.*buffer is smaller"),
    "object-dtype-section": (
        _section(1, "|O"),
        r"undecodable.*'nodes.cells' is a object"),
    "document-not-json": (
        lambda parts, _: _sealed(parts[1], b"{not json\n", parts[3]),
        "undecodable.*JSONDecodeError"),
    "document-lacks-config": (
        lambda parts, _: _sealed(parts[1], _document(
            parts[2], lambda tree: tree.pop("config")), parts[3]),
        "undecodable.*KeyError.*config"),
    "state-lacks-key": (
        lambda parts, _: _sealed(parts[1], _document(
            parts[2], lambda tree: tree["state"].pop("t")), parts[3]),
        r"undecodable.*state lacks \['t'\]"),
}


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

    @pytest.mark.parametrize("case", sorted(HOSTILE))
    def test_hostile_file(self, case, tmp_path, caplog):
        """Whatever is wrong with a file, ``load_checkpoint`` says so as a
        ``CheckpointError`` naming the reason — never a numpy / json /
        zipfile / Key error, and nothing in the file is ever executed — and
        the self-healing load discards it with exactly one WARNING."""
        _, path = self._snapshot(tmp_path)
        sentinel = tmp_path / "sentinel"
        damage, reason = HOSTILE[case]
        path.write_bytes(damage(_sections(path), sentinel))
        with pytest.raises(CheckpointError, match=reason):
            load_checkpoint(path)
        assert path.exists() and caplog.records == []
        with caplog.at_level(logging.WARNING, logger="repro.checkpoint"):
            assert load_checkpoint_or_none(path) is None
        assert not path.exists() and not sentinel.exists()
        (record,) = caplog.records
        assert record.name == "repro.checkpoint"
        assert record.levelno == logging.WARNING
        assert str(path) in record.getMessage()

    def test_config_mismatch_is_an_unusable_checkpoint(self, tmp_path,
                                                       caplog):
        """``simulate()`` refuses a checkpoint of another configuration by
        name, as a session does, and leaves the file in place; a sweep
        cell's scope used to unlink one without a word: it is unusable
        like any other there, and the one loader says so."""
        from repro.api import simulate

        _, path = self._snapshot(tmp_path)
        other = SimConfig(n=16, h=2, seed=2, duration=200,
                          propagation_delay=4, congestion_control="none")
        with pytest.raises(ValueError, match="different configuration"):
            simulate(other, checkpoint=path)
        assert path.exists()
        policy = CheckpointPolicy(tmp_path, every=100)
        _, theirs = self._snapshot(tmp_path)
        theirs.rename(tmp_path / "feedface-00.ckpt")
        with caplog.at_level(logging.WARNING, logger="repro.checkpoint"):
            with policy.cell_scope("feedface") as scope:
                engine = Engine(other)
        assert scope.resumed == [] and engine.t == 0
        assert not (tmp_path / "feedface-00.ckpt").exists()
        (record,) = caplog.records
        assert "feedface-00.ckpt" in record.getMessage()
        assert "different configuration" in record.getMessage()


class TestSnapshotIsTheSizeOfTheNetwork:
    def test_metrics_state_stops_growing_with_the_clock(self):
        """A long run's collector state is counts, not history: between
        t = 5 000 and t = 20 000 of a live hbh+spray session the arrays of
        the ``metrics`` section grow by a few tally slots at most — no raw
        sample, no per-window or per-destination list.  The key set is the
        format."""
        cfg = SimConfig(n=16, h=2, seed=1, congestion_control="hbh+spray",
                        metrics_sample_interval=50)
        session = open_session(
            cfg, source=OpenLoopSource(cfg, load=0.25), telemetry=True)

        def sizes(horizon):
            session.advance_to(horizon)
            metrics = session.engine.snapshot().state["metrics"]
            return sum(held.nbytes for held in metrics.values()
                       if isinstance(held, np.ndarray))

        early = sizes(5_000)
        assert sizes(20_000) - early <= 256
        metrics = session.engine.metrics
        state = metrics.state_dict()
        assert set(state) == {
            "scalars", "buffer_counts", "queue_counts", "measuring",
        }
        # canonical: dense, trimmed to the largest value ever sampled
        assert state["buffer_counts"][-1] > 0
        assert len(state["queue_counts"]) == metrics.queue_counts.size \
            <= metrics.max_queue_length + 1


def _simulate_every(tmp_path, every):
    from repro.api import simulate

    simulate(SimConfig(n=16, h=2, duration=10), checkpoint=tmp_path / "s.ckpt",
             checkpoint_every=every)


def _session_every(tmp_path, every):
    open_session(SimConfig(n=16, h=2), checkpoint=tmp_path / "s.ckpt",
                 checkpoint_every=every)


class TestCheckpointInterval:
    @pytest.mark.parametrize("every", [0, -1])
    @pytest.mark.parametrize("entry", [
        _simulate_every, _session_every,
    ], ids=["simulate", "open_session"])
    def test_interval_below_one_is_refused(self, tmp_path, entry, every):
        """Regression: ``checkpoint_every=0`` used to read as "unset" and
        become the 100 000-slot default; only None means the default.  The
        runner's ``--checkpoint-every`` is a usage error instead
        (``tests/test_runner_cli.py``)."""
        with pytest.raises(ValueError, match="checkpoint interval"):
            entry(tmp_path, every)

    @pytest.mark.parametrize("make, every, name", [
        (lambda path, every: CheckpointWriter(path / "w.ckpt", every),
         2.5, "every"),
        (lambda path, every: CheckpointWriter(path / "w.ckpt", every),
         True, "every"),
        (lambda path, every: CheckpointPolicy(path, every=every),
         2.5, "every"),
        (lambda path, every: CheckpointPolicy(path, every=every),
         True, "every"),
        (_session_every, 2.5, "checkpoint_every"),
        (_session_every, True, "checkpoint_every"),
        (_simulate_every, 2.5, "checkpoint_every"),
    ], ids=["writer-float", "writer-bool", "policy-float", "policy-bool",
            "session-float", "session-bool", "simulate-float"])
    def test_non_integral_interval_is_refused(self, tmp_path, make, every,
                                              name):
        """An interval is never truncated (2.5 -> 2), read as 1 (True) or
        kept as a float that schedules a snapshot at slot 12.5: each entry
        point refuses it, by name."""
        with pytest.raises(ValueError,
                           match=f"checkpoint interval {name}={every!r} "):
            make(tmp_path, every)


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


class _Killed(Exception):
    pass


#: the slot at which :func:`_sweep_cell` dies, or None to run to the end;
#: module state, not a cell kwarg, so a rerun has the dead cell's identity
_KILL_AT = None


def _sweep_cell(n, duration):
    cfg = SimConfig(n=n, h=2, seed=3, duration=duration,
                    congestion_control="hbh+spray")
    engine = Engine(cfg, workload=permutation_workload(cfg, 400))
    if _KILL_AT is not None:
        # die inside the same run() a rerun makes: a snapshot resumes the
        # loop it was taken in
        real_step = engine.step

        def step():
            if engine.t >= _KILL_AT:
                raise _Killed(f"killed at slot {engine.t}")
            real_step()
        engine.step = step
    engine.run()
    return engine.metrics.payload_cells_delivered


class TestCellIdentity:
    def test_a_snapshot_taken_without_telemetry_is_not_resumed_under_it(
            self, tmp_path, monkeypatch):
        """Regression: the snapshot's name left out whether a capture was
        on, so a cell killed without telemetry and rerun with it resumed
        from the snapshot and recorded its series from that slot on."""
        from repro.obs.capture import TelemetryCapture
        from repro.obs.serialize import canonical_json
        from repro.sim.checkpoint import set_default_policy
        from repro.sim.parallel import sweep

        grid = [dict(n=16, duration=1_000)]

        def instrumented():
            with TelemetryCapture() as capture:
                values = sweep(_sweep_cell, grid)
            runs, runtimes, _ = capture.collect_bundle()
            return values, runs, runtimes

        clean, clean_runs, _ = instrumented()
        previous = set_default_policy(CheckpointPolicy(tmp_path, every=200))
        try:
            monkeypatch.setitem(globals(), "_KILL_AT", 500)
            with pytest.raises(_Killed):
                sweep(_sweep_cell, grid)
            assert list(tmp_path.glob("*.ckpt"))
            monkeypatch.setitem(globals(), "_KILL_AT", None)
            values, runs, runtimes = instrumented()
        finally:
            set_default_policy(previous)
        assert runtimes[0]["runtime"]["cell_resume_slot"] is None
        assert values == clean
        assert runs[0]["series"]["t"][0] == 0
        assert canonical_json(runs) == canonical_json(clean_runs)


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
