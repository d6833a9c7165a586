"""The live service layer: sessions, the control plane, durability.

The load-bearing guarantee is **batch/live equivalence**: a session driven
incrementally — ``advance(k)`` interleaved with mid-run ``submit`` calls —
must produce the same :class:`~repro.sim.digest.DeterminismDigest` as one
batch :func:`repro.simulate` with every flow pre-scheduled.  The golden
test pins that for all four congestion-control mechanisms; the hypothesis
property fuzzes the slicing.
"""

import asyncio
import json
import os
import signal
import subprocess
import sys
import time

import pytest

try:
    from hypothesis import HealthCheck, given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - container always has it
    HAVE_HYPOTHESIS = False

from repro import RunResult, Session, SimConfig, open_session, simulate
from repro.service import (
    PROTOCOL_VERSION,
    ServiceClient,
    ServiceError,
    ServiceServer,
    SyncServiceClient,
    wait_for_ready,
)
from repro.service.protocol import (
    MAX_LINE_BYTES,
    decode_message,
    encode_message,
)
from repro.workloads import (
    OpenLoopSource,
    diurnal_curve,
    poisson_workload,
    streaming_workload,
    ShortFlowDistribution,
)

pytestmark = pytest.mark.service

MECHANISMS = ("none", "hop-by-hop", "hbh+spray", "isd")
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _cfg(cc="hbh+spray", **kw):
    kw.setdefault("n", 16)
    kw.setdefault("h", 2)
    kw.setdefault("duration", 2_000)
    return SimConfig(congestion_control=cc, **kw)


def _drive_in_chunks(session, flows, boundaries, horizon):
    """Advance through ``boundaries``, submitting due flows just in time."""
    cursor = 0
    for target in list(boundaries) + [horizon]:
        if target <= session.t:
            continue
        due = []
        while cursor < len(flows) and flows[cursor][0] < target:
            due.append(flows[cursor])
            cursor += 1
        if due:
            session.submit(due)
        session.advance(target - session.t)
    assert cursor == len(flows), "every flow submitted before its slot"


class TestGoldenEquivalence:
    """Incremental advance + live submission == batch, bit for bit."""

    @pytest.mark.parametrize("cc", MECHANISMS)
    def test_session_advance_matches_batch_digest(self, cc):
        cfg = _cfg(cc)
        curve = diurnal_curve(1_000)
        trace = streaming_workload(cfg, load=0.3, curve=curve,
                                   duration=2_000)
        batch = simulate(cfg, trace, drain=True, digest=True,
                         telemetry=True)

        session = open_session(cfg, telemetry=True, digest=True)
        _drive_in_chunks(session, trace, [137, 512, 513, 1_400], 2_000)
        live = session.finish(drain=True)

        assert live.digest == batch.digest
        assert live.summary == batch.summary
        assert len(live.telemetry) == len(batch.telemetry)

    @pytest.mark.parametrize("cc", MECHANISMS)
    def test_attached_source_matches_materialised_trace(self, cc):
        """Pulling the open-loop source live == pre-scheduling its trace."""
        cfg = _cfg(cc)
        curve = diurnal_curve(1_000)
        trace = streaming_workload(cfg, load=0.3, curve=curve,
                                   duration=2_000)
        batch = simulate(cfg, trace, drain=True, digest=True)

        source = OpenLoopSource(cfg, load=0.3, curve=curve)
        session = open_session(cfg, source=source, digest=True)
        while session.t < 2_000:
            session.advance(min(333, 2_000 - session.t))
        live = session.finish(drain=True)
        assert live.digest == batch.digest

    @pytest.mark.skipif(not HAVE_HYPOTHESIS, reason="hypothesis missing")
    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        boundaries=st.lists(st.integers(1, 999), min_size=0, max_size=8,
                            unique=True).map(sorted),
        seed=st.integers(0, 2**16),
    )
    def test_any_slicing_matches_batch(self, boundaries, seed):
        """Property: every timeline slicing is bit-exact with batch."""
        cfg = _cfg("hbh+spray", duration=1_000, seed=seed)
        flows = poisson_workload(cfg, ShortFlowDistribution(), load=0.25)
        batch = simulate(cfg, flows, drain=True, digest=True)

        session = open_session(cfg, digest=True)
        _drive_in_chunks(session, flows, boundaries, 1_000)
        live = session.finish(drain=True)
        assert live.digest == batch.digest


class TestSessionApi:
    def test_finish_returns_runresult(self):
        session = open_session(_cfg(), telemetry=True)
        session.advance(500)
        result = session.finish()
        assert isinstance(result, RunResult)
        assert result.engine is session.engine
        assert session.closed

    def test_closed_session_rejects_everything(self):
        session = open_session(_cfg())
        session.finish()
        for call in (lambda: session.advance(10),
                     lambda: session.submit([(0, 0, 1, 1, 64)]),
                     lambda: session.finish()):
            with pytest.raises(RuntimeError, match="finished"):
                call()

    def test_submit_late_raise_and_clamp(self):
        session = open_session(_cfg())
        session.advance(100)
        with pytest.raises(ValueError, match="in the past"):
            session.submit([(50, 0, 1, 2, 128)])
        assert session.submit([(50, 0, 1, 2, 128)], late="clamp") == 1
        session.advance(10)
        assert session.engine.flows.active_count >= 1
        with pytest.raises(ValueError, match="late"):
            session.submit([(500, 0, 1, 2, 128)], late="maybe")

    def test_submit_validates_tuple_shape(self):
        session = open_session(_cfg())
        with pytest.raises(ValueError, match="5 fields"):
            session.submit([(0, 1, 2, 3)])

    def test_advance_validation(self):
        session = open_session(_cfg())
        with pytest.raises(ValueError):
            session.advance(0)
        session.advance(10)
        with pytest.raises(ValueError, match="before the current"):
            session.advance_to(5)
        assert session.advance_to(10) == 10  # no-op target is fine
        assert session.advance_to(64) == 64

    def test_adjust_load_needs_source(self):
        session = open_session(_cfg())
        with pytest.raises(RuntimeError, match="source"):
            session.adjust_load(2.0)

    def test_workload_plus_source_compose(self):
        cfg = _cfg()
        source = OpenLoopSource(cfg, load=0.2)
        session = open_session(cfg, [(10, 0, 5, 3, 192)], source=source)
        session.advance(200)
        assert session.engine.metrics.cells_injected > 3

    def test_context_manager_finishes(self):
        with open_session(_cfg()) as session:
            session.advance(50)
        assert session.closed

    def test_source_config_mismatch_rejected(self):
        small = OpenLoopSource(_cfg(), load=0.2)
        with pytest.raises(ValueError, match="n="):
            open_session(_cfg(n=81), source=small)

    def test_status_shape(self):
        cfg = _cfg()
        session = open_session(cfg, source=OpenLoopSource(cfg, load=0.2),
                               telemetry=True)
        session.advance(200)
        status = session.status()
        assert status["t"] == 200
        assert status["n"] == 16
        assert status["load_factor"] == 1.0
        assert status["telemetry_rows"] == len(session.recorder)
        assert not status["closed"]
        assert status["backend"] == cfg.backend
        assert status["backend_reason"] == ""

    def test_status_says_why_the_backend_fell_back(self):
        cfg = _cfg("isd", backend="vector")
        session = open_session(cfg)
        session.advance(50)
        status = session.status()
        assert status["backend"] == "object"
        assert status["backend_reason"] == "congestion_control='isd'"
        # ... and that its first slot had to build the object model
        assert status["model_syncs"] == 1


class TestSessionDurability:
    def test_checkpoint_resume_is_bit_exact(self, tmp_path):
        """kill/restart mid-run == uninterrupted, source state included."""
        cfg = _cfg()
        curve = diurnal_curve(1_000)

        reference = open_session(
            cfg, source=OpenLoopSource(cfg, load=0.3, curve=curve),
            digest=True, telemetry=True)
        while reference.t < 2_000:
            reference.advance(250)
        ref_result = reference.finish(drain=True)

        path = tmp_path / "live.ckpt"
        first = open_session(
            cfg, source=OpenLoopSource(cfg, load=0.3, curve=curve),
            digest=True, telemetry=True, checkpoint=str(path),
            checkpoint_every=500)
        first.advance(250)
        first.advance(250)  # crosses 500 -> snapshot written
        assert path.exists()
        del first  # simulate the crash: no finish(), no cleanup

        resumed = open_session(
            cfg, source=OpenLoopSource(cfg, load=0.3, curve=curve),
            digest=True, telemetry=True, checkpoint=str(path),
            checkpoint_every=500)
        assert resumed.resumed_from == 500
        assert resumed.t == 500
        while resumed.t < 2_000:
            resumed.advance(250)
        result = resumed.finish(drain=True)

        assert result.digest == ref_result.digest
        assert result.summary == ref_result.summary
        # telemetry rows ride in the snapshot: the composed series is the
        # uninterrupted one
        assert result.telemetry.series()["t"].tolist() == \
            ref_result.telemetry.series()["t"].tolist()
        assert not path.exists()  # finish() removed the resume point

    def test_a_slab_session_is_durable_without_an_object_model(self, tmp_path):
        """n=144 is above the token family's size floor, so the session
        steps on the vector slab: ``checkpoint_now()`` reads the snapshot
        off the columns, the killed-and-restarted session packs the
        payload as it is, and neither ever builds a node."""
        cfg = _cfg(n=144, backend="vector", duration=1_000)

        def session(**durability):
            return open_session(
                cfg, source=OpenLoopSource(cfg, load=0.3), digest=True,
                telemetry=True, **durability)

        reference = session()
        while reference.t < 1_000:
            reference.advance(125)
        ref_result = reference.finish(drain=True)

        path = tmp_path / "slab.ckpt"
        first = session(checkpoint=str(path))
        first.advance(125)
        first.advance(125)
        first.checkpoint_now()
        assert first.status()["backend"] == "vector"
        assert first.status()["model_syncs"] == 0
        del first  # simulate the crash: no finish(), no cleanup

        resumed = session(checkpoint=str(path))
        assert resumed.resumed_from == resumed.t == 250
        while resumed.t < 1_000:
            resumed.advance(125)
        result = resumed.finish(drain=True)
        status = resumed.status()
        assert status["backend"] == "vector"
        assert status["backend_reason"] == "" and status["model_syncs"] == 0
        assert result.digest == ref_result.digest
        assert result.summary == ref_result.summary
        assert result.telemetry.series()["t"].tolist() == \
            ref_result.telemetry.series()["t"].tolist()

    def test_resume_without_source_refused(self, tmp_path):
        cfg = _cfg()
        path = tmp_path / "s.ckpt"
        session = open_session(cfg, source=OpenLoopSource(cfg, load=0.2),
                               checkpoint=str(path))
        session.advance(100)
        session.checkpoint_now()
        with pytest.raises(ValueError, match="source"):
            open_session(cfg, checkpoint=str(path))

    def test_resume_config_mismatch_refused(self, tmp_path):
        path = tmp_path / "s.ckpt"
        session = open_session(_cfg(), checkpoint=str(path))
        session.advance(100)
        session.checkpoint_now()
        with pytest.raises(ValueError, match="different configuration"):
            open_session(_cfg(cc="isd"), checkpoint=str(path))

    def test_checkpoint_now_requires_path(self):
        session = open_session(_cfg())
        with pytest.raises(RuntimeError, match="no checkpoint path"):
            session.checkpoint_now()


class TestProtocol:
    def test_roundtrip(self):
        message = {"id": 3, "op": "submit", "flows": [[0, 1, 2, 3, 64]]}
        assert decode_message(encode_message(message)) == message

    def test_junk_raises(self):
        with pytest.raises(ServiceError):
            decode_message(b"not json\n")
        with pytest.raises(ServiceError):
            decode_message(b"[1,2,3]\n")


class TestControlPlane:
    """In-process server/client round trips (one event loop, no sockets
    left behind; driven with asyncio.run — no pytest-asyncio needed)."""

    def _serve(self, coro_fn, *, source_load=0.2, checkpoint=None,
               max_slots=None, digest=False):
        async def scenario():
            cfg = _cfg()
            source = OpenLoopSource(cfg, load=source_load)
            session = open_session(cfg, source=source, telemetry=True,
                                   digest=digest,
                                   checkpoint=checkpoint,
                                   checkpoint_every=500)
            server = ServiceServer(session, quantum=100,
                                   max_slots=max_slots)
            await server.start()
            run_task = asyncio.ensure_future(server.run())
            try:
                async with ServiceClient("127.0.0.1",
                                         server.port) as client:
                    return await coro_fn(server, client)
            finally:
                if not server._finished.is_set():
                    server._stop = True
                await run_task

        return asyncio.run(scenario())

    def test_ping_and_status(self):
        async def scenario(server, client):
            pong = await client.ping()
            assert pong["protocol"] == PROTOCOL_VERSION
            status = await client.status()
            assert status["n"] == 16 and not status["closed"]
            return True

        assert self._serve(scenario)

    def test_submit_adjust_and_poll(self):
        async def scenario(server, client):
            assert await client.submit([[0, 0, 5, 3, 192]]) == 1
            assert await client.adjust_load(1.5) == 1.5
            await asyncio.sleep(0.1)
            status = await client.status()
            assert status["load_factor"] == 1.5
            rows = await client.telemetry_rows(since=0)
            assert rows and rows[0]["t"] == 0
            more = await client.telemetry_rows(since=len(rows))
            assert all(r["t"] > rows[-1]["t"] for r in more)
            return True

        assert self._serve(scenario)

    def test_stream_telemetry_push(self):
        async def scenario(server, client):
            await client.stream_telemetry()
            row = await asyncio.wait_for(client.telemetry.get(), timeout=20)
            assert set(row) == set(server.session.recorder.COLUMNS)
            await client.stop_stream()
            return True

        assert self._serve(scenario)

    def test_drain_and_stop_returns_summary(self):
        async def scenario(server, client):
            response = await client.drain_and_stop()
            assert response["summary"]["cells_delivered"] >= 0
            assert server.session.closed
            return True

        assert self._serve(scenario)
        # drain path produced a RunResult on the server

    def test_checkpoint_now_over_the_wire(self, tmp_path):
        path = str(tmp_path / "wire.ckpt")

        async def scenario(server, client):
            written = await client.checkpoint_now()
            assert written == path
            assert os.path.exists(path)
            await client.stop()
            return True

        assert self._serve(scenario, checkpoint=path)
        # 'stop' (unlike drain) keeps the checkpoint as the resume point
        assert os.path.exists(path)

    def test_checkpoint_now_without_path_errors(self):
        async def scenario(server, client):
            with pytest.raises(ServiceError, match="checkpoint"):
                await client.checkpoint_now()
            return True

        assert self._serve(scenario)

    def test_bad_requests_get_errors_not_disconnects(self):
        async def scenario(server, client):
            with pytest.raises(ServiceError, match="unknown op"):
                await client.request("frobnicate")
            with pytest.raises(ServiceError, match="flows"):
                await client.request("submit", flows="nope")
            with pytest.raises(ServiceError, match="factor"):
                await client.request("adjust-load", factor="lots")
            # connection still alive after three errors
            assert (await client.ping())["ok"]
            return True

        assert self._serve(scenario)

    def test_non_finite_load_factor_is_refused(self):
        """JSON's ``Infinity`` parses to a float; adopted, it would make
        the source's next ``take`` loop forever inside the drive loop."""
        async def scenario(server, client):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port)
            writer.write(b'{"id":1,"op":"adjust-load","factor":Infinity}\n'
                         b'{"id":2,"op":"status"}\n')
            replies = []
            for _ in range(2):
                line = await asyncio.wait_for(reader.readline(), timeout=20)
                replies.append(decode_message(line))
            writer.close()
            refused, status = replies
            assert refused["id"] == 1 and not refused["ok"]
            assert "finite" in refused["error"]
            assert status["id"] == 2 and status["ok"]
            assert status["load_factor"] == 1.0
            return True

        assert self._serve(scenario)

    def test_deeply_nested_line_gets_an_error_reply(self):
        """A line under MAX_LINE_BYTES nested deeper than the JSON parser's
        stack is answered like any other junk, and the connection lives."""
        line = b"[" * 30_000 + b"]" * 30_000 + b"\n"
        assert len(line) < MAX_LINE_BYTES

        async def scenario(server, client):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port)
            writer.write(line + b'{"id":2,"op":"ping"}\n')
            replies = []
            for _ in range(2):
                reply = await asyncio.wait_for(reader.readline(), timeout=20)
                replies.append(decode_message(reply))
            writer.close()
            refused, pong = replies
            assert refused["id"] is None and not refused["ok"]
            assert "undecodable" in refused["error"]
            assert pong["id"] == 2 and pong["ok"]
            return True

        assert self._serve(scenario)

    def test_oversized_line_gets_an_error_reply(self):
        """A request line past MAX_LINE_BYTES — here a 4000-flow submit —
        is answered with an error naming the limit and that connection is
        closed; other connections and the simulation never notice."""
        flows = [[1_000_000 + i, i % 16, (i + 1) % 16, 100 + i, 24_400 + i]
                 for i in range(4000)]
        line = encode_message({"id": 1, "op": "submit", "flows": flows})
        assert len(line) > MAX_LINE_BYTES

        async def undisturbed(server, client):
            await server._finished.wait()
            return server.result.digest

        async def oversized(server, client):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port)
            writer.write(line)
            reply = decode_message(
                await asyncio.wait_for(reader.readline(), timeout=20))
            assert reply == {
                "id": None, "ok": False,
                "error": f"line exceeds {MAX_LINE_BYTES} bytes",
            }
            try:  # hung up (a reset if part of the line was still unread)
                tail = await asyncio.wait_for(reader.read(), timeout=20)
            except ConnectionError:
                tail = b""
            assert tail == b""
            writer.close()
            async with ServiceClient("127.0.0.1", server.port) as second:
                assert (await second.ping())["ok"]
            await server._finished.wait()
            return server.result.digest

        expected = self._serve(undisturbed, max_slots=1_500, digest=True)
        assert expected is not None
        assert self._serve(oversized, max_slots=1_500, digest=True) \
            == expected

    def test_max_slots_auto_drains(self):
        async def scenario(server, client):
            await server._finished.wait()
            return server.result

        result = self._serve(scenario, max_slots=1_500)
        assert result is not None
        assert result.summary["cells_delivered"] > 0


class TestServeArguments:
    @pytest.mark.parametrize("flag, field", [
        ("--sample-interval", "metrics_sample_interval"),
        ("--checkpoint-every", "checkpoint interval"),
    ])
    def test_bad_interval_fails_before_binding(self, flag, field,
                                               monkeypatch, tmp_path):
        """``serve --sample-interval 0`` used to start a service whose
        first monitored slot divided by zero, and ``--checkpoint-every 0``
        one that snapshotted every 100 000 slots; both are refused while
        the arguments are read, before any port is bound."""
        from repro.service import server as server_mod

        def bind(*args, **kwargs):
            raise AssertionError("a port was bound")

        monkeypatch.setattr(server_mod, "ServiceServer", bind)
        with pytest.raises(ValueError, match=field):
            server_mod.main([flag, "0",
                             "--checkpoint", str(tmp_path / "s.ckpt")])


@pytest.mark.slow
class TestServeSubprocess:
    """The full CLI: spawn, drive, kill -9, resume from the checkpoint."""

    def _spawn(self, ck, extra=()):
        args = [sys.executable, "-m", "repro", "serve", "--n", "16",
                "--seed", "7", "--load", "0.2", "--quantum", "200",
                "--checkpoint", ck, "--checkpoint-every", "1000",
                *extra]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
        return subprocess.Popen(args, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, env=env)

    def test_kill_resume_composes_gap_free_telemetry(self, tmp_path):
        ck = str(tmp_path / "serve.ckpt")
        proc = self._spawn(ck)
        try:
            ready = wait_for_ready(proc.stdout)
            assert ready["resumed_from"] is None
            client = SyncServiceClient(ready["host"], ready["port"])
            assert client.submit([[0, 1, 9, 4, 256]]) == 1
            assert client.adjust_load(2.0) == 2.0
            deadline = time.time() + 30
            while time.time() < deadline:
                if client.status()["t"] >= 2_000:
                    break
                time.sleep(0.05)
            rows_before = client.telemetry_rows(since=0)
            assert rows_before
            os.kill(proc.pid, signal.SIGKILL)
            proc.wait(timeout=10)
            client.close()
            assert os.path.exists(ck)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()

        proc2 = self._spawn(ck)
        try:
            ready2 = wait_for_ready(proc2.stdout)
            assert ready2["resumed_from"] and ready2["resumed_from"] > 0
            client2 = SyncServiceClient(ready2["host"], ready2["port"])
            rows_after = client2.telemetry_rows(since=0)
            # restored rows re-cover the pre-crash ones identically...
            overlap = min(len(rows_before), len(rows_after))
            # (the crashed run outlived its last snapshot; only rows up to
            # the snapshot are replayed)
            snap_rows = [r for r in rows_before
                         if r["t"] < ready2["resumed_from"]]
            assert rows_after[:len(snap_rows)] == snap_rows
            # ...and the composed stream is gap-free at the sample interval
            ts = sorted({r["t"] for r in rows_before + rows_after})
            spacing = {b - a for a, b in zip(ts, ts[1:])}
            assert spacing == {50}
            summary = client2.drain_and_stop()
            assert summary["completed_flows"] > 0
            client2.close()
            out, _ = proc2.communicate(timeout=30)
            assert proc2.returncode == 0
            final = json.loads(out.decode().strip().splitlines()[-1])
            assert final["finished"]
            assert not os.path.exists(ck)
        finally:
            if proc2.poll() is None:
                proc2.kill()
                proc2.wait()
