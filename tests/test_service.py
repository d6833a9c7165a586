"""The live service layer: sessions, the control plane, durability.

The load-bearing guarantee is **batch/live equivalence**: a session driven
incrementally — ``advance(k)`` interleaved with mid-run ``submit`` calls —
must produce the same :class:`~repro.sim.digest.DeterminismDigest` as one
batch :func:`repro.simulate` with every flow pre-scheduled.  The
differential machine (``tests/test_differential.py``) holds the slicing,
the submissions and the restores to that, for every mechanism; here an
attached open-loop source is held to its materialised trace.
"""

import asyncio
import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro import RunResult, Session, SimConfig, open_session, simulate
from repro.obs.timeseries import TimeSeriesRecorder
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
from repro.sim.checkpoint import load_checkpoint
from repro.workloads import (
    OpenLoopSource,
    ShortFlowDistribution,
    diurnal_curve,
    poisson_workload,
    streaming_workload,
)

pytestmark = pytest.mark.service

MECHANISMS = ("none", "hop-by-hop", "hbh+spray", "isd")
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _cfg(cc="hbh+spray", **kw):
    kw.setdefault("n", 16)
    kw.setdefault("h", 2)
    kw.setdefault("duration", 2_000)
    return SimConfig(congestion_control=cc, **kw)


#: one flow per way a submission can be malformed at n=16 (every one was
#: once accepted, then failed or ran as the wrong node inside the drive
#: loop); cells=4 with 4880 bytes is a pair no source draws
MALFORMED_FLOWS = [
    [0, 99, 1, 4, 4880],    # src past n
    [0, 3, 16, 4, 4880],    # dst past n
    [0, -1, 2, 4, 4880],    # negative src (would run as node 15)
    [0, True, 2, 4, 4880],  # JSON true is no node id (would run as 1)
    [0, 3, 3, 4, 4880],     # src == dst
    [0, 3, 4, 0, 4880],     # no cells
    [0, 3, 4, 4, -1],       # negative bytes
    [0, 1.5, 2, 4, 4880],   # fractional src
    [0, 3, 4, 4.0, 4880],   # fractional cells
    [True, 3, 4, 4, 4880],  # boolean arrival
    [0, 3, 4, 2**63, 4880],  # cells past int64 (a snapshot then raised)
    [0, 3, 4, 4, 2**70],    # bytes past int64
]


def _malformed_batches(now):
    """Batches that must be refused whole: a good flow (marked by the
    cells=1 / 9999-byte pair no source draws) ahead of each malformed one,
    both due now once clamped, and a batch whose second arrival goes back
    in time."""
    good = [now, 0, 5, 1, 9999]
    batches = [[good, bad] for bad in MALFORMED_FLOWS]
    batches.append([[now + 100_000, 0, 5, 1, 9999],
                    [now + 90_000, 1, 6, 1, 9999]])
    return batches


def _queued_sizes(engine):
    """``(cells, bytes)`` of every flow the engine has queued, started or
    finished."""
    flows = list(engine._pending_flows)
    sizes = {(cells, size) for _, _, _, cells, size in flows}
    sizes.update((f.size_cells, f.size_bytes)
                 for f in engine.flows._active.values())
    sizes.update((r.size_cells, r.size_bytes) for r in engine.flows.completed)
    return sizes


class TestGoldenEquivalence:
    """A live source == its materialised trace, bit for bit."""

    @pytest.mark.parametrize("cc", MECHANISMS)
    def test_attached_source_matches_materialised_trace(self, cc):
        """Pulling the open-loop source live == pre-scheduling its trace."""
        cfg = _cfg(cc)
        curve = diurnal_curve(1_000)
        trace = streaming_workload(cfg, load=0.3, curve=curve,
                                   duration=2_000)
        batch = simulate(cfg, trace, drain=True, digest=True,
                         telemetry=True)

        source = OpenLoopSource(cfg, load=0.3, curve=curve)
        session = open_session(cfg, source=source, digest=True,
                               telemetry=True)
        while session.t < 2_000:
            session.advance(min(333, 2_000 - session.t))
        live = session.finish(drain=True)
        assert live.digest == batch.digest
        assert len(live.telemetry) == len(batch.telemetry)


class TestSessionApi:
    def test_finish_returns_runresult(self):
        session = open_session(_cfg(), telemetry=True)
        session.advance(500)
        result = session.finish()
        assert isinstance(result, RunResult)
        assert result.engine is session.engine
        assert session.closed

    def test_a_built_empty_recorder_is_attached(self):
        """An empty recorder has len() 0; passing one still records into
        it, in a session and in a batch run alike."""
        from repro.obs.timeseries import TimeSeriesRecorder

        live = open_session(_cfg(), telemetry=TimeSeriesRecorder())
        live.advance(200)
        batch = simulate(_cfg(duration=200), telemetry=TimeSeriesRecorder())
        for result in (live.finish(), batch):
            assert result.telemetry is not None and len(result.telemetry)

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

    def test_a_future_dated_flow_waits_for_its_slot(self):
        """A flow submitted for a later slot, then the source's arrivals
        before it: they merge in ahead of it, and the run is one batch run
        of the source's trace with the flow first among its slot's
        arrivals."""
        cfg = _cfg("none", duration=3_000)
        session = open_session(cfg, source=OpenLoopSource(cfg, load=0.2),
                               digest=True)
        session.advance(1_100)
        flow = (2_000, 0, 1, 1, 9999)
        assert session.submit([flow]) == 1
        while session.t < cfg.duration:
            session.advance(100)
        assert flow not in session.engine._pending_flows
        trace = streaming_workload(cfg, load=0.2)
        at = sum(arrival < flow[0] for arrival, *_ in trace)
        batch = simulate(cfg, trace[:at] + [flow] + trace[at:], digest=True)
        assert session.finish().digest == batch.digest

    def test_submit_validates_tuple_shape(self):
        session = open_session(_cfg())
        with pytest.raises(ValueError, match="5 fields"):
            session.submit([(0, 1, 2, 3)])

    def test_submit_refuses_a_malformed_batch_whole(self):
        """Each malformed batch is refused by ``submit`` itself, none of
        its flows is queued, and the session keeps advancing."""
        session = open_session(_cfg())
        session.advance(10)
        for batch in _malformed_batches(session.t):
            with pytest.raises((TypeError, ValueError)):
                session.submit(batch, late="clamp")
            assert not session.engine.has_pending_work, batch
        session.advance(200)
        assert session.t == 210
        assert session.engine.metrics.cells_injected == 0
        assert session.submit([(session.t, 0, 5, 1, 9999)]) == 1
        session.advance(200)
        assert session.engine.metrics.cells_injected == 1

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

    def test_a_recorder_attached_later_is_the_one_reported(self, tmp_path):
        """Telemetry reads the recorder on the engine, not the one the
        session was opened with: rows, row count, status, the checkpoint
        and the result all see a recorder attached afterwards."""
        cfg = _cfg()
        path = tmp_path / "late.ckpt"
        session = open_session(cfg, source=OpenLoopSource(cfg, load=0.2),
                               checkpoint=str(path))
        assert session.telemetry_row_count() == 0
        recorder = TimeSeriesRecorder()
        recorder.attach(session.engine)
        session.advance(200)
        rows = len(recorder)
        assert rows > 0
        assert session.recorder is recorder
        assert session.telemetry_row_count() == rows
        assert session.status()["telemetry_rows"] == rows
        assert [row["t"] for row in session.telemetry_rows()] == \
            recorder.series()["t"].tolist()
        session.checkpoint_now()
        saved = load_checkpoint(path).state["telemetry"]["cols"]
        assert saved["t"].tolist() == recorder.series()["t"].tolist()
        assert session.finish().telemetry is recorder

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

    def test_a_snapshot_inside_an_advance_replays_its_arrivals(self,
                                                              tmp_path):
        """Snapshots land on exact slots, also inside an advance (every
        500 slots, advances of 300: slot 500 falls inside 300 -> 600).
        Such a snapshot holds the source as pulled to the advance's target
        and, queued, the arrivals pulled but not injected yet; resuming
        from it replays the uninterrupted run."""
        cfg = _cfg()

        def open_(checkpoint=None):
            return open_session(cfg, source=OpenLoopSource(cfg, load=0.3),
                                digest=True, checkpoint=checkpoint,
                                checkpoint_every=500)

        def run(session):
            while session.t < 1_500:
                session.advance(min(300, 1_500 - session.t))
            return session.finish(drain=True)

        straight = run(open_())
        path = tmp_path / "mid.ckpt"
        first = open_(str(path))
        first.advance(300)
        first.advance(300)
        saved = load_checkpoint(path)
        assert saved.t == 500
        pulled = OpenLoopSource(cfg, load=0.3)
        trace = pulled.take(600)
        assert saved.state["service"]["source"]["emitted"] == len(trace)
        assert saved.state["pending_flows"].tolist() == \
            [list(flow) for flow in trace if flow[0] >= 500]
        del first

        resumed = open_(str(path))
        assert resumed.resumed_from == 500
        result = run(resumed)
        assert result.digest == straight.digest
        assert result.summary == straight.summary

    def test_a_resumed_session_runs_its_workload_once(self, tmp_path):
        """Reopened with the ``workload=`` it was opened with, a session
        resumes from its snapshot, which already holds the flows not yet
        injected: the workload is not scheduled a second time (it was,
        and every flow ran twice: 118 completed flows instead of 59)."""
        cfg = _cfg()
        flows = poisson_workload(cfg, ShortFlowDistribution(), load=0.2)

        def open_(checkpoint=None):
            return open_session(cfg, flows, digest=True,
                                checkpoint=checkpoint, checkpoint_every=500)

        reference = open_()
        reference.advance_to(2_000)
        straight = reference.finish(drain=True)

        path = tmp_path / "wl.ckpt"
        first = open_(str(path))
        first.advance_to(1_000)
        del first  # killed: no finish(), the snapshot stays
        resumed = open_(str(path))
        assert resumed.resumed_from == 1_000
        resumed.advance_to(2_000)
        result = resumed.finish(drain=True)
        assert len(result.flows.completed) == len(straight.flows.completed)
        assert result.digest == straight.digest

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
               max_slots=None, digest=False, sample_interval=50, prime=0):
        """Serve a fresh session (advanced ``prime`` slots first) to
        ``coro_fn(server, client)``."""
        async def scenario():
            cfg = _cfg(metrics_sample_interval=sample_interval)
            source = OpenLoopSource(cfg, load=source_load)
            session = open_session(cfg, source=source, telemetry=True,
                                   digest=digest,
                                   checkpoint=checkpoint,
                                   checkpoint_every=500)
            if prime:
                session.advance(prime)
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

    def test_telemetry_rows_page_past_the_line_limit(self):
        """More rows than one line holds: each reply fits the limit the
        client reads with, both clients follow ``next`` to the end, and
        the connection stays usable."""
        async def scenario(server, client):
            page = await client.request("telemetry-rows", since=0)
            assert page["more"] and page["next"] == len(page["rows"])
            assert len(encode_message(page)) <= MAX_LINE_BYTES
            rows = await client.telemetry_rows(since=0)
            assert len(encode_message({"rows": rows})) > 2 * MAX_LINE_BYTES
            assert rows == server.session.telemetry_rows(0)[:len(rows)]
            assert [row["t"] for row in rows] == \
                list(range(0, 2 * len(rows), 2))
            assert (await client.ping())["protocol"] == PROTOCOL_VERSION

            def sync_rows():
                with SyncServiceClient("127.0.0.1", server.port) as sync:
                    return sync.telemetry_rows(since=5)

            loop = asyncio.get_event_loop()
            more = await loop.run_in_executor(None, sync_rows)
            assert more[:len(rows) - 5] == rows[5:]
            return True

        assert self._serve(scenario, sample_interval=2, prime=2_000)

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
            with pytest.raises(ServiceError, match="factor"):
                await client.request("adjust-load", factor=10**400)
            # connection still alive after four errors
            assert (await client.ping())["ok"]
            return True

        assert self._serve(scenario)

    def test_malformed_submissions_get_errors_and_the_server_runs_on(self):
        """Every malformed submission is answered with an error instead of
        killing the drive loop: no flow of a refused batch is queued, the
        server's clock keeps advancing and a ping answers.  Boolean
        ``since`` / ``factor`` are refused the same way."""
        async def scenario(server, client):
            start = (await client.ping())["t"]
            for batch in _malformed_batches(start):
                with pytest.raises(ServiceError, match="rejected"):
                    await client.request("submit", flows=batch,
                                         late="clamp")
            with pytest.raises(ServiceError, match="since"):
                await client.request("telemetry-rows", since=True)
            with pytest.raises(ServiceError, match="factor"):
                await client.request("adjust-load", factor=True)
            for _ in range(200):
                pong = await client.ping()
                if pong["t"] > start + 500:
                    break
                await asyncio.sleep(0.01)
            assert pong["ok"] and pong["t"] > start + 500
            sizes = _queued_sizes(server.session.engine)
            assert not {(1, 9999), (4, 4880), (0, 4880), (4, -1)} & sizes
            assert (await client.status())["load_factor"] == 1.0
            return True

        assert self._serve(scenario)

    def test_a_future_dated_submission_runs_past_its_slot(self):
        """A flow submitted for a later slot waits in the queue while the
        source's earlier arrivals merge in ahead of it; the drive loop runs
        on past the slot and the flow is injected."""
        async def scenario(server, client):
            start = (await client.ping())["t"]
            # (thousands of slots out: the loop runs quanta between replies)
            assert await client.submit([[start + 5_000, 0, 5, 1, 9999]],
                                       late="raise") == 1
            for _ in range(500):
                pong = await client.ping()
                if pong["t"] > start + 6_000:
                    break
                await asyncio.sleep(0.01)
            assert pong["ok"] and pong["t"] > start + 6_000
            assert (1, 9999) in _queued_sizes(server.session.engine)
            assert not any(size == 9999 for *_, size
                           in server.session.engine._pending_flows)
            return True

        assert self._serve(scenario)

    def test_telemetry_pages_build_only_the_rows_they_return(self):
        """Paging through every row of a primed session builds each row a
        bounded number of times (a page once built every row to the end:
        quadratic, and each page blocked the drive loop), and the rows and
        the ``next`` / ``more`` fields are what one full read gives."""
        async def scenario(server, client):
            session = server.session
            built = []
            original = session.telemetry_rows

            def counted(since=0, limit=None):
                rows = original(since, limit)
                built.append(len(rows))
                return rows

            # freeze the clock (and so the row count) while paging
            session.advance = lambda slots, pull=True: session.t
            await client.ping()
            session.telemetry_rows = counted
            total = session.telemetry_row_count()
            assert total > 4 * len((await client.request(
                "telemetry-rows", since=0))["rows"])
            built.clear()
            since, pages, rows = 0, 0, []
            while True:
                page = await client.request("telemetry-rows", since=since)
                pages += 1
                assert page["since"] == since
                assert page["next"] == since + len(page["rows"])
                assert len(encode_message(page)) <= MAX_LINE_BYTES
                rows.extend(page["rows"])
                since = page["next"]
                if not page["more"]:
                    break
            assert since == total and pages > 4
            assert rows == original(0)
            assert sum(built) <= 2 * total
            return True

        assert self._serve(scenario, sample_interval=2, prime=20_000)

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

    @pytest.mark.parametrize("kwargs, message", [
        (dict(quantum=2.5), "quantum must be an integer >= 1, got 2.5"),
        (dict(quantum=True), "quantum must be an integer >= 1, got True"),
        (dict(max_slots=-5), "max_slots must be an integer >= 0, got -5"),
        (dict(max_slots=2.5), "max_slots must be an integer >= 0, got 2.5"),
    ], ids=["quantum-float", "quantum-bool", "max-slots-negative",
            "max-slots-float"])
    def test_bad_quantum_or_max_slots_is_refused(self, kwargs, message):
        """``quantum=2.5`` once constructed and died on the first advance
        with a message about ``duration``, and ``max_slots=-5`` drained at
        slot 0 without a word; both are refused at construction, by
        name."""
        session = open_session(_cfg())
        with pytest.raises(ValueError, match=message):
            ServiceServer(session, **kwargs)


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
