"""The asyncio control plane: ``python -m repro serve``.

Runs one live :class:`~repro.service.session.Session` continuously and
exposes it over JSON lines on a TCP socket (see
:mod:`repro.service.protocol` for the verbs).  The architecture is a
single event loop with two kinds of work interleaved cooperatively:

* the **drive task** advances the session in fixed quanta of timeslots,
  pushing freshly closed telemetry rows to subscribed connections and
  yielding to the loop between quanta, so control requests are served
  with at most one quantum of latency;
* **connection handlers** read one request line at a time and answer
  against the live session (all touches happen on the loop thread — no
  locking, no races).

Durability is the session's: with ``--checkpoint`` the drive loop's
advances periodically snapshot engine + workload-source state, and a
``kill -9``'d server restarted with the same arguments resumes from the
last snapshot — regenerating the exact arrivals and telemetry rows the
crashed run would have produced (the CI ``service-smoke`` job does
exactly this and asserts the composed telemetry stream is gap-free).

On startup the server prints one machine-readable line to stdout::

    {"host": "127.0.0.1", "port": 43211, "protocol": 1, "ready": true, "t": 0}

so callers using ``--port 0`` (an ephemeral port) can discover the
address.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
from typing import Any, Dict, List, Optional

from ..sim.engine import check_slots
from ..sim.flows import is_integer_field
from ..workloads.streaming import (
    OpenLoopSource,
    TenantProfile,
    constant_curve,
    diurnal_curve,
)
from .protocol import (
    MAX_LINE_BYTES,
    PROTOCOL_VERSION,
    ServiceError,
    decode_message,
    encode_message,
    error_response,
    ok_response,
)
from .session import Session

__all__ = ["ServiceServer", "main"]

#: telemetry rows a ``telemetry-rows`` page builds at a time, until the
#: line is full
_ROWS_CHUNK = 64


class ServiceServer:
    """Serves one live session over JSON-lines TCP.

    Args:
        session: the open :class:`~repro.service.session.Session` to drive.
        host: interface to bind (default loopback).
        port: TCP port (0 = ephemeral; read :attr:`port` after start).
        quantum: timeslots per drive-loop advance — the control plane's
            worst-case response latency in simulated time.
        max_slots: stop (drain and finish) automatically once the session
            has advanced this many slots past its starting point (None =
            run until a client sends ``drain-and-stop`` / ``stop``).
    """

    def __init__(
        self,
        session: Session,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        quantum: int = 256,
        max_slots: Optional[int] = None,
    ):
        if not is_integer_field(quantum) or quantum < 1:
            raise ValueError(
                f"quantum must be an integer >= 1, got {quantum!r}")
        if max_slots is not None:
            check_slots(max_slots, "max_slots")
        self.session = session
        self.host = host
        self._requested_port = port
        self.quantum = quantum
        self.max_slots = max_slots
        self._server: Optional[asyncio.AbstractServer] = None
        self._subscribers: List[asyncio.StreamWriter] = []
        self._pushed_rows = session.telemetry_row_count()
        self._drain = False
        self._stop = False
        self._finished: Optional[asyncio.Event] = None
        #: the session's RunResult once the drive loop finished it
        self.result = None

    # ------------------------------------------------------------------ #
    # lifecycle

    @property
    def port(self) -> int:
        """The bound TCP port (valid after :meth:`start`)."""
        if self._server is None:
            raise RuntimeError("server not started")
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> None:
        """Bind the listening socket (does not start driving)."""
        self._finished = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self._requested_port,
            limit=MAX_LINE_BYTES,
        )

    async def run(self, ready=None) -> None:
        """Start, announce readiness, drive to completion, shut down.

        ``ready`` is an optional callable invoked with this server once
        the socket is bound (the CLI prints its discovery line there).
        """
        if self._server is None:
            await self.start()
        if ready is not None:
            ready(self)
        drive = asyncio.ensure_future(self._drive())
        try:
            await drive
        finally:
            self._server.close()
            await self._server.wait_closed()
            for writer in list(self._subscribers):
                writer.close()

    async def _drive(self) -> None:
        """The main loop: advance, push telemetry, yield; then finish."""
        session = self.session
        start_t = session.t
        while not (self._drain or self._stop):
            if (self.max_slots is not None
                    and session.t - start_t >= self.max_slots):
                self._drain = True
                break
            session.advance(self.quantum)
            await self._push_telemetry()
            # yield so connection handlers run between quanta
            await asyncio.sleep(0)
        if self._drain:
            # drain incrementally so telemetry keeps streaming and control
            # requests keep being answered while in-flight work completes
            extra = 0
            while session.engine.has_pending_work and extra < 1_000_000:
                session.advance(self.quantum, pull=False)
                extra += self.quantum
                await self._push_telemetry()
                await asyncio.sleep(0)
            self.result = session.finish()
        elif not session.closed:
            if session.checkpoint_path is not None:
                session.checkpoint_now()
            # closed without finish(): keep the checkpoint as the resume
            # point — 'stop' is a pause, not a completion
            session.closed = True
        await self._push_telemetry(final=True)
        self._finished.set()

    async def _push_telemetry(self, final: bool = False) -> None:
        """Send freshly closed telemetry rows to every subscriber."""
        rows = self.session.telemetry_rows(since=self._pushed_rows)
        self._pushed_rows += len(rows)
        if not self._subscribers:
            return
        payload = b"".join(
            encode_message({"stream": "telemetry", "row": row})
            for row in rows
        )
        if final:
            payload += encode_message({"stream": "telemetry", "done": True})
        if not payload:
            return
        for writer in list(self._subscribers):
            try:
                writer.write(payload)
                await writer.drain()
            except (ConnectionError, RuntimeError):
                self._unsubscribe(writer)

    def _unsubscribe(self, writer: asyncio.StreamWriter) -> None:
        try:
            self._subscribers.remove(writer)
        except ValueError:
            pass

    # ------------------------------------------------------------------ #
    # the control plane

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError:
                    # line longer than the limit: the reader may be left
                    # mid-line, so answer and hang up
                    writer.write(encode_message(error_response(
                        None, f"line exceeds {MAX_LINE_BYTES} bytes"
                    )))
                    await writer.drain()
                    break
                if not line:
                    break
                try:
                    message = decode_message(line)
                    response = await self._dispatch(message, writer)
                except ServiceError as exc:
                    response = error_response(
                        self._request_id(line), str(exc)
                    )
                if response is not None:
                    writer.write(encode_message(response))
                    await writer.drain()
                if self._stop or (self._drain and self._finished.is_set()):
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            self._unsubscribe(writer)
            try:
                writer.close()
            except RuntimeError:
                pass

    @staticmethod
    def _request_id(line: bytes) -> Optional[Any]:
        try:
            message = json.loads(line.decode())
            return message.get("id") if isinstance(message, dict) else None
        except (ValueError, RecursionError):
            return None

    async def _dispatch(self, message: Dict[str, Any],
                        writer: asyncio.StreamWriter) -> Optional[Dict[str, Any]]:
        op = message.get("op")
        request_id = message.get("id")
        session = self.session

        if op == "ping":
            return ok_response(request_id, t=session.t,
                               protocol=PROTOCOL_VERSION)

        if op == "status":
            return ok_response(request_id, **session.status())

        if op == "submit":
            flows = message.get("flows")
            if not isinstance(flows, list):
                raise ServiceError("submit needs a 'flows' list")
            late = message.get("late", "clamp")
            try:
                accepted = session.submit(flows, late=late)
            except (ValueError, TypeError) as exc:
                raise ServiceError(f"rejected submission: {exc}") from exc
            return ok_response(request_id, accepted=accepted, t=session.t)

        if op == "adjust-load":
            factor = message.get("factor")
            if isinstance(factor, bool) \
                    or not isinstance(factor, (int, float)):
                raise ServiceError("adjust-load needs a numeric 'factor'")
            try:
                new_factor = session.adjust_load(float(factor))
            except (ValueError, RuntimeError) as exc:
                raise ServiceError(str(exc)) from exc
            return ok_response(request_id, factor=new_factor, t=session.t)

        if op == "telemetry":
            count = session.telemetry_row_count()
            rows = session.telemetry_rows(since=max(0, count - 1))
            return ok_response(
                request_id, t=session.t, rows=count,
                latest=rows[-1] if rows else None,
            )

        if op == "telemetry-rows":
            since = message.get("since", 0)
            if isinstance(since, bool) or not isinstance(since, int) \
                    or since < 0:
                raise ServiceError("'since' must be a non-negative integer")
            return self._rows_page(request_id, since, session)

        if op == "stream-telemetry":
            if writer not in self._subscribers:
                self._subscribers.append(writer)
            return ok_response(
                request_id, streaming=True,
                from_row=self._pushed_rows,
            )

        if op == "stop-stream":
            self._unsubscribe(writer)
            return ok_response(request_id, streaming=False)

        if op == "checkpoint-now":
            if session.checkpoint_path is None:
                raise ServiceError("server was started without --checkpoint")
            path = session.checkpoint_now()
            return ok_response(request_id, path=str(path), t=session.t)

        if op == "drain-and-stop":
            self._drain = True
            await self._finished.wait()
            summary = (None if self.result is None
                       else {k: float(v)
                             for k, v in self.result.summary.items()})
            return ok_response(
                request_id, t=session.t, summary=summary,
                completed_flows=len(session.engine.flows.completed),
            )

        if op == "stop":
            self._stop = True
            await self._finished.wait()
            return ok_response(request_id, t=session.t, stopped=True)

        raise ServiceError(f"unknown op {op!r}")

    @staticmethod
    def _rows_page(request_id: Optional[Any], since: int,
                   session: Session) -> Dict[str, Any]:
        """The ``telemetry-rows`` reply: the rows from ``since`` on that
        fit one :data:`MAX_LINE_BYTES` line (at least one, so a reader
        paging on ``next`` always advances); ``more`` says rows remain
        from ``next``.  Rows are built a chunk at a time, so a page costs
        what it returns (plus at most one chunk), not every row to the
        end.
        """
        end = max(since, session.telemetry_row_count())
        room = MAX_LINE_BYTES - len(encode_message(ok_response(
            request_id, since=since, rows=[], next=end, more=False,
        )))
        rows: List[Dict[str, int]] = []
        full = False
        while not full and since + len(rows) < end:
            for row in session.telemetry_rows(since + len(rows),
                                              _ROWS_CHUNK):
                # a row's line is its JSON and a newline: one byte more
                # than the comma that separates it from the next row
                room -= len(encode_message(row))
                if room < 0 and rows:
                    full = True
                    break
                rows.append(row)
        return ok_response(
            request_id, since=since, rows=rows,
            next=since + len(rows), more=since + len(rows) < end,
        )


# ---------------------------------------------------------------------- #
# CLI: python -m repro serve


def _parse_tenants(specs: List[str]) -> List[TenantProfile]:
    """``name:weight:dist`` specs, dist in {short, heavy, uniform}."""
    from ..workloads.distributions import (
        HeavyTailedDistribution,
        ShortFlowDistribution,
        UniformSizeDistribution,
    )

    dists = {
        "short": ShortFlowDistribution,
        "heavy": HeavyTailedDistribution,
        "uniform": UniformSizeDistribution,
    }
    tenants = []
    for spec in specs:
        parts = spec.split(":")
        if len(parts) != 3 or parts[2] not in dists:
            raise SystemExit(
                f"bad tenant spec {spec!r}; want name:weight:dist with "
                f"dist one of {sorted(dists)}"
            )
        name, weight, dist = parts
        tenants.append(TenantProfile(
            name, weight=float(weight), distribution=dists[dist](),
        ))
    return tenants


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point for ``python -m repro serve``."""
    from ..sim.config import SimConfig
    from ..api import open_session

    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="Run a Shale network as a live service with an "
                    "open-loop streaming workload and a JSON-lines "
                    "control plane.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0,
                        help="TCP port (default 0 = ephemeral; the bound "
                             "port is announced on stdout)")
    parser.add_argument("--n", type=int, default=16, help="node count")
    parser.add_argument("--h", type=int, default=2, dest="h",
                        help="Shale tuning parameter")
    parser.add_argument("--cc", default="hbh+spray",
                        help="congestion control mechanism")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--backend", default=None,
                        help="engine backend name (see repro.sim.backends)")
    parser.add_argument("--load", type=float, default=0.25,
                        help="long-run per-node offered load in cells/slot")
    parser.add_argument("--curve", choices=("constant", "diurnal"),
                        default="constant")
    parser.add_argument("--period", type=int, default=20_000,
                        help="diurnal period in slots")
    parser.add_argument("--low", type=float, default=0.25,
                        help="diurnal trough multiplier")
    parser.add_argument("--high", type=float, default=1.0,
                        help="diurnal peak multiplier")
    parser.add_argument("--tenant", action="append", default=[],
                        metavar="NAME:WEIGHT:DIST",
                        help="add a tenant (dist: short|heavy|uniform; "
                             "repeatable; default: one 'short' tenant)")
    parser.add_argument("--quantum", type=int, default=256,
                        help="timeslots per drive-loop advance")
    parser.add_argument("--max-slots", type=int, default=None,
                        help="auto drain-and-stop after this many slots")
    parser.add_argument("--sample-interval", type=int, default=50,
                        help="telemetry sample window in slots")
    parser.add_argument("--checkpoint", default=None, metavar="PATH",
                        help="durability snapshot path: resume from it "
                             "when present, snapshot into it while "
                             "running")
    parser.add_argument("--checkpoint-every", type=int, default=2_000,
                        help="slots between durability snapshots")
    args = parser.parse_args(argv)

    try:
        config = SimConfig(
            n=args.n, h=args.h, seed=args.seed,
            congestion_control=args.cc,
            metrics_sample_interval=args.sample_interval,
            backend=args.backend or "",
        )
        curve = (diurnal_curve(args.period, args.low, args.high)
                 if args.curve == "diurnal" else constant_curve())
        tenants = _parse_tenants(args.tenant) if args.tenant else None
        source = OpenLoopSource(config, tenants, load=args.load,
                                curve=curve)
        session = open_session(
            config,
            source=source,
            telemetry=True,
            checkpoint=args.checkpoint,
            checkpoint_every=args.checkpoint_every,
        )
        server = ServiceServer(
            session, host=args.host, port=args.port,
            quantum=args.quantum, max_slots=args.max_slots,
        )

        def announce(srv: ServiceServer) -> None:
            print(json.dumps({
                "ready": True,
                "host": srv.host,
                "port": srv.port,
                "protocol": PROTOCOL_VERSION,
                "t": session.t,
                "resumed_from": session.resumed_from,
            }, sort_keys=True), flush=True)

        asyncio.run(server.run(ready=announce))
        if server.result is not None:
            summary = {k: round(float(v), 6)
                       for k, v in server.result.summary.items()}
            print(json.dumps({"finished": True, "t": session.t,
                              "summary": summary}, sort_keys=True))
        return 0
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        print("interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
