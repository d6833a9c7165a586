"""Clients for the live-service control plane.

Two flavours over the same JSON-lines wire protocol
(:mod:`repro.service.protocol`):

* :class:`ServiceClient` — asyncio streams, full duplex: issue requests
  while subscribed telemetry rows keep flowing into an internal queue.
  Use inside an event loop (tests drive it with ``asyncio.run``).
* :class:`SyncServiceClient` — plain blocking sockets, one request at a
  time.  The right tool for scripts and demos (``examples/
  live_service.py``, the CI smoke driver) that don't want an event loop.
  Stream rows that arrive interleaved with responses are stashed in
  :attr:`SyncServiceClient.stream_rows` rather than lost.

Both raise :class:`~repro.service.protocol.ServiceError` when the server
answers ``ok: false``.
"""

from __future__ import annotations

import asyncio
import json
import socket
from typing import Any, Dict, List, Optional, Sequence

from .protocol import (
    MAX_LINE_BYTES,
    ServiceError,
    decode_message,
    encode_message,
)

__all__ = ["ServiceClient", "SyncServiceClient", "wait_for_ready"]


class ServiceClient:
    """Asyncio client: concurrent requests + a subscribed telemetry queue.

    A background reader task splits incoming lines into responses
    (matched to in-flight requests by ``id``) and stream events (pushed
    onto :attr:`telemetry`, an :class:`asyncio.Queue`).
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0):
        self.host = host
        self.port = port
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._reader_task: Optional[asyncio.Task] = None
        self._pending: Dict[int, asyncio.Future] = {}
        self._next_id = 0
        #: queue of pushed telemetry rows (dicts); ``None`` marks the
        #: server's end-of-stream event
        self.telemetry: asyncio.Queue = asyncio.Queue()

    async def connect(self) -> "ServiceClient":
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port, limit=MAX_LINE_BYTES,
        )
        self._reader_task = asyncio.ensure_future(self._read_loop())
        return self

    async def close(self) -> None:
        if self._reader_task is not None:
            self._reader_task.cancel()
            try:
                await self._reader_task
            except (asyncio.CancelledError, Exception):
                pass
            self._reader_task = None
        if self._writer is not None:
            self._writer.close()
            self._writer = None

    async def __aenter__(self) -> "ServiceClient":
        return await self.connect()

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.close()

    async def _read_loop(self) -> None:
        try:
            while True:
                line = await self._reader.readline()
                if not line:
                    break
                message = decode_message(line)
                if "stream" in message:
                    if message.get("done"):
                        self.telemetry.put_nowait(None)
                    else:
                        self.telemetry.put_nowait(message.get("row"))
                    continue
                future = self._pending.pop(message.get("id"), None)
                if future is not None and not future.done():
                    future.set_result(message)
        except asyncio.CancelledError:
            raise
        except Exception as exc:  # connection died: fail what's in flight
            for future in self._pending.values():
                if not future.done():
                    future.set_exception(ServiceError(str(exc)))
            self._pending.clear()
            return
        # clean EOF: fail any unanswered requests
        for future in self._pending.values():
            if not future.done():
                future.set_exception(ServiceError("connection closed"))
        self._pending.clear()

    async def request(self, op: str, **fields: Any) -> Dict[str, Any]:
        """Send one request; await and return the matched response data."""
        if self._writer is None:
            raise ServiceError("client is not connected")
        if self._reader_task is not None and self._reader_task.done():
            raise ServiceError("server closed the connection")
        self._next_id += 1
        request_id = self._next_id
        future = asyncio.get_event_loop().create_future()
        self._pending[request_id] = future
        self._writer.write(
            encode_message({"id": request_id, "op": op, **fields})
        )
        await self._writer.drain()
        response = await future
        if not response.get("ok"):
            raise ServiceError(response.get("error", "request failed"))
        return response

    # ------------------------------------------------------------------ #
    # verb helpers

    async def ping(self) -> Dict[str, Any]:
        return await self.request("ping")

    async def status(self) -> Dict[str, Any]:
        return await self.request("status")

    async def submit(self, flows: Sequence[Sequence[int]],
                     late: str = "clamp") -> int:
        response = await self.request(
            "submit", flows=[list(f) for f in flows], late=late
        )
        return response["accepted"]

    async def adjust_load(self, factor: float) -> float:
        response = await self.request("adjust-load", factor=factor)
        return response["factor"]

    async def telemetry_rows(self, since: int = 0) -> List[Dict[str, int]]:
        """Every closed row from ``since`` on, fetched a reply at a time."""
        rows: List[Dict[str, int]] = []
        while True:
            response = await self.request("telemetry-rows", since=since)
            rows += response["rows"]
            if not response.get("more"):
                return rows
            since = response["next"]

    async def stream_telemetry(self) -> int:
        """Subscribe this connection; rows land on :attr:`telemetry`."""
        response = await self.request("stream-telemetry")
        return response["from_row"]

    async def stop_stream(self) -> None:
        await self.request("stop-stream")

    async def checkpoint_now(self) -> str:
        response = await self.request("checkpoint-now")
        return response["path"]

    async def drain_and_stop(self) -> Dict[str, Any]:
        return await self.request("drain-and-stop")

    async def stop(self) -> Dict[str, Any]:
        return await self.request("stop")


class SyncServiceClient:
    """Blocking client: one request at a time over a plain socket.

    Pushed telemetry rows that arrive interleaved with a response are
    appended to :attr:`stream_rows` (call :meth:`drain_stream` to collect
    rows while no request is outstanding).
    """

    def __init__(self, host: str, port: int, timeout: float = 30.0):
        self.host = host
        self.port = port
        self.timeout = timeout
        self._sock = socket.create_connection((host, port))
        self._sock.setblocking(False)
        self._buffer = b""
        self._next_id = 0
        #: telemetry rows pushed by the server (after ``stream_telemetry``)
        self.stream_rows: List[Dict[str, int]] = []
        #: True once the server sent its end-of-stream event
        self.stream_done = False

    def close(self) -> None:
        self._sock.close()

    def __enter__(self) -> "SyncServiceClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def _absorb(self, message: Dict[str, Any]) -> None:
        if message.get("done"):
            self.stream_done = True
        elif message.get("row") is not None:
            self.stream_rows.append(message["row"])

    def _readline(self, timeout: Optional[float]) -> Optional[bytes]:
        """One wire line; None on timeout, b"" on EOF.

        The client keeps its own line buffer over a non-blocking socket —
        a buffered ``makefile`` reader becomes unusable after a timeout
        fires mid-read, and this client's :meth:`drain_stream` needs
        timeouts to be routine, not fatal.
        """
        import select

        while b"\n" not in self._buffer:
            readable, _, _ = select.select([self._sock], [], [], timeout)
            if not readable:
                return None
            chunk = self._sock.recv(65536)
            if not chunk:
                return b""
            self._buffer += chunk
        line, self._buffer = self._buffer.split(b"\n", 1)
        return line + b"\n"

    def request(self, op: str, **fields: Any) -> Dict[str, Any]:
        """Send one request and block until its response arrives."""
        import select

        self._next_id += 1
        request_id = self._next_id
        payload = encode_message({"id": request_id, "op": op, **fields})
        while payload:
            select.select([], [self._sock], [], self.timeout)
            payload = payload[self._sock.send(payload):]
        while True:
            line = self._readline(self.timeout)
            if line is None:
                raise ServiceError(
                    f"no response to {op!r} within {self.timeout}s"
                )
            if not line:
                raise ServiceError("connection closed mid-request")
            message = decode_message(line)
            if "stream" in message:
                self._absorb(message)
                continue
            if message.get("id") != request_id:
                continue  # a stale response; keep waiting for ours
            if not message.get("ok"):
                raise ServiceError(message.get("error", "request failed"))
            return message

    def drain_stream(self, timeout: float = 0.05) -> List[Dict[str, int]]:
        """Absorb any pushed rows waiting on the socket; returns them all."""
        while True:
            line = self._readline(timeout)
            if not line:  # quiet for `timeout` seconds, or EOF
                return self.stream_rows
            self._absorb(decode_message(line))

    # ------------------------------------------------------------------ #
    # verb helpers

    def ping(self) -> Dict[str, Any]:
        return self.request("ping")

    def status(self) -> Dict[str, Any]:
        return self.request("status")

    def submit(self, flows: Sequence[Sequence[int]],
               late: str = "clamp") -> int:
        return self.request(
            "submit", flows=[list(f) for f in flows], late=late
        )["accepted"]

    def adjust_load(self, factor: float) -> float:
        return self.request("adjust-load", factor=factor)["factor"]

    def telemetry_rows(self, since: int = 0) -> List[Dict[str, int]]:
        """Every closed row from ``since`` on, fetched a reply at a time."""
        rows: List[Dict[str, int]] = []
        while True:
            response = self.request("telemetry-rows", since=since)
            rows += response["rows"]
            if not response.get("more"):
                return rows
            since = response["next"]

    def stream_telemetry(self) -> int:
        return self.request("stream-telemetry")["from_row"]

    def checkpoint_now(self) -> str:
        return self.request("checkpoint-now")["path"]

    def drain_and_stop(self) -> Dict[str, Any]:
        return self.request("drain-and-stop")

    def stop(self) -> Dict[str, Any]:
        return self.request("stop")


def wait_for_ready(stdout, timeout: float = 30.0) -> Dict[str, Any]:
    """Parse the server's JSON ready line from a subprocess's stdout.

    Blocks reading lines until one parses as ``{"ready": true, ...}``;
    returns that dict (host, port, protocol, t, resumed_from).  Raises
    :class:`ServiceError` if the stream ends first.
    """
    while True:
        line = stdout.readline()
        if not line:
            raise ServiceError("server exited before announcing readiness")
        if isinstance(line, bytes):
            line = line.decode()
        line = line.strip()
        if not line:
            continue
        try:
            message = json.loads(line)
        except json.JSONDecodeError:
            continue
        if isinstance(message, dict) and message.get("ready"):
            return message
