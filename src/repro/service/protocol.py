"""The service wire protocol: JSON lines over a stream transport.

One message per line, UTF-8 JSON, newline-terminated — readable with
``nc`` and implementable from any language without extra dependencies
(the control plane deliberately avoids gRPC/protobuf so the simulator's
dependency set stays numpy-only).

Three message shapes travel over a connection:

* **requests** (client → server): ``{"id": 7, "op": "status", ...}`` —
  ``op`` names a verb from :data:`VERBS`, ``id`` is an arbitrary
  client-chosen token echoed back in the response.
* **responses** (server → client): ``{"id": 7, "ok": true, ...}`` on
  success, ``{"id": 7, "ok": false, "error": "..."}`` on failure.
* **stream events** (server → client, unsolicited): ``{"stream":
  "telemetry", "row": {...}}`` — pushed to connections subscribed via the
  ``stream-telemetry`` verb.  Stream events carry no ``id``; clients must
  dispatch on the presence of the ``stream`` key.

Verbs:

``ping``            liveness check; echoes the server slot.
``status``          the session's :meth:`~repro.service.session.Session.status`.
``submit``          schedule flows: ``{"flows": [[t, src, dst, cells,
                    bytes], ...], "late": "clamp"|"raise"}``.
``adjust-load``     scale the open-loop source: ``{"factor": 1.5}``.
``telemetry``       latest telemetry row + row count (one-shot).
``telemetry-rows``  rows from an index: ``{"since": 42}`` — the polling
                    twin of the stream, used to compose gap-free series
                    across a server restart.
``stream-telemetry``  subscribe this connection to pushed rows.
``stop-stream``     unsubscribe.
``checkpoint-now``  write a durability snapshot immediately.
``drain-and-stop``  stop pulling new load, drain in-flight flows, finish
                    the session, reply with the final summary, shut down.
``stop``            shut down without draining (a checkpoint is written
                    first when the session has one configured).
"""

from __future__ import annotations

import json
from typing import Any, Dict, Optional

__all__ = [
    "MAX_LINE_BYTES",
    "PROTOCOL_VERSION",
    "VERBS",
    "ServiceError",
    "decode_message",
    "encode_message",
    "error_response",
    "ok_response",
]

#: bumped on incompatible wire changes; carried in the server's ready line
PROTOCOL_VERSION = 1

#: longest request line the server reads (asyncio's stream default, named):
#: a longer one is answered with an error and the connection is closed,
#: because the stream position is then mid-line.  Split big ``submit``s.
MAX_LINE_BYTES = 64 * 1024

VERBS = (
    "ping",
    "status",
    "submit",
    "adjust-load",
    "telemetry",
    "telemetry-rows",
    "stream-telemetry",
    "stop-stream",
    "checkpoint-now",
    "drain-and-stop",
    "stop",
)


class ServiceError(RuntimeError):
    """A request the server rejected (carried in the ``error`` field)."""


def encode_message(message: Dict[str, Any]) -> bytes:
    """One message as a canonical JSON line (newline-terminated bytes)."""
    return (
        json.dumps(message, sort_keys=True, separators=(",", ":"),
                   ensure_ascii=True) + "\n"
    ).encode()


def decode_message(line: bytes) -> Dict[str, Any]:
    """Parse one wire line; raises :class:`ServiceError` on junk."""
    try:
        message = json.loads(line.decode())
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        # RecursionError: nesting deeper than the parser's stack, which
        # fits well inside MAX_LINE_BYTES
        raise ServiceError(f"undecodable message: {exc}") from exc
    if not isinstance(message, dict):
        raise ServiceError(
            f"message must be a JSON object, got {type(message).__name__}"
        )
    return message


def ok_response(request_id: Optional[Any], **data: Any) -> Dict[str, Any]:
    """A success response echoing the request's ``id``."""
    return {"id": request_id, "ok": True, **data}


def error_response(request_id: Optional[Any], error: str) -> Dict[str, Any]:
    """A failure response echoing the request's ``id``."""
    return {"id": request_id, "ok": False, "error": error}
