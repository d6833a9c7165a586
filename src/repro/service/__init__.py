"""The live service layer: sessions, the control plane, and its clients.

Three pieces, layered:

* :class:`~repro.service.session.Session` — one live simulation driven
  incrementally (``advance`` / ``submit`` / ``checkpoint_now`` /
  ``finish``); open one with :func:`repro.open_session`.
* :class:`~repro.service.server.ServiceServer` — an asyncio control plane
  serving a session over JSON lines on TCP (``python -m repro serve``).
* :class:`~repro.service.client.ServiceClient` (asyncio) and
  :class:`~repro.service.client.SyncServiceClient` (blocking) — talk to a
  running server.

See DESIGN.md §13 for the architecture and the incremental-stepping
invariants the layer is built on.
"""

from .. import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(__name__, {
    ".client": ("ServiceClient", "SyncServiceClient", "wait_for_ready"),
    ".protocol": ("PROTOCOL_VERSION", "VERBS", "ServiceError"),
    ".server": ("ServiceServer",),
    ".session": ("Session",),
})
