"""Pluggable engine execution backends.

The :class:`~repro.sim.engine.Engine` owns the simulated *state* — nodes,
queues, flows, the wire — while a backend owns the *slot loop* that advances
it, through the one :meth:`EngineBackend.advance` entry point.  Three
backends ship:

* ``"object"`` — the reference backend: the one per-node object pipeline
  (``Node.transmit`` / ``Node.receive``), driven over the active set.
  Every mechanism, failure scenario and observer is supported; this is
  the default.
* ``"vector"`` — a vectorized slot stepper that keeps per-node queue heads,
  cell headers and flow cursors in flat numpy int64 columns and advances
  every node per timeslot with array operations (see
  :mod:`repro.sim.backends.vector`).  It reproduces the object backend
  *bit-exactly* — including CPython's ``randrange`` rejection-loop RNG
  consumption — for the configurations it accelerates, and transparently
  falls back to the reference pipeline for the rest (non-``vlb`` routing,
  congestion-control machinery, failure state, attached monitors/tracers).
* ``"shard"`` — a multi-process stepper that partitions the nodes along
  EBS phase-group boundaries across :func:`default_shards` worker
  processes advancing in lockstep, exchanging cross-shard cells through
  deterministic per-slot mailboxes (see :mod:`repro.sim.backends.shard`).
  Same bit-exactness contract and fallback rules as ``"vector"``; the
  shard count is an *execution* parameter, not part of the configuration,
  so it never enters cache keys or checkpoints.

Backends are registered by name, mirroring
:mod:`repro.core.strategies`: selection is
``SimConfig(backend="vector")`` or the runner's ``--backend`` flag, which
installs a process-wide default picked up by every config that does not name
a backend explicitly.  The chosen backend is part of the resolved config, so
it lands in cell-cache keys and checkpoint config validation automatically —
cached or resumed results can never silently mix backends.
"""

from __future__ import annotations

from typing import List, Type

from ...core.registry import Registry

__all__ = [
    "EngineBackend",
    "register_backend",
    "backend_names",
    "backend_class",
    "make_backend",
    "default_backend",
    "set_default_backend",
    "default_shards",
    "set_default_shards",
]


class EngineBackend:
    """Contract for engine slot-loop backends.

    A backend advances ``engine`` through timeslots.  Whenever it returns,
    every engine-level attribute (clock, RNG, flow table, metrics) must be
    current, and the nodes and the wire must be either authoritative or
    one read away — held by a packed run handed to
    :meth:`~repro.sim.engine.Engine._park`, whose ``export_model()`` a
    snapshot takes as it is and the first read of the object model loads:
    checkpoints, observers and manual
    :meth:`~repro.sim.engine.Engine.step` calls may read or mutate any
    engine state between backend calls.

    One backend instance is built per engine
    (:meth:`~repro.sim.engine.Engine.__init__`) and may cache per-engine
    state on itself.
    """

    __slots__ = ()

    #: registry name; set by :func:`register_backend`
    backend_name: str = ""

    def advance(self, engine, end: int, drain: bool) -> None:
        """Advance ``engine`` until ``engine.t >= end`` — or, when
        ``drain`` is set, until payload quiescence
        (:attr:`~repro.sim.engine.Engine.has_pending_work` turning false)
        if that comes first.

        The engine's run driver is the only caller and never calls with
        nothing to do.  A backend that cannot accelerate the current
        engine state finishes the call on the reference loop,
        :func:`repro.sim.backends.object_backend.advance`.
        """
        raise NotImplementedError


#: name -> backend class
_REGISTRY = Registry("engine backend", builtins={
    "object": "repro.sim.backends.object_backend",
    "vector": "repro.sim.backends.vector",
    "shard": "repro.sim.backends.shard",
})

#: the process-wide default backend name, used by configs that do not name
#: one explicitly (installed by the runner's ``--backend``)
_default_name = "object"


def register_backend(name: str):
    """Class decorator registering an :class:`EngineBackend` under ``name``."""
    return _REGISTRY.registering(name, "backend_name")


def backend_names() -> List[str]:
    """Sorted names of every registered backend."""
    return _REGISTRY.names()


def backend_class(name: str) -> Type[EngineBackend]:
    """The backend class registered under ``name``.

    The empty string resolves to the ambient default, mirroring how an
    unset :attr:`SimConfig.backend` resolves at construction time.
    """
    return _REGISTRY[name or _default_name]


def make_backend(name: str) -> EngineBackend:
    """A fresh backend instance for ``name``."""
    return backend_class(name)()


def default_backend() -> str:
    """The ambient backend name configs resolve to when they name none."""
    return _default_name


def set_default_backend(name: str) -> str:
    """Install ``name`` as the ambient default; returns the previous name.

    Validates ``name`` against the registry first, so a typo fails at the
    command line instead of deep inside the first engine construction.
    """
    global _default_name
    backend_class(name)  # raises for unknown names
    previous = _default_name
    _default_name = name
    return previous


#: the process-wide shard count used by the ``"shard"`` backend.  An
#: *execution* parameter like ``--workers``, deliberately kept out of
#: :class:`~repro.sim.config.SimConfig`: a K-shard run is bit-exact with a
#: single-process run, so the count must never enter cache keys,
#: checkpoints or manifests.
_default_shards = 4


def default_shards() -> int:
    """The ambient shard count for the ``"shard"`` backend."""
    return _default_shards


def set_default_shards(count: int) -> int:
    """Install ``count`` as the ambient shard count; returns the previous.

    Installed by the runner's ``--shards``; validated here so a bad value
    fails at the command line.
    """
    global _default_shards
    count = int(count)
    if count < 1:
        raise ValueError(f"shard count must be >= 1, got {count}")
    previous = _default_shards
    _default_shards = count
    return previous
