"""Versioned snapshots of a running simulation, with bit-exact resume.

The paper's headline experiments run millions of timeslots; an interrupted
cell (crash, OOM, preemption) used to lose everything.  This module
captures the *complete* mutable state of an :class:`~repro.sim.engine.Engine`
— timeslot cursor, RNG generator state, per-node queues/ledgers/failure
markings, the flow table, metrics and telemetry buffers, monitor counters
and failure-protocol state — so a run can be stopped at slot ``k`` and
resumed to produce exactly the cells, drops, tokens and artifacts of the
uninterrupted run (pinned by :class:`~repro.sim.digest.DeterminismDigest`
and the golden-trace suite).

File format (same integrity idiom as :mod:`repro.sim.cellcache`)::

    MAGIC (10 bytes) | pickled payload | sha256(payload) (32 bytes)

Writes are atomic (``tempfile.mkstemp`` + ``os.replace``), so the file on
disk is always a complete snapshot.  Loads are *self-healing* through
:func:`load_checkpoint_or_none`: a truncated, corrupted, foreign-versioned
or config-mismatched file is treated as "no checkpoint" (and removed), so a
resume can always fall back to slot 0 rather than crash.

What is **not** captured, by design:

* ``Schedule`` / ``CoordinateSystem`` — immutable, derived from ``(n, h)``.
* The engine's ``Transmission`` freelist — identity is never observed;
  the resumed engine simply re-grows it.
* ``StepProfiler`` timings — volatile measurements, not simulation state.
* Engines driven by manual ``step()`` dispatch (``MultiClassSimulation``)
  never pass through the run driver, so periodic checkpointing does not
  cover them; :meth:`Engine.snapshot` still works for manual use.

The ambient :class:`CheckpointPolicy` mirrors the cell cache's
``default_cache`` pattern: installing one (runner ``--checkpoint-dir``)
makes every sweep cell periodically checkpoint each engine it builds and
transparently resume from an existing snapshot after a crash.
"""

from __future__ import annotations

import hashlib
import logging
import os
import pathlib
import pickle
import tempfile
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Tuple

__all__ = [
    "CHECKPOINT_VERSION",
    "Checkpoint",
    "CheckpointError",
    "CheckpointPolicy",
    "CheckpointWriter",
    "CellScope",
    "apply_checkpoint",
    "default_policy",
    "load_checkpoint",
    "load_checkpoint_or_none",
    "remove_checkpoint",
    "restore_engine",
    "save_checkpoint",
    "set_default_policy",
    "snapshot_engine",
]

#: bump on any change to the payload layout; old files self-heal as misses
#: (2: metrics sample tallies instead of raw samples, no per-cell latency
#: list, no ``schedule_class`` in a flow's state)
CHECKPOINT_VERSION = 2

_log = logging.getLogger("repro.checkpoint")

_MAGIC = b"SHALECKPT\n"
_SHA256_BYTES = 32


class CheckpointError(RuntimeError):
    """A checkpoint file or object could not be used."""


class Checkpoint:
    """One snapshot: format version, the run's ``SimConfig``, state payload.

    The state payload is a plain-data dict (ints, strings, tuples, lists)
    produced by :func:`snapshot_engine`; the config rides along so restore
    can verify the snapshot belongs to the engine it is applied to.
    """

    __slots__ = ("version", "config", "state")

    def __init__(self, version: int, config, state: Dict[str, object]):
        self.version = version
        self.config = config
        self.state = state

    @property
    def t(self) -> int:
        """The timeslot at which the snapshot was taken."""
        return self.state["t"]

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"Checkpoint(v{self.version}, t={self.t}, "
            f"n={self.config.n}, seed={self.config.seed})"
        )


# ---------------------------------------------------------------------- #
# file I/O

def save_checkpoint(checkpoint: Checkpoint, path) -> None:
    """Write ``checkpoint`` to ``path`` atomically (tmp file + rename)."""
    payload = pickle.dumps(
        {
            "version": checkpoint.version,
            "config": checkpoint.config,
            "state": checkpoint.state,
        },
        protocol=pickle.HIGHEST_PROTOCOL,
    )
    footer = hashlib.sha256(payload).digest()
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=str(path.parent), suffix=".ckpt.tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(_MAGIC)
            fh.write(payload)
            fh.write(footer)
        os.replace(tmp, path)
    except BaseException:
        remove_checkpoint(tmp)
        raise


def load_checkpoint(path) -> Checkpoint:
    """Read and verify a checkpoint; raises :class:`CheckpointError`."""
    try:
        data = pathlib.Path(path).read_bytes()
    except OSError as exc:
        raise CheckpointError(f"unreadable checkpoint {path}: {exc}") from exc
    if len(data) < len(_MAGIC) + _SHA256_BYTES or not data.startswith(_MAGIC):
        raise CheckpointError(f"not a checkpoint file: {path}")
    payload = data[len(_MAGIC):-_SHA256_BYTES]
    footer = data[-_SHA256_BYTES:]
    if hashlib.sha256(payload).digest() != footer:
        raise CheckpointError(f"checkpoint integrity check failed: {path}")
    try:
        entry = pickle.loads(payload)
    except Exception as exc:
        raise CheckpointError(f"undecodable checkpoint {path}: {exc}") from exc
    if not isinstance(entry, dict) or entry.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"unsupported checkpoint version in {path}: "
            f"{entry.get('version') if isinstance(entry, dict) else '?'} "
            f"(want {CHECKPOINT_VERSION})"
        )
    return Checkpoint(entry["version"], entry["config"], entry["state"])


def load_checkpoint_or_none(path) -> Optional[Checkpoint]:
    """Self-healing load: anything wrong means ``None``, never an exception.

    A bad file (truncated write from a crash, stale version, random bytes)
    is removed, with one WARNING saying why, so the next save starts clean;
    a file that is simply not there is no news.
    """
    try:
        return load_checkpoint(path)
    except CheckpointError as exc:
        if os.path.exists(path):
            _log.warning("discarding unusable checkpoint %s: %s", path, exc)
            remove_checkpoint(path)
        return None


def remove_checkpoint(path) -> None:
    """Best-effort removal of a checkpoint file: the run it belonged to
    completed, or the file is unusable.  A file that is already gone, or
    cannot be removed, is left alone — the next save replaces it."""
    try:
        os.unlink(path)
    except OSError:
        pass


# ---------------------------------------------------------------------- #
# engine state capture

def snapshot_engine(engine, loop: Optional[Tuple[int, int]] = None) -> Checkpoint:
    """Capture every mutable piece of ``engine`` into a :class:`Checkpoint`.

    ``loop`` marks the run/drain loop the snapshot was taken inside, as
    ``(loop ordinal, absolute end slot)`` — the periodic writer passes it so
    a resumed engine re-entering the same cell code can fast-forward loops
    that completed before the snapshot and stop the interrupted loop at the
    original end.  Manual snapshots leave it None.
    """
    telemetry = engine.telemetry
    if telemetry is not None and not hasattr(telemetry, "state_dict"):
        telemetry = None  # a recorder we don't know how to capture
    # the nodes and the wire, in whichever representation holds them: a
    # run parked on a backend's slab exports its columns and stays parked
    model = engine._plain_model()
    if model is None:
        # a never-run engine's encoding is that of its freshly built nodes
        engine._materialize("snapshot")
        model = engine._plain_model()
    nodes, in_flight, active_ids = model
    state = {
        "t": engine.t,
        "loop": loop,
        "rng": engine.rng.getstate(),
        "pending_flows": [tuple(item) for item in engine._pending_flows],
        "in_flight": in_flight,
        "in_flight_payload": engine._in_flight_payload,
        "failed_links": sorted(engine.failed_links),
        "active_ids": active_ids,
        "isd_last": sorted(engine._isd_last.items()),
        "force_full_scan": engine.force_full_scan,
        "flows": engine.flows.state_dict(),
        "metrics": engine.metrics.state_dict(),
        "nodes": nodes,
        "digest": (None if engine.digest is None
                   else engine.digest.state_dict()),
        "monitor": (None if engine.monitor is None
                    else engine.monitor.state_dict()),
        "telemetry": (None if telemetry is None
                      else telemetry.state_dict()),
        "events": (None if engine.events is None
                   else engine.events.state_dict()),
        "failure_manager": (None if engine.failure_manager is None
                            else engine.failure_manager.state_dict()),
    }
    return Checkpoint(CHECKPOINT_VERSION, engine.config, state)


def apply_checkpoint(engine, checkpoint: Checkpoint) -> None:
    """Overwrite ``engine``'s state with ``checkpoint``.

    The engine must have been built from the same :class:`SimConfig`.
    The payload's nodes, wire and active set become the engine's pending
    model (:meth:`Engine._adopt_model`) — no node is built or filled here;
    a backend packs them as they are, or the first read of the object
    model loads them.  Engine-level containers the hot path aliases (the
    metrics collector, the flow table) are mutated in place.

    Observer state (monitor/telemetry/events) restores directly onto
    already-attached observers; otherwise it is parked on
    ``engine._pending_restore`` and absorbed by the observer's ``attach``.
    """
    if checkpoint.version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint version {checkpoint.version} != "
            f"{CHECKPOINT_VERSION}"
        )
    if checkpoint.config != engine.config:
        raise CheckpointError(
            "checkpoint was taken under a different configuration"
        )
    from ..failures.manager import FailureManager

    state = checkpoint.state
    engine._adopt_model(
        (state["nodes"], state["in_flight"], state["active_ids"])
    )
    engine.rng.setstate(state["rng"])
    engine._pending_flows.clear()
    engine._pending_flows.extend(tuple(i) for i in state["pending_flows"])
    engine.flows.load_state(state["flows"])
    engine.failed_links.clear()
    engine.failed_links.update(tuple(link) for link in state["failed_links"])
    engine._in_flight_payload = state["in_flight_payload"]
    engine._isd_last.clear()
    engine._isd_last.update(dict(state["isd_last"]))
    engine.force_full_scan = state["force_full_scan"]
    engine.metrics.load_state(state["metrics"])

    pending: Dict[str, object] = {}
    if state["digest"] is not None:
        if engine.digest is None:
            engine.enable_digest()
        engine.digest.load_state(state["digest"])
    if state["monitor"] is not None:
        if engine.monitor is not None:
            engine.monitor.load_state(state["monitor"])
        else:
            pending["monitor"] = state["monitor"]
    if state["telemetry"] is not None:
        recorder = engine.telemetry
        if recorder is not None and hasattr(recorder, "load_state"):
            recorder.load_state(state["telemetry"])
        else:
            pending["telemetry"] = state["telemetry"]
    if state["events"] is not None:
        if engine.events is not None:
            engine.events.load_state(state["events"])
        else:
            pending["events"] = state["events"]
    if state["failure_manager"] is not None:
        manager = engine.failure_manager
        if manager is None:
            manager = FailureManager.from_state(state["failure_manager"])
            engine.failure_manager = manager
        manager.load_state(engine, state["failure_manager"])
    engine._pending_restore = pending or None

    engine.t = state["t"]
    engine._loops_entered = 0
    engine._resume = (None if state["loop"] is None
                      else tuple(state["loop"]))


def restore_engine(checkpoint: Checkpoint):
    """Build a fresh :class:`Engine` resumed from ``checkpoint``."""
    from .engine import Engine

    engine = Engine(checkpoint.config)
    apply_checkpoint(engine, checkpoint)
    return engine


# ---------------------------------------------------------------------- #
# periodic writer (driven by the engine's run driver)

class CheckpointWriter:
    """Writes a snapshot of one engine every ``every`` timeslots.

    The engine's run driver ends a backend segment on :attr:`due_t` and
    calls :meth:`write` there; each write atomically replaces ``path``,
    so the file always holds the latest complete snapshot.
    """

    __slots__ = ("path", "every", "due_t", "written", "last_t")

    def __init__(self, path, every: int):
        if every is None or every <= 0:
            raise ValueError(f"checkpoint interval must be >= 1, got {every}")
        self.path = pathlib.Path(path)
        self.every = int(every)
        self.due_t = 0
        #: snapshots written so far
        self.written = 0
        #: timeslot of the latest snapshot (-1 before the first)
        self.last_t = -1

    def arm(self, t: int) -> None:
        """Schedule the next write relative to the loop's starting slot."""
        self.due_t = t + self.every

    def write(self, engine, ordinal: int, end: int) -> None:
        """Snapshot ``engine`` mid-loop and advance the due time."""
        save_checkpoint(snapshot_engine(engine, loop=(ordinal, end)),
                        self.path)
        self.written += 1
        self.last_t = engine.t
        self.due_t = engine.t + self.every


# ---------------------------------------------------------------------- #
# ambient policy (sweep cells, runner --checkpoint-dir)

_default_policy: Optional["CheckpointPolicy"] = None


def default_policy() -> Optional["CheckpointPolicy"]:
    """The ambient checkpoint policy, or None."""
    return _default_policy


def set_default_policy(
    policy: Optional["CheckpointPolicy"],
) -> Optional["CheckpointPolicy"]:
    """Install ``policy`` as ambient; returns the previous one."""
    global _default_policy
    previous = _default_policy
    _default_policy = policy
    return previous


class CheckpointPolicy:
    """Directory + interval for ambient sweep-cell checkpointing.

    Installed by the runner's ``--checkpoint-dir`` (or programmatically via
    :func:`set_default_policy` / the experiment ``checkpoint_dir=`` keyword).
    ``parallel.sweep`` opens a :class:`CellScope` per cell; each engine the
    cell builds gets a content-addressed checkpoint file, resumes from it
    when one survives a crash, and the files are removed when the cell
    completes cleanly.
    """

    def __init__(self, directory, every: int = 100_000):
        self.directory = pathlib.Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        if every is None or every <= 0:
            raise ValueError(f"checkpoint interval must be >= 1, got {every}")
        self.every = int(every)

    def key_for(self, fn: Callable, kwargs: Dict[str, object]) -> str:
        """Content-addressed cell key: code fingerprint + fn + kwargs.

        Mirrors the cell cache's keying so a checkpoint can never be
        resumed by a cell running different code or parameters — such a
        file is simply never looked up.
        """
        from ..obs.serialize import canonical_json
        from .cellcache import code_fingerprint

        identity = {
            "code": code_fingerprint(),
            "fn": f"{getattr(fn, '__module__', '?')}."
                  f"{getattr(fn, '__qualname__', repr(fn))}",
            "kwargs": kwargs,
        }
        raw = canonical_json(identity).encode()
        return hashlib.sha256(raw).hexdigest()[:32]

    @contextmanager
    def cell_scope(self, key: str):
        """Checkpoint every engine built while the scope is active.

        Must be entered *after* any telemetry/digest construction hooks, so
        a restored engine's observer state lands on observers that are
        already attached.
        """
        from . import engine as _engine_mod

        scope = CellScope(self, key)
        _engine_mod._construction_hooks.append(scope._on_engine)
        try:
            yield scope
        finally:
            _engine_mod._construction_hooks.remove(scope._on_engine)


class CellScope:
    """Per-cell checkpoint namespace: one file per engine built, in order."""

    def __init__(self, policy: CheckpointPolicy, key: str):
        self.policy = policy
        self.key = key
        self.ordinal = 0
        self.paths: List[pathlib.Path] = []
        #: (engine ordinal, resumed-at slot) for every restored engine
        self.resumed: List[Tuple[int, int]] = []

    def _on_engine(self, engine) -> None:
        path = self.policy.directory / f"{self.key}-{self.ordinal:02d}.ckpt"
        self.ordinal += 1
        self.paths.append(path)
        checkpoint = load_checkpoint_or_none(path)
        if checkpoint is not None:
            try:
                apply_checkpoint(engine, checkpoint)
            except CheckpointError:
                # e.g. the cell's engine was built with other parameters
                # than the snapshot's; start this engine from slot 0
                remove_checkpoint(path)
            else:
                self.resumed.append((self.ordinal - 1, engine.t))
        engine.enable_checkpoints(path, self.policy.every)

    @property
    def resume_slot(self) -> Optional[int]:
        """Earliest slot any engine of this cell resumed from (telemetry)."""
        return min((t for _, t in self.resumed), default=None)

    def discard(self) -> None:
        """Remove this cell's checkpoint files (cell completed cleanly)."""
        for path in self.paths:
            remove_checkpoint(path)
