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

File format (nothing in it is executed on load)::

    MAGIC (10 bytes) | payload | sha256(payload) (32 bytes)
    payload = version "\n" | one JSON document "\n" | array sections

A snapshot's state is a tree of dicts whose leaves are either arrays — the
plain model's integer tables (:mod:`repro.sim.tables`) and everything else
that is a column: flow records, the recorder's series, the sample tallies,
the RNG key — or small plain values.  The arrays are the sections: raw
little-endian bytes, back to back, each narrowed to the smallest integer
type that holds it (read back as int64); the JSON document holds the rest,
the run's ``SimConfig`` and the section table (dotted path, dtype, shape).

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

import dataclasses
import hashlib
import json
import logging
import math
import os
import pathlib
import tempfile
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from . import tables
from .config import SimConfig, TimingModel
from .flows import is_integer_field

__all__ = [
    "CHECKPOINT_VERSION",
    "Checkpoint",
    "CheckpointError",
    "CheckpointPolicy",
    "CheckpointWriter",
    "CellScope",
    "check_interval",
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
#: (3: integer tables and a JSON document instead of serialised objects;
#: 4: the digest's running value is the two-level hash's, not FNV-1a's;
#: 5: a ``cells`` row has no enqueue slot, and ``metrics`` is the four
#: entries a run reads — scalars, the two sample tallies, ``measuring``;
#: 6: the PIEO high-water mark is a node's ``scalars`` column, not a
#: ``queues`` one; 7: a ``cells`` row has no spray phase or dummy flag,
#: ``queues`` and ``ranks`` no seq, and a ``wire`` row says whether it
#: carries a payload — a bare header has no ``cells`` row; 8: nothing the
#: other tables imply — no ``ranks`` or ``active_ids`` table, no occupancy
#: or owed-token / control counts in ``scalars``, no in-flight payload
#: count; 9: ``scalars`` is ``failed`` alone — a run's high-water marks
#: are the metrics', no node keeps one)
CHECKPOINT_VERSION = 9

_log = logging.getLogger("repro.checkpoint")

_MAGIC = b"SHALECKPT\n"
_SHA256_BYTES = 32


class CheckpointError(RuntimeError):
    """A checkpoint file or object could not be used."""


class Checkpoint:
    """One snapshot: format version, the run's ``SimConfig``, state payload.

    The state payload is a tree of dicts produced by
    :func:`snapshot_engine`, its leaves numpy arrays or JSON-serialisable
    values; the config rides along so restore can verify the snapshot
    belongs to the engine it is applied to.
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

#: what :func:`snapshot_engine` writes and :func:`apply_checkpoint` reads
_STATE_KEYS = frozenset({
    "t", "loop", "rng", "rng_gauss", "pending_flows", "failed_links",
    "isd_last", "force_full_scan", "flows", "metrics", "nodes", "digest",
    "monitor", "telemetry", "events", "failure_manager",
})


def _narrowed(array: np.ndarray) -> np.ndarray:
    """``array`` in the smallest signed integer type that holds it (floats
    as they are): int64 tables of small numbers, a quarter the bytes."""
    if array.dtype.kind == "f":
        return array
    if array.dtype.kind not in "iub":
        raise TypeError(f"cannot store a {array.dtype} array")
    low, high = (array.min(), array.max()) if array.size else (0, 0)
    for dtype in (np.int8, np.int16, np.int32):
        if np.iinfo(dtype).min <= low and high <= np.iinfo(dtype).max:
            return array.astype(dtype)
    return array


def _split(tree: dict, prefix: str, arrays: Dict[str, np.ndarray]) -> dict:
    """``tree`` without its array leaves, which go to ``arrays`` under
    their dotted path."""
    rest = {}
    for key, value in tree.items():
        if isinstance(value, np.ndarray):
            arrays[prefix + key] = _narrowed(value)
        elif isinstance(value, dict):
            rest[key] = _split(value, f"{prefix}{key}.", arrays)
        else:
            rest[key] = value
    return rest


def save_checkpoint(checkpoint: Checkpoint, path) -> None:
    """Write ``checkpoint`` to ``path`` atomically (tmp file + rename)."""
    arrays: Dict[str, np.ndarray] = {}
    # the plain model's empty tables are left out: their shape is the
    # schema's (``tables.model`` puts them back)
    model = {name: held for name, held in checkpoint.state["nodes"].items()
             if len(held)}
    document = json.dumps({
        "config": dataclasses.asdict(checkpoint.config),
        "state": _split({**checkpoint.state, "nodes": model}, "", arrays),
        "sections": [(name, held.dtype.str, held.shape)
                     for name, held in arrays.items()],
    })
    payload = b"%d\n%s\n%s" % (
        checkpoint.version, document.encode(),
        b"".join(held.tobytes() for held in arrays.values()))
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


def _decode(document: bytes, sections: bytes) -> Tuple[SimConfig, dict]:
    """The config and the state tree a payload holds; raises whatever
    the json reader, a missing key or a section that is not what the
    document says raises."""
    document = json.loads(document)
    config = dict(document["config"])
    config["timing"] = TimingModel(**config["timing"])
    state = document["state"]
    offset = 0
    for name, dtype, shape in document["sections"]:
        dtype = np.dtype(dtype)
        if (dtype.kind != "i" and dtype != np.float64) or min(shape) < 0:
            raise TypeError(f"section {name!r} is a {dtype}{shape} array")
        # frombuffer refuses a count the remaining bytes do not hold
        array = np.frombuffer(
            sections, dtype, math.prod(shape), offset).reshape(shape)
        offset += array.nbytes
        *parents, leaf = name.split(".")
        branch = state
        for key in parents:
            branch = branch.setdefault(key, {})
        # a copy either way: no array keeps the file's bytes alive
        branch[leaf] = array.astype(np.int64 if dtype.kind == "i" else dtype)
    missing = _STATE_KEYS - state.keys()
    if missing:
        raise KeyError(f"state lacks {sorted(missing)}")
    state["nodes"] = tables.model(state["nodes"])
    return SimConfig(**config), state


def load_checkpoint(path) -> Checkpoint:
    """Read and verify a checkpoint; every way the file can be wrong is a
    :class:`CheckpointError` naming the reason."""
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
    version, _, rest = payload.partition(b"\n")
    # every format before 3 put serialised objects where the version line is
    version = int(version) if version.isdigit() else "2 or earlier"
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"unsupported checkpoint version in {path}: "
            f"{version} (want {CHECKPOINT_VERSION})"
        )
    try:
        config, state = _decode(*rest.partition(b"\n")[::2])
    except Exception as exc:
        raise CheckpointError(
            f"undecodable checkpoint {path}: {type(exc).__name__}: {exc}"
        ) from exc
    return Checkpoint(version, config, state)


def load_checkpoint_or_none(path, config=None) -> Optional[Checkpoint]:
    """Self-healing load: anything wrong means ``None``, never an exception.

    A bad file (truncated write from a crash, stale version, random bytes,
    or — when the caller says which ``config`` it is about to run — a
    snapshot of another configuration) is removed, with one WARNING saying
    why, so the next save starts clean; a file that is simply not there is
    no news.
    """
    try:
        checkpoint = load_checkpoint(path)
        if config is not None and checkpoint.config != config:
            raise CheckpointError(
                "checkpoint was taken under a different configuration")
        return checkpoint
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
    _, rng_key, rng_gauss = engine.rng.getstate()
    state = {
        "t": engine.t,
        "loop": loop,
        "rng": np.array(rng_key, dtype=np.int64),
        "rng_gauss": rng_gauss,
        "pending_flows": tables.table(list(engine._pending_flows), 5),
        "failed_links": tables.table(sorted(engine.failed_links), 2),
        "isd_last": tables.table(sorted(engine._isd_last.items()), 2),
        "force_full_scan": engine.force_full_scan,
        "flows": engine.flows.state_dict(),
        "metrics": engine.metrics.state_dict(),
        "nodes": model,
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
    The payload's plain model becomes the engine's pending
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
    engine._adopt_model(state["nodes"])
    engine.rng.setstate(
        (3, tuple(state["rng"].tolist()), state["rng_gauss"]))
    engine._pending_flows.clear()
    engine._pending_flows.extend(map(tuple, state["pending_flows"].tolist()))
    engine.flows.load_state(state["flows"])
    engine.failed_links.clear()
    engine.failed_links.update(map(tuple, state["failed_links"].tolist()))
    engine._in_flight_payload = int(
        state["nodes"]["wire"][:, tables.col("wire", "payload")].sum())
    engine._isd_last.clear()
    engine._isd_last.update(state["isd_last"].tolist())
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

def check_interval(value, name: str) -> int:
    """``value`` as a snapshot interval in timeslots: an integer >= 1 (no
    ``bool``, no float to round), else a ValueError naming ``name``."""
    if not is_integer_field(value) or value < 1:
        raise ValueError(f"checkpoint interval {name}={value!r} is not an "
                         f"integer >= 1")
    return int(value)


class CheckpointWriter:
    """Writes a snapshot of one engine every ``every`` timeslots.

    The engine's run driver ends a backend segment on :attr:`due_t` and
    calls :meth:`write` there; each write atomically replaces ``path``,
    so the file always holds the latest complete snapshot.
    """

    __slots__ = ("path", "every", "due_t", "written", "last_t")

    def __init__(self, path, every: int):
        self.every = check_interval(every, "every")
        self.path = pathlib.Path(path)
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
        self.every = check_interval(every, "every")
        self.directory = pathlib.Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

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
        # a snapshot of an engine built with other parameters is unusable
        # like any other: this engine starts from slot 0
        checkpoint = load_checkpoint_or_none(path, engine.config)
        if checkpoint is not None:
            apply_checkpoint(engine, checkpoint)
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
