"""Content-addressed on-disk cache for sweep grid cells.

Re-running a figure experiment recomputes every (mechanism x tuning x size)
cell from scratch even when nothing changed.  This module gives
:func:`repro.sim.parallel.sweep` a persistent cell cache: the *complete*
identity of a cell — the worker function, its keyword arguments, the
resolved :class:`~repro.sim.config.SimConfig` field defaults, and a
fingerprint of the package's source code — is hashed into a key, and the
cell's plain picklable outcome (result, its
:class:`~repro.sim.digest.DeterminismDigest` hexdigests, and the shipped
telemetry bundle when one was captured) is stored under it.

Correctness properties:

* **Hits are byte-identical to recomputation.**  The cache stores exactly
  what the worker returned; the golden-trace suite proves the cache is a
  pure observer (``tests/test_cellcache.py``).
* **Stale results cannot leak across versions.**  The cache schema version
  and the source-tree fingerprint are folded into every key, so any change
  to the code or the entry format makes all old keys unreachable.
* **Corrupt entries are misses.**  A truncated, unreadable or mismatched
  entry is treated as a miss and removed, then rewritten on the next run.
* **Writes are atomic.**  Entries are written to a temp file in the cache
  directory and ``os.replace``-d into place, so concurrent sweep workers
  (or concurrent runner invocations sharing a cache directory) never
  observe a torn entry.

**Entries stay pickles** (checkpoints are not, see
:mod:`repro.sim.checkpoint`).  An entry holds whatever the worker returned
— experiment dataclasses, telemetry bundles — not a fixed set of tables, and
only this module writes the files it reads: the source fingerprint in the
key means a file is never looked up by code other than the code that wrote
it.  A table format would buy neither safety nor speed here, so the
decision is to keep pickle and to say what a discarded entry was.

Cell kwargs must be plain data (they already have to be picklable to cross
process boundaries); unknown objects fall back to ``repr`` in the key,
which is deterministic for value-like objects only.

The worker-pool *shard count* (``repro.sim.backends.default_shards``) is
deliberately **not** part of the key: the ``"shard"`` backend is bit-exact
with single-process execution for every shard count, so a cell computed at
``--shards 4`` must (and does) satisfy a later ``--shards 1`` run and vice
versa.  ``tests/test_shard_backend.py`` pins this with a key-equality
test across shard counts.
"""

from __future__ import annotations

import hashlib
import logging
import os
import pathlib
import pickle
import tempfile
from typing import Any, Callable, Dict, Optional

__all__ = [
    "CellCache",
    "MISS",
    "SCHEMA",
    "code_fingerprint",
    "default_cache",
    "set_default_cache",
]

#: cache entry format version; bump when the on-disk layout changes meaning
SCHEMA = 1

_log = logging.getLogger("repro.cache")


class _Miss:
    """Sentinel distinguishing 'no entry' from a cached ``None`` result."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debug convenience
        return "MISS"


MISS = _Miss()

#: the process-wide default cache consulted by ``sweep`` when no explicit
#: cache is passed (installed by the runner's ``--cache`` / ``REPRO_CACHE``)
_default: Optional["CellCache"] = None


def default_cache() -> Optional["CellCache"]:
    """The ambient :class:`CellCache`, or None when caching is off."""
    return _default


def set_default_cache(cache: Optional["CellCache"]) -> Optional["CellCache"]:
    """Install ``cache`` as the ambient default; returns the previous one."""
    global _default
    previous = _default
    _default = cache
    return previous


_fingerprint: Optional[str] = None


def code_fingerprint() -> str:
    """Digest of every ``.py`` source in the ``repro`` package (memoized).

    Folding this into cache keys means editing *any* simulator/experiment
    source orphans all previously cached cells — conservative on purpose:
    a stale hit silently corrupting a figure is far worse than a cold
    recomputation.
    """
    global _fingerprint
    if _fingerprint is None:
        root = pathlib.Path(__file__).resolve().parent.parent
        digest = hashlib.sha256()
        for path in sorted(root.rglob("*.py")):
            digest.update(str(path.relative_to(root)).encode())
            digest.update(b"\x00")
            digest.update(path.read_bytes())
            digest.update(b"\x00")
        _fingerprint = digest.hexdigest()[:16]
    return _fingerprint


class CellCache:
    """One cache directory of content-addressed sweep cells.

    Attributes:
        directory: where entries live (created on construction).
        hits / misses / writes: running counters for this process; the
            runner reports per-experiment deltas.
    """

    def __init__(self, directory):
        self.directory = pathlib.Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.writes = 0

    # ------------------------------------------------------------------ #
    # keys

    def key_for(self, fn: Callable, kwargs: Dict[str, Any],
                telemetry: bool = False) -> str:
        """Content key of one grid cell.

        Covers the worker function's qualified name, its kwargs, the full
        set of :class:`SimConfig` field values the cell resolves to (cell
        kwargs override the dataclass defaults where names match — so a
        changed *default* also invalidates), the cache schema version, the
        source fingerprint, and whether a telemetry capture is active
        (cached entries carry the shipped telemetry bundle, so entries
        recorded without one must not satisfy an instrumented run).
        """
        from ..obs.serialize import canonical_json, to_jsonable
        from .config import SimConfig

        resolved = to_jsonable(SimConfig())
        for name in resolved:
            if name in kwargs:
                resolved[name] = to_jsonable(kwargs[name])
        identity = {
            "schema": SCHEMA,
            "code": code_fingerprint(),
            "fn": f"{getattr(fn, '__module__', '?')}."
                  f"{getattr(fn, '__qualname__', repr(fn))}",
            "kwargs": to_jsonable(kwargs),
            "config": resolved,
            "telemetry": bool(telemetry),
        }
        return hashlib.sha256(canonical_json(identity).encode()).hexdigest()

    def _path(self, key: str) -> pathlib.Path:
        return self.directory / f"{key}.pkl"

    # ------------------------------------------------------------------ #
    # lookup / store

    def get(self, key: str) -> Any:
        """The cached value for ``key``, or :data:`MISS`.

        Any failure to read or validate the entry — truncated pickle,
        foreign schema, key mismatch — counts as a miss; the broken file is
        removed so the next write starts clean.
        """
        path = self._path(key)
        try:
            with path.open("rb") as fh:
                entry = pickle.load(fh)
            if (isinstance(entry, dict) and entry.get("schema") == SCHEMA
                    and entry.get("key") == key and "cell" in entry):
                self.hits += 1
                return entry["cell"]
        except FileNotFoundError:
            self.misses += 1
            return MISS
        except Exception as exc:
            _log.warning("discarding unreadable cache entry %s: %s: %s",
                         path, type(exc).__name__, exc)
        # present but corrupt or mismatched: recover by dropping the entry
        try:
            path.unlink()
        except OSError:  # pragma: no cover - racing unlinks are fine
            pass
        self.misses += 1
        return MISS

    def put(self, key: str, cell: Any) -> None:
        """Store ``cell`` under ``key`` atomically (tmp file + rename)."""
        entry = {"schema": SCHEMA, "key": key, "cell": cell}
        fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                pickle.dump(entry, fh, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, self._path(key))
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self.writes += 1

    # ------------------------------------------------------------------ #

    def stats(self) -> Dict[str, int]:
        """Snapshot of the running counters."""
        return {"hits": self.hits, "misses": self.misses,
                "writes": self.writes}

    def __repr__(self) -> str:  # pragma: no cover - debug convenience
        return (f"CellCache({str(self.directory)!r}, hits={self.hits}, "
                f"misses={self.misses}, writes={self.writes})")
