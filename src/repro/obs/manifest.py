"""End-of-run manifests: what ran, and how fast.

A manifest answers "what produced this artifact?" without re-reading code:
the full configuration, the run shape, and the machine-side facts (wall
time, slots/sec, peak RSS, versions).  It is split in two:

* ``run`` — fully deterministic for a given config + seed; safe to embed in
  artifacts that must be byte-identical across repeated runs.
* ``runtime`` — volatile measurements (wall clock, RSS, versions); written
  to a sidecar by the experiment runner so the main artifact stays
  reproducible.
"""

from __future__ import annotations

import platform
import sys
from typing import Dict, Optional

import numpy as np

from .serialize import to_jsonable

__all__ = ["run_manifest"]

#: manifest schema version (bump when fields change meaning)
SCHEMA = 1


def _peak_rss_kb() -> Optional[int]:
    """Peak resident set size of this process in KiB (None if unknown)."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return None
    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB, macOS bytes; normalise to KiB
    if sys.platform == "darwin":  # pragma: no cover
        usage //= 1024
    return int(usage)


def run_manifest(engine, wall_seconds: Optional[float] = None
                 ) -> Dict[str, object]:
    """Build the manifest for ``engine``'s run so far.

    Args:
        engine: a (finished or running) :class:`~repro.sim.engine.Engine`.
        wall_seconds: wall-clock duration of the run, when the caller timed
            it; enables the ``slots_per_sec`` runtime field.

    Returns:
        ``{"run": {...deterministic...}, "runtime": {...volatile...}}``.
    """
    config = engine.config
    manager = engine.failure_manager
    run: Dict[str, object] = {
        "schema": SCHEMA,
        "n": config.n,
        "h": config.h,
        "seed": config.seed,
        "congestion_control": config.congestion_control,
        "backend": config.backend,
        "backend_effective": engine.backend_effective,
        "backend_reason": engine.backend_reason,
        "slots": engine.t,
        "epoch_length": engine.schedule.epoch_length,
        "config": to_jsonable(config),
        "failure_manager": type(manager).__name__ if manager else None,
        "monitor": type(engine.monitor).__name__ if engine.monitor else None,
        "telemetry": engine.telemetry is not None,
        "events": engine.events.count if engine.events is not None else None,
    }
    runtime: Dict[str, object] = {
        "wall_seconds": wall_seconds,
        "slots_per_sec": (
            engine.t / wall_seconds
            if wall_seconds and wall_seconds > 0 else None
        ),
        "peak_rss_kb": _peak_rss_kb(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
    }
    if engine.profiler is not None:
        runtime["profile"] = engine.profiler.report()
    return {"run": run, "runtime": runtime}
