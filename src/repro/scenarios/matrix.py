"""The scenario matrix driver: {failure} x {workload} x {mechanism} cells.

Each cell is one simulation: the named failure pattern and workload shape
are materialised from the registry inside the worker (only names cross the
process boundary), a :class:`~repro.sim.monitor.RunMonitor` watches the
run, and the cell returns its reduced metrics plus resilience score.

Cells run through :func:`repro.sim.parallel.sweep`, so they pick up the
ambient cell cache, checkpoint policy, telemetry capture and crash-retry
budget exactly like the figure experiments.

Determinism: every cell's engine seed is
:func:`scenario_cell_seed(master, pattern, workload, mechanism)
<scenario_cell_seed>` — a CRC32 of the master seed and the cell's grid
coordinates.  Cells are therefore independent of grid order, worker count
and which other cells exist, and the scorecard built from them is
byte-identical across reruns.
"""

from __future__ import annotations

import zlib
from typing import Any, Dict, List, Optional, Sequence

from ..sim.config import SimConfig
from ..sim.engine import Engine
from ..sim.monitor import RunMonitor
from .registry import FAILURE_PATTERNS, WORKLOAD_SHAPES
from .scorecard import score_cell

__all__ = ["run_matrix", "scenario_cell_seed"]


def scenario_cell_seed(seed: object, pattern: str, workload: str,
                       mechanism: str) -> int:
    """The deterministic engine seed for one grid cell."""
    return zlib.crc32(f"{seed}:{pattern}:{workload}:{mechanism}".encode())


def _scenario_cell(
    pattern: str,
    workload: str,
    mechanism: str,
    n: int,
    h: int,
    duration: int,
    flow_cells: int,
    propagation_delay: int,
    seed: object,
) -> Dict[str, Any]:
    """One matrix cell — module-level so process pools can run it."""
    cfg = SimConfig(
        n=n, h=h, duration=duration,
        propagation_delay=propagation_delay,
        congestion_control=mechanism,
        seed=scenario_cell_seed(seed, pattern, workload, mechanism),
    )
    manager = FAILURE_PATTERNS[pattern].build(cfg)
    flows = WORKLOAD_SHAPES[workload].build(cfg, flow_cells)
    engine = Engine(cfg, workload=flows, failure_manager=manager)
    monitor = RunMonitor().attach(engine)
    engine.run()
    metrics = monitor.scorecard_metrics()
    return {
        "pattern": pattern,
        "workload": workload,
        "mechanism": mechanism,
        "metrics": metrics,
        "score": score_cell(metrics),
    }


def run_matrix(
    patterns: Sequence[str],
    workloads: Sequence[str],
    mechanisms: Sequence[str],
    *,
    n: int,
    h: int,
    duration: int,
    flow_cells: int,
    propagation_delay: int = 2,
    seed: object = 0,
    workers: Optional[int] = None,
    retries: Optional[int] = None,
) -> List[Dict[str, Any]]:
    """Run the full scenario grid; return scored cells in grid order.

    The grid iterates patterns (outer), workloads, mechanisms (inner).
    Unknown names fail fast — the registry lookups below raise — before
    any worker is spawned.
    """
    for pattern in patterns:
        FAILURE_PATTERNS[pattern]
    for workload in workloads:
        WORKLOAD_SHAPES[workload]
    from ..sim.parallel import sweep

    grid = [
        dict(pattern=pattern, workload=workload, mechanism=mechanism,
             n=n, h=h, duration=duration, flow_cells=flow_cells,
             propagation_delay=propagation_delay, seed=seed)
        for pattern in patterns
        for workload in workloads
        for mechanism in mechanisms
    ]
    return sweep(_scenario_cell, grid, workers=workers,
                 label="scenarios", retries=retries)
