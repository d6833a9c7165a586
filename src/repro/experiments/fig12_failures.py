"""Figure 12: throughput under failures (nodes, links, or both).

The paper fails 0-8% of a 10K-node network (h=2 and h=4), drives the rest
with 10 overlaid permutation matrices (permutations exclude failed nodes),
runs 2M timeslots and reports the average destination throughput of the
remaining nodes, alongside the no-failure lower bound ``1/(2h)``.

This reproduction extends the sweep beyond the paper's node-failure axis:
``mode="links"`` fails whole links instead of nodes (the network stays
fully connected, so degradation should be milder), and ``mode="mixed"``
splits the budget between the two.  Every run carries a
:class:`~repro.sim.monitor.RunMonitor`, so each row also reports the mean
cell-driven detection latency (epochs), the total drops and whether the
cell-conservation invariant held throughout.

Expected shape: throughput declines roughly in proportion to the failed
fraction; with most of the fabric alive, good throughput is maintained.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..core.coordinates import CoordinateSystem
from ..failures.manager import FailureManager
from ..sim.config import SimConfig
from ..sim.engine import Engine
from ..sim.monitor import RunMonitor
from ..workloads.generators import overlaid_permutations_workload
from .common import format_table

__all__ = ["Fig12Result", "Fig12Row", "run", "report"]


@dataclass
class Fig12Row:
    """One (h, failed fraction) cell of the sweep."""

    h: int
    fraction: float
    failed_count: int
    throughput: float
    guarantee: float
    detect_epochs: Optional[float]  # mean first-detection latency
    drops: int
    conserved: bool


@dataclass
class Fig12Result:
    """Throughput per (h, failed fraction)."""

    n: int
    mode: str
    rows: List[Fig12Row]


def _pick_links(coords: CoordinateSystem, count: int,
                rng: random.Random) -> List[Tuple[int, int]]:
    """Sample ``count`` distinct undirected neighbour links."""
    all_links = sorted(
        (a, b)
        for a in range(coords.n)
        for b in coords.all_neighbors(a)
        if a < b
    )
    return rng.sample(all_links, count) if count else []


def _run_cell(
    h: int,
    fraction: float,
    n: int,
    duration: int,
    flow_cells: int,
    permutations: int,
    propagation_delay: int,
    seed: int,
    mode: str,
    detection_epochs: int,
) -> Fig12Row:
    """One (h, failed fraction) cell — module-level so pools can run it."""
    coords = CoordinateSystem.shared(n, h)
    n_links = n * h * (coords.r - 1) // 2
    rng = random.Random(seed + int(fraction * 1000))
    node_frac = {"nodes": fraction, "links": 0.0,
                 "mixed": fraction / 2}[mode]
    link_frac = {"nodes": 0.0, "links": fraction,
                 "mixed": fraction / 2}[mode]
    failed_count = int(round(node_frac * n))
    failed = rng.sample(range(n), failed_count) if failed_count else []
    link_count = int(round(link_frac * n_links))
    failed_links = _pick_links(coords, link_count, rng)
    alive = [i for i in range(n) if i not in set(failed)]
    cfg = SimConfig(
        n=n, h=h, duration=duration,
        propagation_delay=propagation_delay,
        congestion_control="hbh+spray", seed=seed,
    )
    workload = overlaid_permutations_workload(
        cfg, size_cells=flow_cells, count=permutations, nodes=alive
    )
    manager = FailureManager(
        failed_nodes=failed, failed_links=failed_links,
        detection_epochs=detection_epochs,
    )
    engine = Engine(cfg, workload=workload, failure_manager=manager)
    monitor = RunMonitor().attach(engine)
    engine.run()
    return Fig12Row(
        h=h,
        fraction=fraction,
        failed_count=failed_count + link_count,
        throughput=engine.throughput(),
        guarantee=1.0 / (2 * h),
        detect_epochs=manager.mean_detection_epochs(),
        drops=engine.metrics.cells_dropped,
        conserved=not monitor.violations,
    )


def run(
    *,
    n: int = 81,
    h_values: Sequence[int] = (2, 4),
    failed_fractions: Sequence[float] = (0.0, 0.02, 0.04, 0.06, 0.08),
    duration: int = 30_000,
    flow_cells: int = 20_000,
    permutations: int = 10,
    propagation_delay: int = 4,
    seed: int = 23,
    mode: str = "nodes",
    detection_epochs: int = 1,
    workers: int = 1,
) -> Fig12Result:
    """Sweep failed fractions for each tuning.

    Args:
        mode: what fails — ``"nodes"`` (the paper's sweep), ``"links"``
            (fail the same *fraction* of links instead), or ``"mixed"``
            (half the budget to each).
        detection_epochs: consecutive missed cells before a neighbour is
            declared down (forwarded to :class:`FailureManager`).
        workers: fan the grid cells out over a process pool when ``> 1``.
    """
    if mode not in ("nodes", "links", "mixed"):
        raise ValueError(f"unknown failure mode {mode!r}")
    from ..sim.parallel import sweep

    grid = [
        dict(h=h, fraction=fraction, n=n, duration=duration,
             flow_cells=flow_cells, permutations=permutations,
             propagation_delay=propagation_delay, seed=seed, mode=mode,
             detection_epochs=detection_epochs)
        for h in h_values
        for fraction in failed_fractions
    ]
    return Fig12Result(n=n, mode=mode,
                       rows=sweep(_run_cell, grid, workers=workers))


def report(result: Fig12Result) -> str:
    """Throughput vs failures, as in Fig. 12, plus resilience columns."""
    unit = {"nodes": "nodes", "links": "links", "mixed": "nodes+links"}
    table = format_table(
        ["h", "failed %", f"failed {unit[result.mode]}", "throughput",
         "no-failure bound", "detect (epochs)", "drops", "conserved"],
        [
            (
                row.h, f"{row.fraction*100:.0f}%", row.failed_count,
                row.throughput, row.guarantee,
                "-" if row.detect_epochs is None else row.detect_epochs,
                row.drops, "yes" if row.conserved else "NO",
            )
            for row in result.rows
        ],
        float_fmt="{:.3f}",
    )
    noun = {"nodes": "node", "links": "link", "mixed": "mixed node+link"}
    return (
        f"Figure 12 — throughput under {noun[result.mode]} failures, "
        f"N={result.n}\n"
        f"{table}\n"
        "Throughput should decline roughly in proportion to the failed "
        "fraction while staying near the bound when most of the fabric is "
        "alive; detection latency is about one epoch plus the propagation "
        "delay, and every run must conserve cells."
    )
