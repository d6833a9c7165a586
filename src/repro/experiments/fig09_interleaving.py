"""Figure 9: interleaved schedules on the heavy-tailed workload.

The paper interleaves a high-throughput sub-schedule (h=1 or h=2) with the
low-latency h=4 sub-schedule, sweeping the share ``s`` of timeslots given to
the h=4 class (0%, 20%, 40%, 50%, 100%).  Short flows ride the h=4
sub-schedule; the flow-size cutoff is chosen so both classes see equivalent
utilisation.  The total load tracks the combined throughput guarantee
(e.g. s=20% interleaving h=2 and h=4 supports L = 0.8*0.24 + 0.2*0.12).

Each configuration reports 99.9% size-normalised FCT per flow-size bucket —
showing that interleaving buys high total throughput while keeping the h=4
class's short-flow latency.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..analysis.fct import fct_table
from ..core.interleave import two_class_interleave
from ..sim.config import SimConfig
from ..sim.multiclass import MultiClassSimulation
from ..workloads.distributions import HeavyTailedDistribution, bucket_label
from ..workloads.generators import poisson_workload
from .common import format_table, load_for

__all__ = ["Fig09Result", "run", "report", "combined_load"]


def combined_load(h_bulk: int, h_latency: int, s: float,
                  fraction: float = 0.9) -> float:
    """Load factor matching the interleave's combined throughput guarantee."""
    bulk = (1.0 - s) / (2 * h_bulk)
    latency = s / (2 * h_latency)
    return fraction * (bulk + latency)


@dataclass
class Fig09Result:
    """Tail FCT per bucket for each interleave share ``s``."""

    n: int
    h_bulk: int
    h_latency: int
    tails: Dict[float, Dict[int, float]]  # s -> bucket -> p99.9
    loads: Dict[float, float]


def _run_cell(
    s: float,
    n: int,
    h_bulk: int,
    h_latency: int,
    duration: int,
    propagation_delay: int,
    cutoff_cells: int,
    workload_scale: float,
    seed: int,
) -> Tuple[float, Dict[int, float]]:
    """One interleave share's (load, tails) — module-level for pools."""
    load = combined_load(h_bulk, h_latency, s)
    base = SimConfig(
        n=n,
        h=h_latency if s > 0 else h_bulk,
        duration=duration,
        propagation_delay=propagation_delay,
        congestion_control="hbh+spray",
        seed=seed,
    )
    distribution = HeavyTailedDistribution(scale=workload_scale)
    workload = poisson_workload(base, distribution, load=load)
    if s in (0.0, 1.0):
        # single-schedule endpoints
        from ..sim.engine import Engine

        engine = Engine(base, workload=workload)
        engine.run()
        engine.run_until_quiescent(max_extra=duration * 3)
        completed = engine.flows.completed
    else:
        interleave = two_class_interleave(
            n, h_bulk, h_latency, s, cutoff_cells=cutoff_cells
        )
        sim = MultiClassSimulation(interleave, base, workload=workload)
        sim.run(duration)
        sim.run_until_quiescent(max_extra=duration * 3)
        completed = sim.completed_flows()
    return load, fct_table(completed, propagation_delay).tail(99.9)


def run(
    *,
    n: int = 81,
    h_bulk: int = 2,
    h_latency: int = 4,
    shares: Sequence[float] = (0.0, 0.2, 0.4, 0.5, 1.0),
    duration: int = 40_000,
    propagation_delay: int = 8,
    cutoff_cells: int = 64,
    workload_scale: float = 0.02,
    seed: int = 3,
    workers: int = 1,
) -> Fig09Result:
    """Sweep the interleave share ``s`` on the heavy-tailed workload.

    ``n`` must be a perfect power for both tunings (81 = 3^4 = 9^2 works
    for h=4 and h=2; use 4096 for h=1&4 at larger scale).  ``workers > 1``
    runs the shares as parallel sweep cells.
    """
    from ..sim.parallel import sweep

    grid = [
        dict(s=s, n=n, h_bulk=h_bulk, h_latency=h_latency,
             duration=duration, propagation_delay=propagation_delay,
             cutoff_cells=cutoff_cells, workload_scale=workload_scale,
             seed=seed)
        for s in shares
    ]
    cells = sweep(_run_cell, grid, workers=workers)
    tails: Dict[float, Dict[int, float]] = {}
    loads: Dict[float, float] = {}
    for s, (load, tail) in zip(shares, cells):
        loads[s] = load
        tails[s] = tail
    return Fig09Result(
        n=n, h_bulk=h_bulk, h_latency=h_latency, tails=tails, loads=loads
    )


def report(result: Fig09Result) -> str:
    """One column per share ``s``, rows per flow-size bucket (Fig. 9)."""
    buckets = sorted({b for t in result.tails.values() for b in t})
    headers = ["flow size"] + [
        f"s={int(s*100)}% L={result.loads[s]:.3f}" for s in result.tails
    ]
    rows = []
    for b in buckets:
        row: List[object] = [bucket_label(b)]
        for s in result.tails:
            row.append(result.tails[s].get(b, float("nan")))
        rows.append(row)
    table = format_table(headers, rows)
    return (
        f"Figure 9 — interleaving h={result.h_bulk} and h={result.h_latency}, "
        f"N={result.n}, heavy-tailed workload\n{table}\n"
        "Interleaved columns should keep short-flow tails near the "
        "s=100% (pure low-latency) column while sustaining the higher "
        "combined load."
    )
