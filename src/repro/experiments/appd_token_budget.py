"""Appendix D: the token budget parameters T and T_F.

Hop-by-hop throttles a bucket's sending rate to one un-acknowledged cell per
token round trip, so large propagation delays relative to the epoch length
cost throughput.  Appendix D introduces the budgets ``T`` (all hops) and
``T_F`` (first hops only) to recover it: permutation traffic keeps the
throughput guarantee while ``P <= h * T_F * E``.

This regenerator sweeps the propagation delay and the first-hop budget on a
permutation workload and reports achieved throughput against the guarantee —
the crossover where a budget stops sufficing should track the analytical
bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from ..congestion.token_budget import max_propagation_delay_first_hop
from ..core.schedule import Schedule
from ..sim.config import SimConfig
from ..sim.engine import Engine
from ..workloads.generators import permutation_workload
from .common import format_table

__all__ = ["AppDResult", "run", "report"]


@dataclass
class AppDResult:
    """Throughput per (propagation delay, T_F) configuration."""

    n: int
    h: int
    epoch_length: int
    rows: List[Tuple[int, int, int, float, float, int]]
    # (propagation_delay, t_f, t, throughput, guarantee, analytical_max_P)


def _run_cell(
    t_f: int,
    delay: int,
    n: int,
    h: int,
    duration: int,
    flow_cells: int,
    seed: int,
) -> Tuple[int, int, int, float, float, int]:
    """One (T_F, P) configuration's row — module-level for pools."""
    schedule = Schedule.shared(n, h)
    analytical = max_propagation_delay_first_hop(schedule, t_f)
    cfg = SimConfig(
        n=n, h=h, duration=duration, propagation_delay=delay,
        congestion_control="hop-by-hop",
        token_budget=1, first_hop_token_budget=t_f, seed=seed,
    )
    workload = permutation_workload(cfg, size_cells=flow_cells)
    engine = Engine(cfg, workload=workload)
    engine.run()
    return (
        delay,
        t_f,
        cfg.token_budget,
        engine.throughput(),
        schedule.throughput_guarantee(),
        analytical,
    )


def run(
    *,
    n: int = 64,
    h: int = 2,
    propagation_delays: Sequence[int] = (0, 30, 60, 120, 240),
    first_hop_budgets: Sequence[int] = (1, 2, 4),
    duration: int = 20_000,
    flow_cells: int = 20_000,
    seed: int = 19,
    workers: int = 1,
) -> AppDResult:
    """Sweep P x T_F on a saturating permutation workload."""
    from ..sim.parallel import sweep

    schedule = Schedule.shared(n, h)
    grid = [
        dict(t_f=t_f, delay=delay, n=n, h=h, duration=duration,
             flow_cells=flow_cells, seed=seed)
        for t_f in first_hop_budgets
        for delay in propagation_delays
    ]
    return AppDResult(
        n=n, h=h, epoch_length=schedule.epoch_length,
        rows=sweep(_run_cell, grid, workers=workers),
    )


def report(result: AppDResult) -> str:
    """Throughput vs propagation delay for each first-hop budget."""
    table = format_table(
        ["P (slots)", "T_F", "T", "throughput", "guarantee",
         "analytical max P"],
        result.rows,
        float_fmt="{:.3f}",
    )
    return (
        f"Appendix D — token budget sweep, N={result.n}, h={result.h}, "
        f"E={result.epoch_length}\n{table}\n"
        "Throughput should hold near the guarantee while P stays below the "
        "analytical bound for the given T_F, and sag beyond it."
    )
