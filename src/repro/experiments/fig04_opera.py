"""Figure 4: Opera vs Shale h=1 on the heavy-tailed workload.

The paper runs 576-node configurations of both systems on the heavy-tailed
workload at L=0.4 and plots 99.9% size-normalised FCT per flow-size bucket.
The structural outcome to reproduce: Opera's shortest flows beat Shale h=1
(no reconfiguration penalty within an expander configuration), but its bulk
flows are penalised by RotorLB's ~1/(N-1) direct-connection frequency, with
tails hundreds of times above the line-rate ideal, while Shale h=1 keeps all
buckets bounded.

Scaled default: N=144 with proportionally shortened horizons; pass
``n=576``, ``duration≈50_000_000`` to approach paper scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..analysis.fct import fct_table
from ..baselines.opera import OperaConfig, OperaSimulator
from ..sim.config import SimConfig
from ..sim.engine import Engine
from ..workloads.distributions import HeavyTailedDistribution, bucket_label
from ..workloads.generators import poisson_workload
from .common import experiment_entrypoint, format_table

__all__ = ["Fig04Result", "run", "report"]


@dataclass
class Fig04Result:
    """Tail FCT per flow-size bucket for both systems."""

    n: int
    shale_tails: Dict[int, float]
    opera_tails: Dict[int, float]
    propagation_delay: int


def _run_system(
    system: str,
    n: int,
    duration: int,
    load: float,
    propagation_delay: int,
    opera_period_cells: int,
    workload_scale: float,
    seed: int,
) -> Dict[int, float]:
    """Tail FCT per bucket for one system — module-level so pools can run it.

    Both cells regenerate the identical workload from the same seed, so the
    two systems see the same flows whether the cells run sequentially, in
    parallel, or from the cell cache.
    """
    cfg = SimConfig(
        n=n,
        h=1,
        duration=duration,
        propagation_delay=propagation_delay,
        congestion_control="hbh+spray",
        seed=seed,
    )
    distribution = HeavyTailedDistribution(scale=workload_scale)
    workload = list(poisson_workload(cfg, distribution, load=load))

    if system == "shale":
        shale = Engine(cfg, workload=workload)
        shale.run()
        shale.run_until_quiescent(max_extra=duration * 4)
        return fct_table(shale.flows.completed, propagation_delay).tail(99.9)
    if system == "opera":
        opera = OperaSimulator(
            OperaConfig(
                n=n,
                period_cells=opera_period_cells,
                propagation_cells=propagation_delay,
                seed=seed,
            )
        )
        opera.schedule_flows(workload)
        opera.run(duration)
        opera.run_until_quiescent()
        return fct_table(opera.completed, propagation_delay).tail(99.9)
    raise ValueError(f"unknown system {system!r}")


@experiment_entrypoint
def run(
    *,
    n: int = 144,
    duration: int = 60_000,
    load: float = 0.4,
    propagation_delay: int = 30,
    opera_period_cells: int = 1450,
    workload_scale: float = 0.02,
    seed: int = 1,
    workers: int = 1,
) -> Fig04Result:
    """Run both systems on an identical heavy-tailed workload.

    ``workload_scale`` shrinks the flow-size distribution for down-scaled
    horizons (see :mod:`repro.workloads.distributions`); pass 1.0 at paper
    scale.  ``workers > 1`` runs the two systems as parallel sweep cells.
    """
    from ..sim.parallel import sweep

    shared = dict(
        n=n, duration=duration, load=load,
        propagation_delay=propagation_delay,
        opera_period_cells=opera_period_cells,
        workload_scale=workload_scale, seed=seed,
    )
    grid = [dict(system=system, **shared) for system in ("shale", "opera")]
    shale_tails, opera_tails = sweep(_run_system, grid, workers=workers)

    return Fig04Result(
        n=n,
        shale_tails=shale_tails,
        opera_tails=opera_tails,
        propagation_delay=propagation_delay,
    )


def report(result: Fig04Result) -> str:
    """Side-by-side tail FCTs per bucket, as in Fig. 4."""
    buckets = sorted(set(result.shale_tails) | set(result.opera_tails))
    rows = [
        (
            bucket_label(b),
            result.shale_tails.get(b, float("nan")),
            result.opera_tails.get(b, float("nan")),
        )
        for b in buckets
    ]
    table = format_table(
        ["flow size", "Shale h=1 p99.9", "Opera p99.9"], rows
    )
    bulk = [b for b in buckets if b >= 6 and b in result.opera_tails]
    takeaway = ""
    if bulk:
        worst = max(result.opera_tails[b] for b in bulk)
        takeaway = (
            f"\nOpera bulk-flow tails reach {worst:.0f}x the line-rate ideal "
            f"(paper: ~400x at N=576) — RotorLB's direct-connection scarcity."
        )
    return f"Figure 4 — Opera vs Shale h=1, N={result.n}\n{table}{takeaway}"
