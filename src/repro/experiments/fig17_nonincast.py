"""Figure 17 (Appendix B.3): tail FCTs excluding flows incast with elephants.

Hop-by-hop does not differentiate cells bound for the same destination, so a
short flow sharing a destination with an ongoing very long (>256 MB) flow
inherits that elephant's egress congestion.  The paper re-plots the
heavy-tailed tails with such incasted flows excluded, showing HBH+spray
(h=2) closing most of its gap to the idealized ISD baseline.

This regenerator runs the heavy-tailed grid, identifies destinations that
ever receive a very long flow, and reports tails with and without flows to
those destinations.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Set

from ..analysis.fct import fct_table
from ..sim.config import SimConfig
from ..workloads.distributions import bucket_label, bytes_to_cells
from .common import experiment_entrypoint, format_table, load_for, run_cc_experiment, workload_for

__all__ = ["Fig17Result", "run", "report", "ELEPHANT_BYTES"]

#: The paper's "very long flow" threshold: 256 MB.
ELEPHANT_BYTES = 256 * 1024 * 1024


@dataclass
class Fig17Result:
    """Tails per mechanism with and without incasted flows."""

    n: int
    h: int
    elephant_bytes: int
    all_tails: Dict[str, Dict[int, float]]
    non_incast_tails: Dict[str, Dict[int, float]]
    excluded_destinations: int


def _run_cell(
    mechanism: str,
    n: int,
    h: int,
    duration: int,
    propagation_delay: int,
    seed: int,
    elephant_bytes: int,
    workload_scale: float,
    load: Optional[float],
) -> Dict[str, Dict[int, float]]:
    """One mechanism's all/no-incast tails — module-level for pools.

    The workload (and hence the elephant-destination set) regenerates
    deterministically from the seed, so every cell filters identically.
    """
    base = SimConfig(
        n=n, h=h, duration=duration, propagation_delay=propagation_delay,
        congestion_control="none", seed=seed,
    )
    target = load if load is not None else load_for(h)
    workload = workload_for(
        base, "heavy-tailed", load=target, scale=workload_scale
    )
    elephant_dsts: Set[int] = {
        dst for (_t, _src, dst, _cells, size_bytes) in workload
        if size_bytes > elephant_bytes
    }
    cfg = replace(base, congestion_control=mechanism)
    engine = run_cc_experiment(cfg, workload)
    completed = engine.flows.completed
    return {
        "all": fct_table(completed, propagation_delay).tail(99.9),
        "non_incast": fct_table(
            completed, propagation_delay, exclude_dsts=sorted(elephant_dsts)
        ).tail(99.9),
        "excluded": len(elephant_dsts),
    }


@experiment_entrypoint
def run(
    *,
    n: int = 64,
    h: int = 2,
    mechanisms: Sequence[str] = ("isd", "ndp", "hbh+spray"),
    duration: int = 60_000,
    propagation_delay: int = 8,
    seed: int = 17,
    elephant_bytes: Optional[int] = None,
    workload_scale: float = 0.02,
    load: Optional[float] = None,
    workers: int = 1,
) -> Fig17Result:
    """Heavy-tailed grid plus the non-incast filtered view.

    The elephant threshold defaults to the paper's 256 MB multiplied by
    ``workload_scale``, so the filter keeps its meaning when the flow-size
    distribution is down-scaled.  ``workers > 1`` runs the mechanisms as
    parallel sweep cells.
    """
    from ..sim.parallel import sweep

    if elephant_bytes is None:
        elephant_bytes = max(1, int(ELEPHANT_BYTES * workload_scale))
    grid = [
        dict(mechanism=mechanism, n=n, h=h, duration=duration,
             propagation_delay=propagation_delay, seed=seed,
             elephant_bytes=elephant_bytes, workload_scale=workload_scale,
             load=load)
        for mechanism in mechanisms
    ]
    cells = sweep(_run_cell, grid, workers=workers)
    all_tails: Dict[str, Dict[int, float]] = {}
    non_incast: Dict[str, Dict[int, float]] = {}
    excluded = 0
    for mechanism, cell in zip(mechanisms, cells):
        all_tails[mechanism] = cell["all"]
        non_incast[mechanism] = cell["non_incast"]
        excluded = cell["excluded"]
    return Fig17Result(
        n=n,
        h=h,
        elephant_bytes=elephant_bytes,
        all_tails=all_tails,
        non_incast_tails=non_incast,
        excluded_destinations=excluded,
    )


def report(result: Fig17Result) -> str:
    """Tails with vs without elephant-incasted flows (Fig. 17)."""
    mechanisms = list(result.all_tails)
    buckets = sorted(
        {b for t in result.all_tails.values() for b in t}
        | {b for t in result.non_incast_tails.values() for b in t}
    )
    rows = []
    for b in buckets:
        row: List[object] = [bucket_label(b)]
        for m in mechanisms:
            row.append(result.all_tails[m].get(b, float("nan")))
            row.append(result.non_incast_tails[m].get(b, float("nan")))
        rows.append(row)
    headers = ["flow size"]
    for m in mechanisms:
        headers.extend([f"{m} all", f"{m} no-incast"])
    table = format_table(headers, rows)
    return (
        f"Figure 17 — non-incasted tails, heavy-tailed workload, "
        f"N={result.n}, h={result.h} "
        f"(excluded {result.excluded_destinations} elephant destinations)\n"
        f"{table}\n"
        "Excluding elephant-incasted flows should close most of "
        "HBH+spray's gap to ISD."
    )
