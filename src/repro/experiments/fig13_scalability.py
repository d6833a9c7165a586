"""Figure 13: scalability of resources and latency with system size.

The paper simulates the short flow workload at sizes from 4,096 to 50,625
nodes and tracks, per tuning (h=2 and h=4):

* the maximum number of active buckets (top row, left axis of Fig. 13),
* the maximum PIEO queue length,
* 99.9% size-normalised FCT per flow-size bucket.

Expected shape: over an order of magnitude of scaling, h=2 uses only ~2.5x
more active buckets with plateauing PIEO lengths, h=4 stays nearly flat, and
short-flow FCTs grow at most ~2x (h=2) or stay flat (h=4).

Defaults are scaled down (perfect powers for both tunings: 16..1296); the
``sizes`` argument accepts the paper's values for anyone with the patience,
and ``paper_scale=True`` (``--paper-scale`` on the runner) swaps in a
paper-scale grid whose largest points reach N = 10,000 nodes.  Every size
must be a perfect h-th power (EBS needs an integral radix r = n**(1/h));
infeasible (h, n) pairs are rejected up front with the nearest feasible
alternatives, before any simulation time is spent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..analysis.fct import fct_table
from ..hardware.resources import observe_resources
from ..sim.config import SimConfig
from ..sim.engine import Engine
from ..workloads.distributions import bucket_label
from .common import format_table, load_for, run_cc_experiment, workload_for

__all__ = ["Fig13Result", "run", "report", "DEFAULT_SIZES", "PAPER_SIZES"]

#: Down-scaled size sweeps; each n must be a perfect h-th power.
DEFAULT_SIZES: Dict[int, Tuple[int, ...]] = {
    2: (64, 144, 256, 400, 625),
    4: (16, 81, 256, 625, 1296),
}

#: Paper-scale sweeps (``--paper-scale``): the largest point of each tuning
#: reaches N = 10,000 nodes (r=100 for h=2, r=10 for h=4).
PAPER_SIZES: Dict[int, Tuple[int, ...]] = {
    2: (1024, 4096, 10_000),
    4: (1296, 4096, 10_000),
}


def _feasible_radix(n: int, h: int) -> Optional[int]:
    """The integral radix r with r**h == n (r >= 2), or None."""
    if n < 2 ** h:
        return None
    r = round(n ** (1.0 / h))
    for candidate in (r - 1, r, r + 1):
        if candidate >= 2 and candidate ** h == n:
            return candidate
    return None


def _validate_sizes(sizes: Dict[int, Tuple[int, ...]]) -> None:
    """Reject infeasible (h, n) pairs before any simulation time is spent.

    EBS needs an integral radix r = n**(1/h) with r >= 2; for every
    infeasible pair the error lists the nearest feasible sizes so a sweep
    can be corrected without consulting the topology code.
    """
    problems = []
    for h, size_list in sorted(sizes.items()):
        if h < 1:
            problems.append(f"h={h}: tuning must satisfy h >= 1")
            continue
        for n in size_list:
            if _feasible_radix(n, h) is not None:
                continue
            r = max(2, round(n ** (1.0 / h)))
            nearby = sorted({max(2, r - 1) ** h, r ** h, (r + 1) ** h})
            alts = ", ".join(str(a) for a in nearby if a != n)
            problems.append(
                f"h={h}, n={n}: n must be a perfect {h}-th power of an "
                f"integral radix r >= 2 (nearest feasible: {alts})"
            )
    if problems:
        raise ValueError(
            "infeasible fig13 size grid:\n  " + "\n  ".join(problems)
        )


@dataclass
class Fig13Result:
    """Per-(h, N) resource peaks and FCT tails."""

    rows: List[Tuple[int, int, int, int, Dict[int, float]]]
    # (h, n, max_active_buckets, max_pieo_length, fct_tail per bucket)


def _run_cell(
    h: int,
    n: int,
    duration: int,
    propagation_delay: int,
    seed: int,
) -> Tuple[int, int, int, int, Dict[int, float]]:
    """One (h, N) size point — module-level so process pools can run it."""
    cfg = SimConfig(
        n=n, h=h, duration=duration,
        propagation_delay=propagation_delay,
        congestion_control="hbh+spray", seed=seed,
    )
    workload = workload_for(cfg, "short-flow", load=load_for(h))
    engine = run_cc_experiment(cfg, workload)
    observation = observe_resources(engine)
    table = fct_table(engine.flows.completed, propagation_delay)
    return (
        h,
        n,
        observation.max_active_buckets,
        observation.max_pieo_length,
        table.tail(99.9),
    )


def run(
    *,
    sizes: Optional[Dict[int, Sequence[int]]] = None,
    duration: int = 30_000,
    propagation_delay: int = 8,
    seed: int = 13,
    workers: int = 1,
    paper_scale: bool = False,
) -> Fig13Result:
    """Sweep system size for each tuning on the short flow workload."""
    from ..sim.parallel import sweep

    if sizes is None:
        sizes = PAPER_SIZES if paper_scale else DEFAULT_SIZES
    sizes = {int(k): tuple(v) for k, v in sizes.items()}
    _validate_sizes(sizes)
    grid = [
        dict(h=h, n=n, duration=duration,
             propagation_delay=propagation_delay, seed=seed)
        for h, size_list in sorted(sizes.items())
        for n in size_list
    ]
    return Fig13Result(rows=sweep(_run_cell, grid, workers=workers))


def report(result: Fig13Result) -> str:
    """The three Fig. 13 panels as tables."""
    resource_table = format_table(
        ["h", "N", "max active buckets", "max PIEO length"],
        [(h, n, a, p) for h, n, a, p, _ in result.rows],
    )
    buckets = sorted({b for *_rest, tails in result.rows for b in tails})
    fct_rows = []
    for h, n, _, _, tails in result.rows:
        row: List[object] = [f"h={h} N={n}"]
        row.extend(tails.get(b, float("nan")) for b in buckets)
        fct_rows.append(row)
    fct_text = format_table(
        ["config"] + [bucket_label(b) for b in buckets], fct_rows
    )
    return (
        "Figure 13 — scalability with system size (short flow workload)\n"
        f"{resource_table}\n\n99.9% FCT per bucket:\n{fct_text}\n"
        "Resources and short-flow FCTs should stay nearly flat as N grows, "
        "especially for h=4."
    )
