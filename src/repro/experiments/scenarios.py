"""Resilience scorecards over the correlated-failure x adversarial matrix.

Extends the fig12 story (throughput under independent node failures) to a
full resilience chapter: every named failure pattern
(:data:`repro.scenarios.FAILURE_PATTERNS`) is crossed with every named
workload shape (:data:`repro.scenarios.WORKLOAD_SHAPES`) and congestion
control mechanism, each cell is scored from its
:class:`~repro.sim.monitor.RunMonitor` conservation/stall/detection
metrics, and the grid reduces to one score per mechanism (see
:mod:`repro.scenarios.scorecard` for the formula and DESIGN.md §9 for the
determinism contract).

Expected shape: mechanisms with hop-by-hop backpressure and spraying hold
their scores across the adversarial column; ``none`` degrades most under
incast storms, and correlated outages cost every mechanism more than the
equal-budget independent flaps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from ..scenarios import build_scorecard, format_scorecard, run_matrix
from ..scenarios.registry import FAILURE_PATTERNS, WORKLOAD_SHAPES

__all__ = ["ScenariosResult", "run", "report"]

#: grid defaults: every registered pattern/shape, all four mechanisms
DEFAULT_PATTERNS = ("baseline", "rack-outage", "gray-links", "cascade",
                    "flaky")
DEFAULT_WORKLOADS = ("uniform-perms", "incast-storm", "hot-dest",
                     "adversarial-perm")
DEFAULT_MECHANISMS = ("none", "hop-by-hop", "hbh+spray", "isd")


@dataclass
class ScenariosResult:
    """The scored matrix plus its per-mechanism reduction."""

    n: int
    h: int
    scorecard: Dict[str, Any] = field(default_factory=dict)


def run(
    *,
    n: int = 16,
    h: int = 2,
    duration: int = 3000,
    flow_cells: int = 60,
    propagation_delay: int = 2,
    patterns: Sequence[str] = DEFAULT_PATTERNS,
    workloads: Sequence[str] = DEFAULT_WORKLOADS,
    mechanisms: Sequence[str] = DEFAULT_MECHANISMS,
    seed: int = 0,
    workers: int = 1,
    json_out: Optional[str] = None,
) -> ScenariosResult:
    """Run the scenario matrix and build the resilience scorecard.

    Args:
        patterns: failure-pattern names (see ``FAILURE_PATTERNS``).
        workloads: workload-shape names (see ``WORKLOAD_SHAPES``).
        mechanisms: congestion-control mechanisms to compare.
        json_out: also write the scorecard as canonical JSON to this path
            (the CI smoke job byte-compares two such files).
        workers: fan the grid cells out over a process pool when ``> 1``.
    """
    cells = run_matrix(
        list(patterns), list(workloads), list(mechanisms),
        n=n, h=h, duration=duration, flow_cells=flow_cells,
        propagation_delay=propagation_delay, seed=seed, workers=workers,
    )
    grid: Dict[str, Any] = {
        "patterns": list(patterns),
        "workloads": list(workloads),
        "mechanisms": list(mechanisms),
        "n": n, "h": h, "duration": duration, "flow_cells": flow_cells,
        "propagation_delay": propagation_delay, "seed": seed,
    }
    scorecard = build_scorecard(cells, grid)
    if json_out:
        from ..obs.serialize import canonical_json

        with open(json_out, "w") as fh:
            fh.write(canonical_json(scorecard) + "\n")
    return ScenariosResult(n=n, h=h, scorecard=scorecard)


def report(result: ScenariosResult) -> str:
    """The per-mechanism resilience scorecard as a ranked table."""
    card = result.scorecard
    grid = card["grid"]
    known = (f"patterns: {', '.join(grid['patterns'])}\n"
             f"workloads: {', '.join(grid['workloads'])}")
    return (
        f"Resilience scorecard — N={result.n}, h={result.h}, "
        f"{len(card['cells'])} cells, seed={grid['seed']}\n"
        f"{known}\n"
        f"{format_scorecard(card)}\n"
        "score = 100 * (0.50*delivery + 0.20*conservation + 0.15*stability "
        "+ 0.15*detection); byte-identical across reruns and worker counts "
        "for a given seed."
    )
