"""Shared plumbing for the experiment regenerators.

Every experiment module exposes a ``run(...)`` function returning a plain
result object with the same rows/series the paper's figure reports, plus a
``report(result)`` function rendering it as text.  Default parameters are
scaled down from the paper (documented per experiment and in EXPERIMENTS.md)
but every knob can be turned back up to paper scale.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

from ..sim.config import SimConfig
from ..sim.engine import Engine, ScheduledFlow
from ..workloads.distributions import (
    HeavyTailedDistribution,
    ShortFlowDistribution,
)
from ..workloads.generators import poisson_workload

__all__ = [
    "run_cc_experiment",
    "load_for",
    "workload_for",
    "format_table",
    "DISTRIBUTIONS",
]

DISTRIBUTIONS = {
    "short-flow": ShortFlowDistribution,
    "heavy-tailed": HeavyTailedDistribution,
}


def load_for(h: int, fraction_of_guarantee: float = 0.96) -> float:
    """The paper's load-factor convention: just under the 1/(2h) guarantee.

    The paper uses L = 0.24 for h = 2 and L = 0.12 for h = 4 — 96% of the
    respective guarantees.
    """
    return fraction_of_guarantee / (2 * h)


#: Default flow-size scale for down-scaled runs of each workload: the
#: short-flow mix fits small horizons as-is, while the heavy-tailed mix needs
#: its elephants shrunk so they arrive (and complete) within the window, the
#: same ratio by which the default horizons are shorter than the paper's 50M
#: timeslots.  Paper-scale runs pass scale=1.0.
DEFAULT_WORKLOAD_SCALE = {
    "short-flow": 1.0,
    "heavy-tailed": 0.02,
}


def workload_for(
    config: SimConfig,
    distribution_name: str,
    load: Optional[float] = None,
    scale: Optional[float] = None,
) -> List[ScheduledFlow]:
    """Build the Poisson workload the paper uses for ``distribution_name``."""
    if scale is None:
        scale = DEFAULT_WORKLOAD_SCALE[distribution_name]
    distribution = DISTRIBUTIONS[distribution_name](scale=scale)
    actual_load = load if load is not None else load_for(config.h)
    return poisson_workload(config, distribution, actual_load)


def run_cc_experiment(
    config: SimConfig,
    workload: Sequence[ScheduledFlow],
    drain: bool = True,
    max_drain: int = 200_000,
) -> Engine:
    """Run one (mechanism, workload) cell of a Fig. 10/11-style experiment."""
    engine = Engine(config, workload=list(workload))
    engine.run()
    if drain:
        engine.run_until_quiescent(max_extra=max_drain)
    return engine


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    float_fmt: str = "{:.2f}",
) -> str:
    """Render an aligned plain-text table (the experiment report format)."""
    rendered: List[List[str]] = [[str(header) for header in headers]]
    for row in rows:
        cells = []
        for value in row:
            if isinstance(value, float):
                cells.append(float_fmt.format(value))
            else:
                cells.append(str(value))
        rendered.append(cells)
    widths = [
        max(len(r[i]) for r in rendered) for i in range(len(rendered[0]))
    ]
    lines = []
    for i, row in enumerate(rendered):
        lines.append(
            "  ".join(cell.rjust(w) for cell, w in zip(row, widths))
        )
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)
