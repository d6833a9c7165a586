"""Figures 10 / 15 (top): congestion control on the short flow workload.

The paper runs all eight mechanisms on the short flow workload (primarily
path-collision congestion) for h=2 and h=4 at loads near each tuning's
throughput guarantee, and reports per mechanism:

* 99.9% size-normalised FCT per flow-size bucket (Fig. 10 bottom),
* 99.99% per-node total buffer occupancy (Fig. 10 top),
* max and 99% per-queue lengths (Fig. 15),
* achieved throughput (text: all within 2.5% of the target load).

Expected shape: spray-short and HBH+spray win tails and buffers; priority
trades tail for mean; ISD/RD barely differ from none (path collisions are
not an end-to-end phenomenon).
"""

from __future__ import annotations

from dataclasses import dataclass, replace, field
from typing import Dict, List, Optional, Sequence

from ..analysis.fct import fct_table
from ..congestion.mechanisms import EVALUATION_ORDER
from ..sim.config import SimConfig
from ..workloads.distributions import bucket_label
from .common import DISTRIBUTIONS, format_table, load_for, run_cc_experiment, workload_for

__all__ = ["CcResult", "CcCell", "run", "report"]


@dataclass
class CcCell:
    """Results for one (mechanism, h) cell of the comparison."""

    mechanism: str
    h: int
    fct_tail: Dict[int, float]
    fct_mean: Dict[int, float]
    buffer_p9999: float
    max_queue: int
    queue_p99: float
    throughput: float
    target_load: float
    drops: int
    trims: int


@dataclass
class CcResult:
    """All cells of a Fig. 10/11-style experiment."""

    workload_name: str
    n: int
    cells: List[CcCell] = field(default_factory=list)

    def cell(self, mechanism: str, h: int) -> CcCell:
        for cell in self.cells:
            if cell.mechanism == mechanism and cell.h == h:
                return cell
        raise KeyError((mechanism, h))


def _run_cell(
    mechanism: str,
    h: int,
    n: int,
    duration: int,
    propagation_delay: int,
    workload_name: str,
    seed: int,
    load: Optional[float],
) -> CcCell:
    """One (mechanism, h) cell — module-level so process pools can run it."""
    base = SimConfig(
        n=n, h=h, duration=duration,
        propagation_delay=propagation_delay,
        congestion_control="none", seed=seed,
    )
    target = load if load is not None else load_for(h)
    workload = workload_for(base, workload_name, load=target)
    cfg = replace(base, congestion_control=mechanism)
    engine = run_cc_experiment(cfg, workload)
    table = fct_table(engine.flows.completed, propagation_delay)
    metrics = engine.metrics
    return CcCell(
        mechanism=mechanism,
        h=h,
        fct_tail=table.tail(99.9),
        fct_mean=table.mean(),
        buffer_p9999=metrics.buffer_occupancy_percentile(99.99),
        max_queue=metrics.max_queue_length,
        queue_p99=metrics.queue_length_percentile(99.0),
        throughput=metrics.mean_throughput_cells_per_slot(duration, n),
        target_load=target,
        drops=metrics.cells_dropped,
        trims=metrics.cells_trimmed,
    )


def run(
    *,
    n: int = 16,
    h_values: Sequence[int] = (2, 4),
    mechanisms: Sequence[str] = EVALUATION_ORDER,
    duration: int = 40_000,
    propagation_delay: int = 8,
    workload_name: str = "short-flow",
    seed: int = 5,
    load: Optional[float] = None,
    workers: int = 1,
) -> CcResult:
    """Run the full mechanism x tuning grid on one workload.

    This is also ``fig14_mean_fct.run`` and ``fig15_queues.run``;
    ``fig11_heavytail.run`` is it with the heavy-tailed defaults bound.
    ``workers > 1`` fans the independent grid cells out over a process pool
    (each cell is its own simulation; results are identical to sequential).
    """
    from ..sim.parallel import sweep

    if workload_name not in DISTRIBUTIONS:
        raise ValueError(f"unknown workload {workload_name!r}; known: "
                         f"{sorted(DISTRIBUTIONS)}")
    grid = [
        dict(
            mechanism=mechanism, h=h, n=n, duration=duration,
            propagation_delay=propagation_delay,
            workload_name=workload_name, seed=seed, load=load,
        )
        for h in h_values
        for mechanism in mechanisms
    ]
    result = CcResult(workload_name=workload_name, n=n)
    result.cells.extend(sweep(_run_cell, grid, workers=workers))
    return result


def report(result: CcResult, tail_q: float = 99.9) -> str:
    """Fig. 10-shaped report: buffers per mechanism + FCT per bucket."""
    sections = []
    h_values = sorted({c.h for c in result.cells})
    for h in h_values:
        cells = [c for c in result.cells if c.h == h]
        buf_rows = [
            (c.mechanism, c.buffer_p9999, c.max_queue, c.queue_p99,
             c.throughput, c.target_load)
            for c in cells
        ]
        buf_table = format_table(
            ["mechanism", "buffer p99.99", "max queue", "queue p99",
             "throughput", "target L"],
            buf_rows,
        )
        buckets = sorted({b for c in cells for b in c.fct_tail})
        fct_rows = []
        for b in buckets:
            row: List[object] = [bucket_label(b)]
            row.extend(c.fct_tail.get(b, float("nan")) for c in cells)
            fct_rows.append(row)
        fct_table_text = format_table(
            ["flow size"] + [c.mechanism for c in cells], fct_rows
        )
        sections.append(
            f"--- h={h} ---\n{buf_table}\n\n"
            f"99.9% size-normalised FCT per bucket:\n{fct_table_text}"
        )
    return (
        f"Congestion control on the {result.workload_name} workload, "
        f"N={result.n}\n" + "\n\n".join(sections)
    )
