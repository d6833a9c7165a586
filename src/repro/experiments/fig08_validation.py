"""Figure 8: hardware prototype vs packet simulator cross-validation.

The paper runs identical 16-node permutation workloads on the ModelSim'd
FPGA prototype and on the packet simulator (h=2 and h=4), and checks that
throughput and maximum queue length agree, with both throughputs above the
theoretical guarantees (2.353 and 1.176 Gbps at the prototype's 9.412 Gbps
available bandwidth).

Our two implementations play those roles: the cycle-level
:class:`~repro.hardware.prototype.HardwareNetwork` (written against the FPGA
data structures) versus the packet :class:`~repro.sim.engine.Engine`.
Agreement between the independently structured implementations is the
validation, exactly as in the paper; remaining differences come from
different spraying randomisation, as the paper also notes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..hardware.prototype import HardwareNetwork, HardwareTimings
from ..sim.config import SimConfig
from ..sim.engine import Engine
from ..workloads.generators import permutation_workload
from .common import format_table

__all__ = ["Fig08Result", "run", "report"]


@dataclass
class Fig08Result:
    """Throughput (Gbps) and max queue length for both implementations."""

    n: int
    rows: List[Tuple[int, float, float, int, int, float]]
    # (h, hw_gbps, sim_gbps, hw_maxq, sim_maxq, guarantee_gbps)


def _run_cell(
    h: int,
    n: int,
    flow_cells: int,
    duration: int,
    propagation_delay: int,
    seed: int,
) -> Tuple[int, float, float, int, int, float]:
    """One tuning's hardware-vs-simulator row — module-level for pools."""
    timings = HardwareTimings()
    cfg = SimConfig(
        n=n, h=h, duration=duration,
        propagation_delay=propagation_delay,
        congestion_control="hbh+spray", seed=seed,
    )
    workload = permutation_workload(cfg, size_cells=flow_cells)

    hw = HardwareNetwork(
        n, h, propagation_delay=propagation_delay,
        timings=timings, seed=seed,
    )
    for _, src, dst, cells, _bytes in workload:
        hw.nodes[src].add_local_cells(dst, cells, 0)
    hw.run(duration)

    sim = Engine(cfg, workload=list(workload))
    sim.run()
    sim_cells_per_slot = sim.metrics.payload_cells_delivered / (
        duration * n
    )
    sim_gbps = sim_cells_per_slot * timings.available_gbps
    sim_maxq = sim.metrics.max_queue_length

    guarantee = timings.available_gbps / (2 * h)
    return (h, hw.throughput_gbps(), sim_gbps, hw.max_queue_length(),
            sim_maxq, guarantee)


def run(
    *,
    n: int = 16,
    h_values: Tuple[int, ...] = (2, 4),
    flow_cells: int = 0,
    duration: int = 20_000,
    propagation_delay: int = 0,
    seed: int = 7,
    workers: int = 1,
) -> Fig08Result:
    """Run the same permutation on both implementations for each ``h``.

    ``flow_cells`` defaults to ``duration`` so the permutation saturates the
    network for the whole measurement window (the paper's setup); passing a
    smaller value under-fills the run and dilutes average throughput.
    ``workers > 1`` runs the tunings as parallel sweep cells.
    """
    from ..sim.parallel import sweep

    if flow_cells <= 0:
        flow_cells = duration
    grid = [
        dict(h=h, n=n, flow_cells=flow_cells, duration=duration,
             propagation_delay=propagation_delay, seed=seed)
        for h in h_values
    ]
    return Fig08Result(n=n, rows=sweep(_run_cell, grid, workers=workers))


def report(result: Fig08Result) -> str:
    """Side-by-side validation table in the shape of Fig. 8."""
    table = format_table(
        ["h", "HW Gbps", "Sim Gbps", "HW max queue", "Sim max queue",
         "guarantee Gbps"],
        result.rows,
    )
    checks = []
    for h, hw_gbps, sim_gbps, _, _, guarantee in result.rows:
        ok = hw_gbps >= guarantee and sim_gbps >= guarantee
        agree = abs(hw_gbps - sim_gbps) <= 0.25 * max(hw_gbps, sim_gbps)
        checks.append(
            f"h={h}: above guarantee={'yes' if ok else 'NO'}, "
            f"implementations agree={'yes' if agree else 'NO'}"
        )
    return (
        f"Figure 8 — prototype vs simulator, N={result.n} permutation\n"
        f"{table}\n" + "\n".join(checks)
    )
