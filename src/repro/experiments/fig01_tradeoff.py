"""Figure 1: throughput vs intrinsic latency across Shale tunings.

The paper plots, for a 100,000-node network, the (throughput guarantee,
intrinsic latency) point achieved by every tuning ``h``; the SRRD systems
(RotorNet/Shoal/Sirius) sit at the ``h = 1`` end with latency ~N timeslots,
while larger ``h`` buys multiple orders of magnitude lower latency at a
throughput cost of ``1/(2h)``.

The default regenerator is purely analytical — the curve is a property of
the schedule family, not of a simulation.  Passing ``designs=`` (CLI:
``python -m repro fig01 --designs ebs:vlb ebs:semi_oblivious srrd:vlb``)
extends the figure into a *cross-design comparison matrix*: each
``schedule:routing[:h]`` design point runs a small permutation-traffic
simulation (through the parallel sweep + cell cache like every other
experiment) and reports measured mean hops (the bandwidth cost VLB pays 2x
for), mean/last delivery latency, and the design's advertised guarantees
side by side.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..analysis.theory import (
    TradeoffPoint,
    feasible_h_values,
    tradeoff_point,
)
from .common import format_table

__all__ = ["Fig01Result", "run", "report"]


@dataclass
class Fig01Result:
    """The Fig. 1 series: one point per feasible ``h``.

    ``designs`` holds the optional cross-design comparison matrix — one row
    per requested ``schedule:routing[:h]`` design, measured by simulation.
    """

    n: int
    slot_ns: float
    points: List[TradeoffPoint]
    designs: Optional[List[Dict[str, Any]]] = field(default=None)


def parse_design(spec: str) -> Tuple[str, str, Optional[int]]:
    """Parse a ``schedule:routing[:h]`` design spec.

    The optional third component pins the tuning parameter; without it the
    design uses ``h=1`` for SRRD and ``h=2`` otherwise.
    """
    parts = spec.split(":")
    if len(parts) not in (2, 3) or not parts[0] or not parts[1]:
        raise ValueError(
            f"bad design spec {spec!r}: expected 'schedule:routing' or "
            f"'schedule:routing:h' (e.g. 'ebs:vlb', 'srrd:vlb:1')"
        )
    h: Optional[int] = None
    if len(parts) == 3:
        try:
            h = int(parts[2])
        except ValueError:
            raise ValueError(
                f"bad design spec {spec!r}: h must be an integer, "
                f"got {parts[2]!r}"
            ) from None
    return parts[0], parts[1], h


def _design_cell(*, design: str, schedule: str, routing: str, n: int, h: int,
                 duration: int, size_cells: int, seed: int,
                 congestion_control: str) -> Dict[str, Any]:
    """One design's permutation-traffic measurement — module-level for sweeps."""
    from ..sim.config import SimConfig
    from ..sim.engine import Engine
    from ..workloads.generators import permutation_workload

    config = SimConfig(
        n=n, h=h, duration=duration, seed=seed,
        congestion_control=congestion_control, propagation_delay=2,
        schedule=schedule, routing=routing,
    )
    workload = permutation_workload(
        config, size_cells=size_cells, rng=random.Random(seed)
    )
    engine = Engine(config, workload=workload)
    stats = {"hops": 0, "latency": 0, "count": 0, "last_t": 0}

    def _on_delivery(cell, t):
        stats["hops"] += cell.hops
        stats["latency"] += t - cell.created_at
        stats["count"] += 1
        stats["last_t"] = t

    engine.delivery_hook = _on_delivery
    engine.run(config.duration)
    engine.run_until_quiescent(max_extra=100_000)
    delivered = stats["count"]
    sched = engine.schedule
    return {
        "design": design,
        "schedule": schedule,
        "routing": routing,
        "n": n,
        "h": h,
        "cells_injected": engine.metrics.cells_injected,
        "cells_delivered": delivered,
        "mean_hops": stats["hops"] / delivered if delivered else float("nan"),
        "mean_latency_slots":
            stats["latency"] / delivered if delivered else float("nan"),
        "makespan_slots": stats["last_t"] + 1 if delivered else 0,
        "throughput_guarantee": sched.throughput_guarantee(),
        "max_intrinsic_latency": sched.max_intrinsic_latency(),
        "max_path_hops": engine.routing.max_path_hops(),
    }


def run(*, n: int = 100_000, slot_ns: float = 5.632,
        max_h: Optional[int] = None, workers: int = 1,
        designs: Optional[Sequence[str]] = None, sim_n: int = 16,
        sim_duration: int = 2_000, sim_cells: int = 20,
        congestion_control: str = "hbh+spray",
        seed: Optional[int] = None) -> Fig01Result:
    """Regenerate the Fig. 1 curve (paper scale by default — it is cheap).

    With ``designs`` (``schedule:routing[:h]`` specs), additionally run the
    cross-design comparison matrix at the small simulated scale ``sim_n``.
    """
    from ..sim.parallel import sweep

    grid = [dict(n=n, slot_ns=slot_ns, h=h)
            for h in feasible_h_values(n, max_h)]
    points = sweep(tradeoff_point, grid, workers=workers)
    matrix: Optional[List[Dict[str, Any]]] = None
    if designs:
        from ..core.strategies import validate_design

        cell_seed = 1 if seed is None else seed
        design_grid = []
        for spec in designs:
            schedule, routing, h = parse_design(spec)
            if h is None:
                h = 1 if schedule == "srrd" else 2
            # fail fast with the registry/feasibility message instead of
            # inside a sweep worker
            validate_design(schedule, routing, sim_n, h)
            design_grid.append(dict(
                design=spec, schedule=schedule, routing=routing,
                n=sim_n, h=h, duration=sim_duration, size_cells=sim_cells,
                seed=cell_seed, congestion_control=congestion_control,
            ))
        matrix = sweep(_design_cell, design_grid, workers=workers)
    return Fig01Result(n=n, slot_ns=slot_ns, points=points, designs=matrix)


def report(result: Fig01Result) -> str:
    """Text rendering of the curve with the paper's headline comparisons."""
    rows = [
        (
            f"h={p.h}",
            p.radix,
            p.throughput,
            p.latency_slots,
            p.latency_ns / 1e3,
        )
        for p in result.points
    ]
    table = format_table(
        ["tuning", "radix", "throughput", "latency (slots)", "latency (us)"],
        rows,
        float_fmt="{:.4g}",
    )
    srrd = result.points[0]
    best = min(result.points, key=lambda p: p.latency_slots)
    ratio = srrd.latency_slots / best.latency_slots
    text = (
        f"Figure 1 — throughput/latency tradeoff, N={result.n:,}\n"
        f"{table}\n"
        f"SRRD (h=1) latency {srrd.latency_slots:,} slots vs best tuning "
        f"h={best.h}: {best.latency_slots:,} slots "
        f"({ratio:,.0f}x lower, matching the paper's 'multiple orders of "
        f"magnitude')."
    )
    designs = getattr(result, "designs", None)
    if designs:
        rows = [
            (
                row["design"],
                f"n={row['n']} h={row['h']}",
                row["mean_hops"],
                row["max_path_hops"],
                row["mean_latency_slots"],
                row["makespan_slots"],
                row["throughput_guarantee"],
                f"{row['cells_delivered']}/{row['cells_injected']}",
            )
            for row in designs
        ]
        matrix = format_table(
            ["design", "size", "mean hops", "hop bound", "mean lat (slots)",
             "makespan", "guarantee", "delivered"],
            rows,
            float_fmt="{:.3g}",
        )
        text += (
            "\n\nCross-design comparison matrix (permutation traffic, "
            "simulated):\n" + matrix +
            "\nMean hops is the per-cell bandwidth cost: VLB pays ~2x for "
            "worst-case obliviousness; semi-oblivious direct-first routing "
            "recovers toward 1x on permutation traffic."
        )
    return text
