"""Figure 7: on-chip memory scaling — Shoal vs Shale h=2 and h=4.

The paper plots the total on-chip memory an end host needs as N grows from
~5,000 to ~25,000: Shoal (representative of RotorNet and Sirius, which share
its schedule and routing) climbs into the gigabytes while Shale h=2 stays
around a megabyte and h=4 below that — orders of magnitude apart.

Shale's curve is produced from its memory model (Section 4.3) dimensioned by
the active-bucket and PIEO-occupancy maxima of the scalability runs (Fig.
13), doubled for headroom; this regenerator can either take those
observations from a supplied dict or fall back to the paper-reported
magnitudes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..hardware.memory_model import ShaleMemoryModel, shoal_on_chip_bytes
from .common import format_table

__all__ = ["Fig07Result", "run", "report", "DEFAULT_OBSERVATIONS"]

#: (active buckets, PIEO depth) to provision per tuning, already including
#: the paper's 2x headroom.  Magnitudes follow Fig. 13: h=2 needs hundreds
#: of active buckets and short PIEO queues; h=4 stays nearly flat.
DEFAULT_OBSERVATIONS: Dict[int, Tuple[int, int]] = {
    2: (1200, 100),
    4: (250, 150),
}


@dataclass
class Fig07Result:
    """Memory requirement (bytes) per system per network size."""

    sizes: List[int]
    shoal: List[int]
    shale: Dict[int, List[int]]  # h -> bytes per size


def run(
    *,
    sizes: Optional[Sequence[int]] = None,
    h_values: Sequence[int] = (2, 4),
    observations: Optional[Dict[int, Tuple[int, int]]] = None,
    token_queue_depth: int = 16,
) -> Fig07Result:
    """Evaluate the memory models over a sweep of network sizes."""
    sizes = list(sizes) if sizes is not None else [
        2_500, 5_000, 10_000, 15_000, 20_000, 25_000
    ]
    observations = observations or DEFAULT_OBSERVATIONS
    shale: Dict[int, List[int]] = {}
    for h in h_values:
        active, pieo = observations[h]
        shale[h] = [
            ShaleMemoryModel(
                n=n, h=h, active_buckets=active, pieo_depth=pieo,
                token_queue_depth=token_queue_depth,
            ).on_chip_bytes()
            for n in sizes
        ]
    return Fig07Result(
        sizes=sizes,
        shoal=[shoal_on_chip_bytes(n) for n in sizes],
        shale=shale,
    )


def _human(num_bytes: int) -> str:
    for unit in ("B", "kB", "MB", "GB"):
        if num_bytes < 1024:
            return f"{num_bytes:.3g} {unit}"
        num_bytes /= 1024
    return f"{num_bytes:.3g} TB"


def report(result: Fig07Result) -> str:
    """The Fig. 7 series as a table plus the scaling-gap takeaway."""
    headers = ["N", "Shoal (h=1 family)"] + [
        f"Shale h={h}" for h in sorted(result.shale)
    ]
    rows = []
    for i, n in enumerate(result.sizes):
        row = [f"{n:,}", _human(result.shoal[i])]
        row.extend(_human(result.shale[h][i]) for h in sorted(result.shale))
        rows.append(row)
    table = format_table(headers, rows)
    gap = result.shoal[-1] / min(
        series[-1] for series in result.shale.values()
    )
    return (
        "Figure 7 — total on-chip memory requirement\n"
        f"{table}\n"
        f"At N={result.sizes[-1]:,} the Shoal-family design needs "
        f"{gap:,.0f}x more on-chip memory than the leanest Shale tuning "
        "(paper: orders of magnitude)."
    )
