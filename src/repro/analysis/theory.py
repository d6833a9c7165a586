"""Closed-form theory from the paper (Sections 2, 3.1; Fig. 1).

For an ``N = r**h`` Shale network:

* epoch length ``E = h (r - 1)`` timeslots,
* maximum intrinsic latency ``2E = 2 h (r - 1)`` timeslots (one epoch of
  spraying, one of direct hops),
* guaranteed worst-case throughput ``1 / (2h)`` of line rate (each cell
  consumes up to ``2h`` link-slots).

Figure 1 plots these two quantities against each other for every feasible
``h`` at ``N = 100,000``; :func:`tradeoff_curve` regenerates it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

__all__ = [
    "intrinsic_latency_slots",
    "throughput_guarantee",
    "feasible_h_values",
    "TradeoffPoint",
    "tradeoff_point",
    "tradeoff_curve",
    "srrd_latency_slots",
    "effective_radix",
]


def effective_radix(n: int, h: int) -> int:
    """The smallest integer ``r`` with ``r**h >= n``.

    Real deployments round the phase-group size up when ``N`` is not an
    exact power (the paper's companion work [49] extends EBS to all N); all
    latency/throughput formulas are evaluated at this effective radix.
    """
    if n < 2:
        raise ValueError("need at least two nodes")
    if h < 1:
        raise ValueError("h must be >= 1")
    r = math.ceil(n ** (1.0 / h))
    while r**h < n:
        r += 1
    while r > 2 and (r - 1) ** h >= n:
        r -= 1
    return max(2, r)


def intrinsic_latency_slots(n: int, h: int) -> int:
    """Worst-case intrinsic latency in timeslots: ``2 h (r - 1)``."""
    r = effective_radix(n, h)
    return 2 * h * (r - 1)


def srrd_latency_slots(n: int) -> int:
    """SRRD (RotorNet/Shoal/Sirius) worst-case latency: one epoch of N-1
    slots for the direct hop plus the spraying slot — ``O(N)``."""
    return intrinsic_latency_slots(n, 1)


def throughput_guarantee(h: int) -> float:
    """Guaranteed throughput as a fraction of line rate: ``1 / (2h)``."""
    if h < 1:
        raise ValueError("h must be >= 1")
    return 1.0 / (2 * h)


def feasible_h_values(n: int, max_h: Optional[int] = None) -> List[int]:
    """All ``h`` giving a meaningful schedule (``r >= 2``) for ``n`` nodes."""
    limit = max_h if max_h is not None else int(math.log2(n))
    return [h for h in range(1, max(1, limit) + 1) if 2**h <= n]


@dataclass(frozen=True)
class TradeoffPoint:
    """One point of the Fig. 1 throughput/latency tradeoff curve."""

    h: int
    radix: int
    throughput: float
    latency_slots: int
    latency_ns: float


def tradeoff_point(n: int, slot_ns: float, h: int) -> TradeoffPoint:
    """One tuning's (throughput, latency) point — module-level, so a
    parallel sweep can run it per ``h``."""
    r = effective_radix(n, h)
    latency = 2 * h * (r - 1)
    return TradeoffPoint(
        h=h,
        radix=r,
        throughput=throughput_guarantee(h),
        latency_slots=latency,
        latency_ns=latency * slot_ns,
    )


def tradeoff_curve(
    n: int = 100_000,
    slot_ns: float = 5.632,
    max_h: Optional[int] = None,
) -> List[TradeoffPoint]:
    """The Fig. 1 curve: achievable (throughput, intrinsic latency) tunings.

    Args:
        n: network size (paper uses 100,000).
        slot_ns: time between timeslot starts (paper: 5.632 ns).
        max_h: largest tuning to include.

    Returns:
        One point per feasible ``h``, ordered by increasing ``h`` (i.e.
        decreasing latency, decreasing throughput).
    """
    return [tradeoff_point(n, slot_ns, h)
            for h in feasible_h_values(n, max_h)]
