"""Flow-completion-time analysis (paper Section 5 methodology).

The paper reports *size-normalised* FCTs: a flow of ``F`` cells with one-way
propagation delay ``P`` would ideally complete in ``F + P`` timeslots over a
single line-rate hop, so the normalised FCT is ``measured / (F + P)``.
Flows are then grouped into size buckets (0-4kB, 4-16kB, ... 64MB+) and the
statistic of interest (99.9th percentile for tail plots, mean for Appendix
B.1) is computed per bucket.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..sim.flows import CompletedFlows
from ..sim.metrics import percentile
from ..workloads.distributions import FLOW_SIZE_BUCKETS, bucket_label

__all__ = [
    "normalized_fcts",
    "bucketed_fcts",
    "FctTable",
    "fct_table",
]


def normalized_fcts(
    completed: CompletedFlows, propagation_delay: int
) -> np.ndarray:
    """Size-normalised FCT of every completed flow, in completion order:
    measured over the ideal ``F + P`` slots, an int-by-int division, so
    each value is the correctly rounded quotient."""
    columns = completed.columns()
    fct = columns["completed_at"] - columns["arrival"]
    return fct / (columns["size_cells"] + propagation_delay)


def bucketed_fcts(
    completed: CompletedFlows,
    propagation_delay: int,
    exclude_dsts: Optional[Sequence[int]] = None,
) -> Dict[int, List[float]]:
    """Normalised FCTs grouped by flow-size bucket index, each bucket's in
    completion order; flows to ``exclude_dsts`` left out."""
    columns = completed.columns()
    fcts = normalized_fcts(completed, propagation_delay)
    # bucket upper edges are inclusive (``bucket_of``); an excluded flow
    # is in none
    bucket = np.searchsorted(FLOW_SIZE_BUCKETS, columns["size_bytes"])
    if exclude_dsts:
        bucket[np.isin(columns["dst"], list(exclude_dsts))] = -1
    return {i: fcts[bucket == i].tolist()
            for i in np.unique(bucket[bucket >= 0]).tolist()}


class FctTable:
    """Per-size-bucket FCT statistics, in the paper's reporting format."""

    def __init__(self, buckets: Dict[int, List[float]]):
        self.buckets = buckets

    def tail(self, q: float = 99.9) -> Dict[int, float]:
        """Tail percentile per bucket (the headline Fig. 10/11 statistic)."""
        return {i: percentile(v, q) for i, v in sorted(self.buckets.items())}

    def mean(self) -> Dict[int, float]:
        """Mean per bucket (Appendix B.1)."""
        return {
            i: (sum(v) / len(v) if v else 0.0)
            for i, v in sorted(self.buckets.items())
        }

    def counts(self) -> Dict[int, int]:
        """Number of completed flows per bucket."""
        return {i: len(v) for i, v in sorted(self.buckets.items())}

    def rows(self, q: float = 99.9) -> List[Tuple[str, int, float, float]]:
        """Report rows: (bucket label, flow count, tail, mean)."""
        tail = self.tail(q)
        mean = self.mean()
        return [
            (bucket_label(i), len(self.buckets[i]), tail[i], mean[i])
            for i in sorted(self.buckets)
        ]

    def overall_tail(self, q: float = 99.9) -> float:
        """Tail over all flows regardless of bucket."""
        merged: List[float] = []
        for values in self.buckets.values():
            merged.extend(values)
        return percentile(merged, q)


def fct_table(
    completed: CompletedFlows,
    propagation_delay: int,
    exclude_dsts: Optional[Sequence[int]] = None,
) -> FctTable:
    """Build an :class:`FctTable` from a run's completed flows.

    Args:
        completed: completed flows (``engine.flows.completed``).
        propagation_delay: one-way delay in slots (for normalisation).
        exclude_dsts: optionally drop flows to these destinations — used by
            the Appendix B.3 analysis, which excludes flows incast with very
            long (>256 MB) flows.
    """
    return FctTable(bucketed_fcts(completed, propagation_delay, exclude_dsts))
