"""Figure 14 (Appendix B.1): mean size-normalised FCTs.

The mean view of the Fig. 10/11 experiments.  Expected shape: priority
improves the mean over none (its ranking optimises mean FCT), but
HBH+spray — which actually reduces queue lengths — outperforms it even on
the mean.
"""

from __future__ import annotations

from typing import List

from ..workloads.distributions import bucket_label
from .common import format_table
from .fig10_shortflow import CcResult, run

__all__ = ["run", "report"]


def report(result: CcResult) -> str:
    """Mean size-normalised FCT per bucket per mechanism (Fig. 14)."""
    sections = []
    for h in sorted({c.h for c in result.cells}):
        cells = [c for c in result.cells if c.h == h]
        buckets = sorted({b for c in cells for b in c.fct_mean})
        rows = []
        for b in buckets:
            row: List[object] = [bucket_label(b)]
            row.extend(c.fct_mean.get(b, float("nan")) for c in cells)
            rows.append(row)
        table = format_table(
            ["flow size"] + [c.mechanism for c in cells], rows
        )
        sections.append(f"--- h={h} ---\n{table}")
    return (
        f"Figure 14 — mean size-normalised FCT, {result.workload_name} "
        f"workload, N={result.n}\n" + "\n\n".join(sections)
    )
