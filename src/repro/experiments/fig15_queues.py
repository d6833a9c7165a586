"""Figures 15 and 16 (Appendix B.2): queue lengths per mechanism.

Maximum and 99th-percentile per-queue lengths for both workloads.  Key
observation reproduced: NDP and HBH+spray can have similar *maximum* queue
lengths while NDP's 99th percentile is far higher — many NDP queues run near
the trimming threshold, explaining its worse buffering.
"""

from __future__ import annotations

from .common import format_table
from .fig10_shortflow import CcResult, run

__all__ = ["run", "report"]


def report(result: CcResult) -> str:
    """Max and p99 queue lengths per mechanism (Figs. 15/16)."""
    sections = []
    for h in sorted({c.h for c in result.cells}):
        cells = [c for c in result.cells if c.h == h]
        table = format_table(
            ["mechanism", "max queue", "queue p99"],
            [(c.mechanism, c.max_queue, c.queue_p99) for c in cells],
        )
        sections.append(f"--- h={h} ---\n{table}")
    return (
        f"Figures 15/16 — queue lengths, {result.workload_name} workload, "
        f"N={result.n}\n" + "\n\n".join(sections)
    )
