"""Figures 11 / 16: congestion control on the heavy-tailed workload.

Same grid as :mod:`~repro.experiments.fig10_shortflow` but on the
heavy-tailed workload, which produces significant egress congestion.
Expected shape (log-scale in the paper): hop-by-hop cuts short-flow tails by
2-3 orders of magnitude vs none, HBH+spray improves further; buffers under
hop-by-hop drop by orders of magnitude, outperforming RD and NDP; for h=2 the
idealized ISD baseline still leads on tails due to short flows incast with
elephants (Appendix B.3 refines this).
"""

from __future__ import annotations

import functools

from .fig10_shortflow import report, run as _run

__all__ = ["run", "report"]

#: the Fig. 10 grid on the heavy-tailed workload; every knob stays a keyword
run = functools.partial(_run, workload_name="heavy-tailed", duration=60_000,
                        seed=11)
