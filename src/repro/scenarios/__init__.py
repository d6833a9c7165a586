"""Adversarial/correlated scenario matrix and resilience scorecards.

The fig12 experiment measures one stress shape (independent node failures
under benign permutations).  This package crosses *named* failure patterns
(:data:`FAILURE_PATTERNS`: baseline, rack outages, gray links, cascades,
independent flaps) with *named* workload shapes (:data:`WORKLOAD_SHAPES`:
uniform permutations, incast storms, hot-destination skew, adversarial
permutations) and every congestion-control mechanism, runs each cell
through the standard sweep machinery (:func:`run_matrix`), scores it from
the :class:`~repro.sim.monitor.RunMonitor` conservation/stall/detection
metrics (:func:`score_cell`) and reduces the grid to a deterministic
per-mechanism resilience scorecard (:func:`build_scorecard`).

Every cell derives its own seed from the master seed and its grid
coordinates (:func:`scenario_cell_seed`), so the whole scorecard is
byte-identical across reruns and across worker counts.
"""

from .. import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(__name__, {
    ".registry": ("FAILURE_PATTERNS", "WORKLOAD_SHAPES", "FailurePattern",
                  "WorkloadShape", "register_failure_pattern",
                  "register_workload_shape"),
    ".matrix": ("run_matrix", "scenario_cell_seed"),
    ".scorecard": ("SCORE_WEIGHTS", "build_scorecard", "format_scorecard",
                   "score_cell"),
})
