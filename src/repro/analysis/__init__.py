"""Analysis utilities: FCT normalisation, percentiles, theory formulas."""

from .. import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(__name__, {
    ".fct": ("FctTable", "bucketed_fcts", "fct_table", "normalized_fcts"),
    ".latency": ("LatencyBreakdown", "RunLatencyStats", "decompose_run",
                 "decompose_trace"),
    ".theory": ("TradeoffPoint", "effective_radix", "feasible_h_values",
                "intrinsic_latency_slots", "srrd_latency_slots",
                "throughput_guarantee", "tradeoff_curve"),
})
