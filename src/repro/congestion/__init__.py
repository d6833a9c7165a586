"""Congestion control: mechanism registry and token-budget analysis.

The mechanisms execute inside :class:`repro.sim.node.Node`; this package
holds their metadata (:mod:`~repro.congestion.mechanisms`) and the Appendix D
token-budget mathematics (:mod:`~repro.congestion.token_budget`).
"""

from .. import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(__name__, {
    ".mechanisms": ("EVALUATION_ORDER", "MECHANISMS", "MechanismInfo",
                    "baseline_mechanisms", "config_for", "shale_mechanisms"),
    ".token_budget": ("TokenBudgetPlan", "bucket_rate_ceiling",
                      "max_propagation_delay_first_hop",
                      "max_propagation_delay_interior", "plan_budgets",
                      "required_first_hop_budget", "required_interior_budget"),
})
