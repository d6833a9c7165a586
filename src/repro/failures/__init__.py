"""Failure detection, invalidation tokens and rerouting (Section 3.4)."""

from .. import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(__name__, {
    ".direct_tree": ("DirectPathTree", "direct_next_hop",
                     "invalidated_destinations"),
    ".correlated": ("CorrelatedFaultInjector", "rack_outage_events"),
    ".injector": ("FaultInjector",),
    ".manager": ("FailureEvent", "FailureManager", "LinkFailureEvent"),
})
