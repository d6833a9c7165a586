"""Core Shale abstractions: coordinates, schedules, routing, cells, buckets.

This package contains the paper's primary contribution in library form —
everything a simulator, a hardware model or an analysis script needs to
reason about a Shale network, with no simulation machinery attached.
"""

from .. import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(__name__, {
    ".buckets": ("ActiveBucketTracker", "BucketId", "TokenLedger"),
    ".cell": ("CELL_SIZE_BYTES", "HEADER_SIZE_BYTES", "PAYLOAD_SIZE_BYTES",
              "Cell"),
    ".coordinates": ("CoordinateSystem", "integer_root", "is_perfect_power"),
    ".header": ("TOKEN_INVALIDATE", "TOKEN_REGULAR", "TOKEN_REVALIDATE",
                "HeaderCodec", "Token"),
    ".demand_aware": ("DemandAwareSchedule", "bvn_decomposition",
                      "optimal_latency_share", "service_fraction"),
    ".lanes": ("LaneSchedule",),
    ".interleave": ("InterleavedSchedule", "SubScheduleSpec",
                    "two_class_interleave"),
    ".routing": ("Router", "SemiObliviousRouter", "direct_semi_path",
                 "spray_semi_path_lengths"),
    ".strategies": ("RoutingStrategy", "ScheduleStrategy", "make_router",
                    "make_schedule", "register_routing", "register_schedule",
                    "routing_names", "schedule_names", "shared_schedule",
                    "validate_design"),
    ".validation": ("ValidationError", "audit", "validate_bucket_order",
                    "validate_routing_reachability", "validate_schedule"),
    ".schedule": ("Schedule", "SlotInfo", "SrrdSchedule", "srrd_schedule"),
})
