"""Synthetic workloads modelled after the paper's evaluation setup."""

from .. import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(__name__, {
    ".distributions": ("FLOW_SIZE_BUCKETS", "EmpiricalCdf",
                       "FixedSizeDistribution", "FlowSizeDistribution",
                       "HeavyTailedDistribution", "ShortFlowDistribution",
                       "UniformSizeDistribution", "bucket_label", "bucket_of",
                       "bytes_to_cells"),
    ".trace_io": ("read_workload", "workload_from_string", "workload_stats",
                  "workload_to_string", "write_workload"),
    ".generators": ("all_to_all_workload", "incast_workload",
                    "overlaid_permutations_workload", "permutation_workload",
                    "poisson_workload", "single_flow_workload"),
    ".adversarial": ("adversarial_permutation_workload",
                     "hot_destination_workload", "incast_storm_workload"),
    ".streaming": ("LoadCurve", "OpenLoopSource", "TenantProfile",
                   "constant_curve", "diurnal_curve", "split_by_class",
                   "streaming_workload"),
})
