"""Hardware resource measurement from simulation runs (Figs. 7 and 13).

The paper dimensions its FPGA design from simulation: the maximum number of
*active buckets* and the maximum *PIEO queue length* observed in the
scalability experiments (both doubled for headroom) feed the memory model of
Section 4.3.  This module extracts those quantities from a finished
:class:`~repro.sim.engine.Engine` run and produces the corresponding
:class:`~repro.hardware.memory_model.ShaleMemoryModel`.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..sim.engine import Engine
from .memory_model import ShaleMemoryModel

__all__ = ["ResourceObservation", "observe_resources", "provision_memory"]


@dataclass(frozen=True)
class ResourceObservation:
    """Peak resource usage observed during a run.

    Attributes:
        n, h: network parameters.
        max_active_buckets: peak number of simultaneously active buckets at
            any node (exact).
        max_pieo_length: peak occupancy of any PIEO queue (exact).
        max_buffer_occupancy: peak total cells buffered at any node, at the
            sample windows.
    """

    n: int
    h: int
    max_active_buckets: int
    max_pieo_length: int
    max_buffer_occupancy: int


def observe_resources(engine: Engine) -> ResourceObservation:
    """Extract peak hardware-relevant occupancies from a finished run:
    the run's high-water marks, as its metrics record them."""
    metrics = engine.metrics
    return ResourceObservation(
        n=engine.config.n,
        h=engine.config.h,
        max_active_buckets=metrics.max_active_buckets,
        max_pieo_length=metrics.max_queue_length,
        max_buffer_occupancy=metrics.max_buffer_occupancy,
    )


def provision_memory(
    observation: ResourceObservation,
    headroom: float = 2.0,
    token_queue_depth: int = 16,
) -> ShaleMemoryModel:
    """Dimension the end host from observed peaks (paper doubles them)."""
    if headroom < 1.0:
        raise ValueError("headroom must be >= 1.0")
    return ShaleMemoryModel(
        n=observation.n,
        h=observation.h,
        active_buckets=max(1, int(observation.max_active_buckets * headroom)),
        pieo_depth=max(1, int(observation.max_pieo_length * headroom)),
        token_queue_depth=token_queue_depth,
    )
