"""Named failure patterns and workload shapes for the scenario matrix.

Each entry is a small builder keyed to a :class:`~repro.sim.config.SimConfig`
(shape, horizon, seed), so a cell's whole scenario derives from its config —
the matrix driver only has to cross names.  Knobs scale with ``n`` and
``duration`` so the same pattern names work for smoke grids (n=16, a few
thousand slots) and larger sweeps.

The registries are :class:`~repro.core.registry.Registry` mappings;
downstream code (notebooks, future experiments) can add shapes with
:func:`register_failure_pattern` / :func:`register_workload_shape` without
touching the drivers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from ..core.registry import Registry
from ..failures.correlated import CorrelatedFaultInjector
from ..failures.injector import FaultInjector
from ..failures.manager import FailureManager
from ..sim.config import SimConfig
from ..sim.engine import ScheduledFlow
from ..workloads.adversarial import (
    adversarial_permutation_workload,
    hot_destination_workload,
    incast_storm_workload,
)
from ..workloads.generators import overlaid_permutations_workload

__all__ = [
    "FAILURE_PATTERNS",
    "WORKLOAD_SHAPES",
    "FailurePattern",
    "WorkloadShape",
    "register_failure_pattern",
    "register_workload_shape",
]


@dataclass(frozen=True)
class FailurePattern:
    """A named fault shape: config -> :class:`FailureManager` (or None)."""

    name: str
    description: str
    build: Callable[[SimConfig], Optional[FailureManager]]


@dataclass(frozen=True)
class WorkloadShape:
    """A named traffic shape: (config, flow_cells) -> scheduled flows."""

    name: str
    description: str
    build: Callable[[SimConfig, int], List[ScheduledFlow]]


FAILURE_PATTERNS = Registry("failure pattern")
WORKLOAD_SHAPES = Registry("workload shape")


def register_failure_pattern(name: str, description: str,
                             build: Callable[[SimConfig],
                                             Optional[FailureManager]]
                             ) -> FailurePattern:
    """Add a named failure pattern to the registry."""
    return FAILURE_PATTERNS.register(
        name, FailurePattern(name, description, build))


def register_workload_shape(name: str, description: str,
                            build: Callable[[SimConfig, int],
                                            List[ScheduledFlow]]
                            ) -> WorkloadShape:
    """Add a named workload shape to the registry."""
    return WORKLOAD_SHAPES.register(
        name, WorkloadShape(name, description, build))


# ---------------------------------------------------------------------- #
# failure patterns

def _baseline(config: SimConfig) -> Optional[FailureManager]:
    return None


def _rack_outage(config: SimConfig) -> FailureManager:
    return CorrelatedFaultInjector.from_config(
        config,
        outages=2,
        outage_mttr=config.duration / 6,
    ).build_manager()


def _gray_links(config: SimConfig) -> FailureManager:
    return CorrelatedFaultInjector.from_config(
        config,
        gray_links=max(2, config.n // 8),
        gray_loss=(0.05, 0.35),
    ).build_manager()


def _cascade(config: SimConfig) -> FailureManager:
    return CorrelatedFaultInjector.from_config(
        config,
        primary_mtbf=config.duration * 4,   # ~n/4 primary crashes expected
        primary_mttr=config.duration / 8,
        cascade_probability=0.5,
    ).build_manager()


def _flaky(config: SimConfig) -> FailureManager:
    return FaultInjector.from_config(
        config,
        node_mtbf=config.duration * 2,
        node_mttr=config.duration / 10,
        link_mtbf=config.duration * 2,
        link_mttr=config.duration / 10,
        cell_loss_rate=0.005,
    ).build_manager()


register_failure_pattern(
    "baseline", "no failures (control row)", _baseline)
register_failure_pattern(
    "rack-outage",
    "two correlated phase-group outages: every link touching the group "
    "fails at once and recovers together",
    _rack_outage)
register_failure_pattern(
    "gray-links",
    "seeded lossy-not-dead wires (5-35% payload loss) on n/8 links; "
    "invisible to the missed-cell detector",
    _gray_links)
register_failure_pattern(
    "cascade",
    "primary node crashes drag neighbours down with p=0.5; secondaries "
    "recover with the primary (MTTR-coupled)",
    _cascade)
register_failure_pattern(
    "flaky",
    "independent node/link flaps plus 0.5% uniform wire loss (the PR 1 "
    "injector, for comparison against the correlated shapes)",
    _flaky)


# ---------------------------------------------------------------------- #
# workload shapes

def _uniform_perms(config: SimConfig, flow_cells: int) -> List[ScheduledFlow]:
    return overlaid_permutations_workload(config, flow_cells, count=4)


def _incast_storm(config: SimConfig, flow_cells: int) -> List[ScheduledFlow]:
    return incast_storm_workload(
        config, flow_cells, bursts=3, fan_in=min(config.n - 1, 8))


def _hot_dest(config: SimConfig, flow_cells: int) -> List[ScheduledFlow]:
    return hot_destination_workload(
        config, flow_cells, flows_per_node=3, zipf_s=1.2)


def _adversarial_perm(config: SimConfig,
                      flow_cells: int) -> List[ScheduledFlow]:
    return adversarial_permutation_workload(config, flow_cells, rounds=2)


register_workload_shape(
    "uniform-perms",
    "four overlaid random permutations (the benign fig12 demand)",
    _uniform_perms)
register_workload_shape(
    "incast-storm",
    "three synchronized fan-in bursts at seeded victims",
    _incast_storm)
register_workload_shape(
    "hot-dest",
    "Zipf(1.2) destination skew: a few hot nodes soak up most demand",
    _hot_dest)
register_workload_shape(
    "adversarial-perm",
    "two coordinate-shift permutations serializing all direct traffic "
    "through a single phase",
    _adversarial_perm)
