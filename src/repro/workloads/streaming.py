"""Open-loop streaming workloads: replayable arrival traces for live runs.

The batch generators in :mod:`repro.workloads.generators` materialise a
whole workload up front; a *service* run has no horizon — flows keep
arriving while the engine is running.  This module provides the open-loop
side of that picture:

* :class:`OpenLoopSource` — an incremental, seeded arrival process.  Each
  call to :meth:`~OpenLoopSource.take` yields the flows arriving before an
  absolute timeslot, so a live session can pull "everything up to my next
  advance target" between engine steps.  The RNG stream is consumed one
  arrival at a time and never depends on *how* the timeline is sliced:
  ``take(100)`` then ``take(200)`` produces byte-identical flows to a
  single ``take(200)``, which is what makes incremental service runs
  bit-exact with batch runs over the same trace.
* :class:`TenantProfile` — a named share of the offered load with its own
  flow-size distribution and (optionally) its own node pool, so one source
  can mix, say, a latency-sensitive RPC tenant with a bulk-backup tenant.
* diurnal load curves — deterministic slot-indexed multipliers modelling
  the day/night swing of a production service.
* :func:`split_by_class` — maps a trace onto the multi-class traffic
  machinery (:class:`~repro.sim.multiclass.MultiClassSimulation`) using an
  interleave's flow-size cutoffs.

Everything is seeded and byte-reproducible: the same construction
arguments produce the same trace, and :meth:`OpenLoopSource.state_dict` /
:meth:`~OpenLoopSource.load_state` round-trip the generator through a
checkpoint so a restarted service regenerates the exact arrivals the
crashed one would have seen.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..sim.config import SimConfig
from ..sim.engine import ScheduledFlow
from .distributions import (
    FlowSizeDistribution,
    ShortFlowDistribution,
    bytes_to_cells,
)

__all__ = [
    "LoadCurve",
    "OpenLoopSource",
    "TenantProfile",
    "constant_curve",
    "diurnal_curve",
    "split_by_class",
    "streaming_workload",
]

#: a deterministic slot-indexed load multiplier (pure function of the slot)
LoadCurve = Callable[[int], float]


def constant_curve(level: float = 1.0) -> LoadCurve:
    """A flat load multiplier (the open-loop analogue of a fixed load)."""
    if level <= 0.0:
        raise ValueError(f"load level must be > 0, got {level}")

    def curve(t: int) -> float:
        return level

    curve.describe = f"constant({level})"  # type: ignore[attr-defined]
    return curve


def diurnal_curve(
    period: int,
    low: float = 0.25,
    high: float = 1.0,
    peak: Optional[int] = None,
) -> LoadCurve:
    """A sinusoidal day/night load swing with one cycle per ``period`` slots.

    The multiplier moves smoothly between ``low`` (the quietest slot) and
    ``high`` (the busiest), peaking at slot ``peak`` (default: half way
    through the first period).  Both bounds must be positive — an open-loop
    source with a zero rate would never schedule its next arrival.
    """
    if period <= 0:
        raise ValueError(f"period must be >= 1, got {period}")
    if not 0.0 < low <= high:
        raise ValueError(f"need 0 < low <= high, got low={low} high={high}")
    peak_slot = period // 2 if peak is None else peak
    mid = (high + low) / 2.0
    amplitude = (high - low) / 2.0
    omega = 2.0 * math.pi / period

    def curve(t: int) -> float:
        return mid + amplitude * math.cos(omega * (t - peak_slot))

    curve.describe = (  # type: ignore[attr-defined]
        f"diurnal(period={period}, low={low}, high={high}, "
        f"peak={peak_slot})"
    )
    return curve


@dataclass(frozen=True)
class TenantProfile:
    """One tenant's slice of the offered load.

    Attributes:
        name: tenant identifier (lands in per-tenant trace statistics).
        weight: share of the arrival process relative to the other
            tenants' weights (normalised internally).
        distribution: the tenant's flow-size mix.
        nodes: endpoints this tenant's flows may use (default: all nodes).
    """

    name: str
    weight: float = 1.0
    distribution: FlowSizeDistribution = field(
        default_factory=ShortFlowDistribution
    )
    nodes: Optional[Tuple[int, ...]] = None

    def __post_init__(self) -> None:
        if self.weight <= 0.0:
            raise ValueError(
                f"tenant {self.name!r}: weight must be > 0, got {self.weight}"
            )
        if self.nodes is not None:
            object.__setattr__(self, "nodes", tuple(self.nodes))
            if len(set(self.nodes)) < 2:
                raise ValueError(
                    f"tenant {self.name!r}: needs >= 2 distinct nodes"
                )


class OpenLoopSource:
    """A seeded, incremental, open-loop flow arrival process.

    Flows arrive as a Poisson process whose instantaneous rate is::

        rate(t) = n * load * curve(t) * factor / mean_cells_per_flow

    where ``load`` is the long-run per-node offered load in cells per slot
    (at curve multiplier 1.0 and factor 1.0), ``curve`` is a deterministic
    slot-indexed multiplier (e.g. :func:`diurnal_curve`), and ``factor`` is
    the live adjustment knob (:meth:`set_load_factor` — the service
    control plane's ``adjust-load`` verb).  Each arrival picks a tenant by
    weight, endpoints uniformly from the tenant's pool, and a size from
    the tenant's distribution.

    Determinism contract: the RNG words consumed per arrival are fixed
    (one exponential gap + tenant/endpoint/size draws), and rate changes
    only *scale* the unit-exponential gap, so the arrival sequence is a
    pure function of (seed, curve, adjustment history) — never of how
    :meth:`take` slices the timeline.
    """

    def __init__(
        self,
        config: SimConfig,
        tenants: Optional[Sequence[TenantProfile]] = None,
        *,
        load: float = 0.25,
        curve: Optional[LoadCurve] = None,
        seed: Optional[int] = None,
    ):
        if not 0.0 < load <= 1.0:
            raise ValueError(f"load must be in (0, 1], got {load}")
        self.config = config
        self.load = load
        self.curve = curve if curve is not None else constant_curve()
        if tenants is None:
            tenants = (TenantProfile("default"),)
        if not tenants:
            raise ValueError("need at least one tenant")
        self.tenants: Tuple[TenantProfile, ...] = tuple(tenants)
        self._pools: List[Tuple[int, ...]] = []
        for tenant in self.tenants:
            pool = (tuple(range(config.n)) if tenant.nodes is None
                    else tenant.nodes)
            if any(not 0 <= node < config.n for node in pool):
                raise ValueError(
                    f"tenant {tenant.name!r}: node out of range for "
                    f"n={config.n}"
                )
            self._pools.append(pool)
        total = sum(t.weight for t in self.tenants)
        self._cum_weights = []
        acc = 0.0
        for tenant in self.tenants:
            acc += tenant.weight / total
            self._cum_weights.append(acc)
        self._cum_weights[-1] = 1.0  # guard against float round-off
        #: weighted mean flow size in cells (sets flows-per-slot for a load)
        self.mean_cells = sum(
            (t.weight / total) * t.distribution.mean_cells()
            for t in self.tenants
        )
        self.seed = config.seed ^ 0x57EA if seed is None else seed
        self.rng = random.Random(self.seed)
        #: live load multiplier (the ``adjust-load`` knob)
        self.factor = 1.0
        #: (cursor slot, factor) history of live adjustments, for manifests
        self.adjustments: List[Tuple[int, float]] = []
        #: continuous arrival-time cursor
        self._clock = 0.0
        #: the next drawn-but-not-yet-emitted (flow, tenant name), if any
        self._next: Optional[Tuple[ScheduledFlow, str]] = None
        #: flows emitted so far
        self.emitted = 0
        #: per-tenant emitted-flow counts (trace statistics)
        self.per_tenant: Dict[str, int] = {t.name: 0 for t in self.tenants}

    # ------------------------------------------------------------------ #
    # the arrival process

    def _rate_at(self, t: int) -> float:
        """Flows per slot at slot ``t`` under the current live factor."""
        level = self.curve(t) * self.factor
        if level <= 0.0:
            raise ValueError(
                f"load curve * factor must stay > 0 (got {level} at t={t})"
            )
        return self.config.n * self.load * level / self.mean_cells

    def _draw(self) -> Tuple[ScheduledFlow, str]:
        """Draw the next arrival (advances the clock and the RNG)."""
        rng = self.rng
        # unit exponential scaled by the rate at the current cursor slot:
        # rate changes rescale the gap but never consume different words
        gap = rng.expovariate(1.0) / self._rate_at(int(self._clock))
        self._clock += gap
        arrival = int(self._clock)
        pick = rng.random()
        index = 0
        while self._cum_weights[index] < pick:
            index += 1
        tenant = self.tenants[index]
        pool = self._pools[index]
        src = pool[rng.randrange(len(pool))]
        dst = pool[rng.randrange(len(pool))]
        while dst == src:
            dst = pool[rng.randrange(len(pool))]
        size_bytes = tenant.distribution.sample(rng)
        flow = (arrival, src, dst, bytes_to_cells(size_bytes), size_bytes)
        return flow, tenant.name

    def take(self, until: int) -> List[ScheduledFlow]:
        """All flows arriving strictly before slot ``until`` (incremental).

        Successive calls continue where the previous one stopped; slicing
        the timeline differently never changes the flows produced.
        """
        out: List[ScheduledFlow] = []
        while True:
            if self._next is None:
                self._next = self._draw()
            flow, tenant_name = self._next
            if flow[0] >= until:
                return out
            out.append(flow)
            self.emitted += 1
            self.per_tenant[tenant_name] += 1
            self._next = None

    def trace(self, horizon: int) -> List[ScheduledFlow]:
        """The whole trace up to ``horizon`` in one call (batch runs)."""
        return self.take(horizon)

    # ------------------------------------------------------------------ #
    # live control

    def set_load_factor(self, factor: float) -> float:
        """Scale the arrival rate going forward; returns the new factor.

        The already-drawn next arrival keeps its slot (its gap was drawn
        under the old rate); every later gap uses the new rate.  The
        adjustment history is recorded for run manifests and checkpoints.
        """
        if not 0.0 < factor < math.inf:
            raise ValueError(
                f"load factor must be finite and > 0, got {factor}")
        self.factor = float(factor)
        self.adjustments.append((int(self._clock), self.factor))
        return self.factor

    # ------------------------------------------------------------------ #
    # checkpoint round-trip

    def state_dict(self) -> dict:
        """The generator's mutable state (checkpoint encoding).

        Construction inputs (config, tenants, curve, seed) are *not*
        captured — a restored source must be built with the same arguments,
        then :meth:`load_state` resumes the arrival stream bit-exactly.
        """
        return {
            "seed": self.seed,
            "rng": self.rng.getstate(),
            "clock": self._clock,
            "next": (None if self._next is None
                     else [list(self._next[0]), self._next[1]]),
            "factor": self.factor,
            "adjustments": [list(a) for a in self.adjustments],
            "emitted": self.emitted,
            "per_tenant": dict(self.per_tenant),
        }

    def load_state(self, state: dict) -> None:
        if state["seed"] != self.seed:
            raise ValueError(
                f"source state was captured under seed {state['seed']}, "
                f"this source uses {self.seed}"
            )
        self.rng.setstate(
            tuple(
                tuple(part) if isinstance(part, list) else part
                for part in state["rng"]
            )
        )
        self._clock = state["clock"]
        self._next = (None if state["next"] is None
                      else (tuple(state["next"][0]), state["next"][1]))
        self.factor = state["factor"]
        self.adjustments = [tuple(a) for a in state["adjustments"]]
        self.emitted = state["emitted"]
        self.per_tenant = dict(state["per_tenant"])

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"OpenLoopSource(n={self.config.n}, load={self.load}, "
            f"tenants={[t.name for t in self.tenants]}, "
            f"factor={self.factor}, emitted={self.emitted})"
        )


def streaming_workload(
    config: SimConfig,
    tenants: Optional[Sequence[TenantProfile]] = None,
    *,
    load: float = 0.25,
    curve: Optional[LoadCurve] = None,
    duration: Optional[int] = None,
    seed: Optional[int] = None,
) -> List[ScheduledFlow]:
    """Materialise an open-loop trace up front (the batch-path twin).

    Equivalent to ``OpenLoopSource(...).trace(duration)``; exists so batch
    experiments and equivalence tests can replay exactly what a live
    session would stream.
    """
    source = OpenLoopSource(
        config, tenants, load=load, curve=curve, seed=seed
    )
    return source.trace(duration if duration is not None
                        else config.duration)


def split_by_class(
    flows: Sequence[ScheduledFlow], interleave
) -> Dict[int, List[ScheduledFlow]]:
    """Partition a trace by an interleave's flow-size cutoffs.

    Maps an open-loop trace onto the multi-class traffic machinery: class
    ``i`` receives exactly the flows
    :meth:`~repro.core.interleave.InterleavedSchedule.classify_flow`
    assigns to sub-schedule ``i`` (short flows ride the low-latency class,
    long flows the high-throughput one).
    """
    out: Dict[int, List[ScheduledFlow]] = {
        i: [] for i in range(len(interleave.specs))
    }
    for flow in flows:
        out[interleave.classify_flow(flow[3])].append(flow)
    return out
