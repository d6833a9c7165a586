"""Strategy interfaces and registries for schedules and routing schemes.

Shale fixes one point in the ORN design space: the EBS connection schedule
(:class:`~repro.core.schedule.Schedule`) with 2x-cost VLB routing
(:class:`~repro.core.routing.Router`).  The related literature names a much
wider space — semi-oblivious designs that beat the 2x VLB throughput cost
(arXiv:2308.14837) and universal connection schedules generalizing the EBS
family (arXiv:2511.08556).  This module opens that space behind two small
interfaces:

* :class:`ScheduleStrategy` — the connection-schedule contract the engine,
  router and failure machinery program against.  Implementations are
  registered by name with :func:`register_schedule` and built with
  :func:`make_schedule` / :func:`shared_schedule`.

* :class:`RoutingStrategy` — the routing contract: full-path sampling for
  analysis plus the per-cell admission decision the simulator's RX/TX
  pipelines consult.  Registered with :func:`register_routing`, built with
  :func:`make_router`.

The contract is *executable*: ``tests/test_strategy_conformance.py``
parametrizes over every registered strategy and asserts the schedule
invariants (permutation connectivity, send/recv symmetry, ``slot_for`` /
``next_send_slot`` consistency, honored latency/throughput advertisements)
and routing invariants (schedule-respecting paths, hop bounds, all-pairs
reachability) plus end-to-end delivery and determinism properties for every
(schedule, routing, congestion-control) combination.  A new design either
passes the suite or is loudly rejected; nothing about strategy selection is
checked only at runtime depth.

Registration is population-on-import: the built-in strategies live in
:mod:`repro.core.schedule` and :mod:`repro.core.routing`, which register
themselves when imported.  Each :class:`~repro.core.registry.Registry`
imports its built-ins before it lists names or gives up on a lookup, so
consumers (e.g. :class:`~repro.sim.config.SimConfig` validation) never
observe a half-populated registry.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple, Type

from .registry import Registry

__all__ = [
    "ScheduleStrategy",
    "RoutingStrategy",
    "register_schedule",
    "register_routing",
    "schedule_names",
    "routing_names",
    "make_schedule",
    "shared_schedule",
    "make_router",
    "validate_design",
]


class ScheduleStrategy:
    """Contract for oblivious connection schedules.

    A schedule strategy describes, for an ``n``-node network with tuning
    parameter ``h``, which node every node sends to (and receives from) in
    every timeslot.  The engine and router rely on the following structure,
    all of which the conformance suite verifies:

    * attributes ``n``, ``h``, ``r``, ``phase_length``, ``epoch_length``,
      ``coords`` (a :class:`~repro.core.coordinates.CoordinateSystem`), and
      the hot-path lookup tables ``phase_table`` / ``offset_table`` mapping
      slot-in-epoch to phase / round-robin offset;
    * ``send_target(x, t)`` / ``recv_source(x, t)`` are mutually inverse
      and ``connection_matrix(t)`` is a self-loop-free permutation;
    * the schedule is epoch-periodic and connects every ordered
      phase-neighbour pair exactly once per epoch;
    * ``slot_for(src, dst)`` names the unique (phase, offset) connecting a
      one-hop pair and ``next_send_slot`` / ``next_phase_start`` resolve it
      against absolute time;
    * ``max_intrinsic_latency()`` and ``throughput_guarantee()`` advertise
      bounds the routed network actually honours.

    Subclasses override the three classmethods below to join the registry.
    """

    __slots__ = ()

    #: registry name; set by :func:`register_schedule`
    strategy_name: str = ""

    @classmethod
    def validate_params(cls, n: int, h: int) -> None:
        """Raise ``ValueError`` when ``(n, h)`` is infeasible for this design.

        Called by :class:`~repro.sim.config.SimConfig` validation so bad
        combinations fail at configuration time with a clear message
        instead of deep inside ``Engine`` construction.
        """
        raise NotImplementedError

    @classmethod
    def build(cls, n: int, h: int) -> "ScheduleStrategy":
        """Construct a fresh instance for ``(n, h)``."""
        raise NotImplementedError

    @classmethod
    def conformance_cases(cls) -> List[Tuple[int, int]]:
        """Small ``(n, h)`` exemplars the conformance suite enumerates.

        Keep these tiny — the suite runs exhaustive per-slot and all-pairs
        checks on every case.
        """
        raise NotImplementedError


class RoutingStrategy:
    """Contract for routing schemes over a :class:`ScheduleStrategy`.

    The simulator routes hop by hop: a cell is admitted at its source with
    some number of *spraying* hops remaining (:meth:`admission_sprays`),
    consumes one spray per hop while ``sprays_remaining > 0``, and then
    follows the deterministic direct semi-path (coordinate corrections in
    phase order) to its destination.  A routing strategy therefore only has
    to decide the admission shape; the shared forwarding machinery in
    :class:`~repro.sim.node.Node` does the rest, which is also what keeps
    hop-by-hop token accounting (bucket = ``(dst, sprays_remaining)``)
    correct for every strategy.

    For analysis and conformance testing, :meth:`sample_path` returns a
    complete path and :meth:`max_path_hops` its advertised hop bound.
    """

    __slots__ = ()

    #: registry name; set by :func:`register_routing`
    strategy_name: str = ""

    @classmethod
    def validate_params(cls, schedule_name: str, n: int, h: int) -> None:
        """Raise ``ValueError`` when this routing cannot run over the
        named schedule at ``(n, h)``.  The default accepts everything."""

    def admission_sprays(self, src: int, dst: int, phase: int,
                         neighbor: int) -> int:
        """Sprays remaining on a cell admitted at ``src`` for ``dst`` when
        the current slot (in ``phase``) connects ``src`` to ``neighbor``.

        The admission hop itself goes to ``neighbor`` on the wire this
        slot; the returned count is how many *further* spraying hops the
        cell takes before switching to direct coordinate correction.
        """
        raise NotImplementedError

    def sample_path(self, src: int, dst: int, start_phase: int = 0) -> List[int]:
        """Sample one complete path (both endpoints included)."""
        raise NotImplementedError

    def max_path_hops(self) -> int:
        """Advertised upper bound on hops per path."""
        raise NotImplementedError


# --------------------------------------------------------------------- #
# registries

_SCHEDULES = Registry("schedule strategy", builtins={
    "ebs": "repro.core.schedule",
    "srrd": "repro.core.schedule",
})
_ROUTINGS = Registry("routing strategy", builtins={
    "vlb": "repro.core.routing",
    "semi_oblivious": "repro.core.routing",
})

#: process-wide memo of shared immutable schedule instances, keyed by
#: (strategy name, n, h); the generalization of the old ``Schedule.shared``
#: (n, h) memo, still consulted by Engine / the prototype / interleaving and
#: pre-warmed by :func:`repro.sim.parallel.sweep` before forking
_shared_schedules: Dict[Tuple[str, int, int], ScheduleStrategy] = {}


def register_schedule(name: str):
    """Class decorator registering a :class:`ScheduleStrategy` under ``name``."""
    return _SCHEDULES.registering(name, "strategy_name")


def register_routing(name: str):
    """Class decorator registering a :class:`RoutingStrategy` under ``name``.

    The class is constructed as ``cls(schedule, rng=rng)`` by
    :func:`make_router`.
    """
    return _ROUTINGS.registering(name, "strategy_name")


def schedule_names() -> List[str]:
    """Sorted names of every registered schedule strategy."""
    return _SCHEDULES.names()


def routing_names() -> List[str]:
    """Sorted names of every registered routing strategy."""
    return _ROUTINGS.names()


def schedule_class(name: str) -> Type[ScheduleStrategy]:
    """The registered schedule strategy class for ``name``."""
    return _SCHEDULES[name]


def routing_class(name: str):
    """The registered routing strategy class for ``name``."""
    return _ROUTINGS[name]


def make_schedule(name: str, n: int, h: int) -> ScheduleStrategy:
    """Build a fresh schedule strategy instance (validated)."""
    cls = schedule_class(name)
    cls.validate_params(n, h)
    return cls.build(n, h)


def shared_schedule(name: str, n: int, h: int) -> ScheduleStrategy:
    """The process-wide shared schedule instance for ``(name, n, h)``.

    Schedule strategies (and their coordinate systems) are immutable, so
    every engine of a sweep cell shares one instance per network size
    instead of rebuilding the phase/offset tables; ``Engine.__init__``
    consults this memo, and :func:`repro.sim.parallel.sweep` pre-warms it
    before forking so workers share the parent's pages.
    """
    key = (name, n, h)
    instance = _shared_schedules.get(key)
    if instance is None:
        instance = _shared_schedules.setdefault(key, make_schedule(name, n, h))
    return instance


def make_router(name: str, schedule: ScheduleStrategy,
                rng: Optional[random.Random] = None) -> RoutingStrategy:
    """Build a routing strategy instance over ``schedule``."""
    return routing_class(name)(schedule, rng=rng)


def validate_design(schedule_name: str, routing_name: str,
                    n: int, h: int) -> None:
    """Validate a (schedule, routing, n, h) design point.

    Raises ``ValueError`` with a registry-aware message for unknown names
    and a strategy-specific message for infeasible ``(n, h)`` — the single
    entry point :class:`~repro.sim.config.SimConfig` validation uses, so
    bad designs never reach ``Engine`` construction.
    """
    sched_cls = schedule_class(schedule_name)
    routing_cls = routing_class(routing_name)
    sched_cls.validate_params(n, h)
    routing_cls.validate_params(schedule_name, n, h)
