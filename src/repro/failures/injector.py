"""Seeded stochastic fault injection: crash/flap processes and wire noise.

The :class:`FaultInjector` turns MTBF/MTTR parameters into a concrete,
fully reproducible schedule of :class:`~repro.failures.manager.FailureEvent`
and :class:`~repro.failures.manager.LinkFailureEvent` items.  Each node and
each link gets its *own* RNG stream derived from the seed and its identity
(``random.Random(f"{seed}:node:{i}")``), so the event sequence for one
entity is invariant under changes to every other parameter — adding link
flaps does not reshuffle the node crashes — and the whole sequence is
byte-identical for a given seed.

Up/down times are exponential (a Poisson failure process), the standard
MTBF/MTTR model.  ``mttr = 0`` means failures are permanent.
"""

from __future__ import annotations

import math
import random
from typing import List, Optional, Sequence, Tuple

from ..core.coordinates import CoordinateSystem
from .manager import FailureEvent, FailureManager, LinkFailureEvent

__all__ = ["FaultInjector"]


def check_rates(**rates: float) -> None:
    """Refuse an MTBF / MTTR that is negative, nan or infinite, naming
    it; 0 keeps its meaning (disabled, or permanent)."""
    for name, value in rates.items():
        if not math.isfinite(value) or value < 0:
            raise ValueError(
                f"{name} must be finite and non-negative, got {value}")


class FaultInjector:
    """Generates a reproducible fault schedule for an ``N = r**h`` network.

    Args:
        n, h: network shape (defines the link set).
        duration: horizon (slots); no event is generated at or beyond it.
        seed: master seed; every entity derives its own stream from it.
        node_mtbf: mean slots between crashes per node (0 disables crashes).
        node_mttr: mean slots to repair a crashed node (0: permanent).
        link_mtbf: mean slots between flaps per (undirected) link
            (0 disables link flaps).
        link_mttr: mean slots to repair a flapped link (0: permanent).
        cell_loss_rate: transient on-wire payload corruption probability,
            passed through to the :class:`FailureManager`.
        node_ids: restrict crashes to these nodes (default: all).
        links: restrict flaps to these (a, b) pairs (default: every
            one-hop neighbour pair, each counted once).
    """

    def __init__(
        self,
        n: int,
        h: int,
        duration: int,
        seed: object = 0,
        node_mtbf: float = 0.0,
        node_mttr: float = 0.0,
        link_mtbf: float = 0.0,
        link_mttr: float = 0.0,
        cell_loss_rate: float = 0.0,
        node_ids: Optional[Sequence[int]] = None,
        links: Optional[Sequence[Tuple[int, int]]] = None,
    ):
        check_rates(node_mtbf=node_mtbf, node_mttr=node_mttr,
                    link_mtbf=link_mtbf, link_mttr=link_mttr)
        if duration <= 0:
            raise ValueError(f"duration must be positive, got {duration}")
        coords = CoordinateSystem.shared(n, h)
        self.n = n
        self.h = h
        self.duration = duration
        self.seed = seed
        self.node_mtbf = node_mtbf
        self.node_mttr = node_mttr
        self.link_mtbf = link_mtbf
        self.link_mttr = link_mttr
        self.cell_loss_rate = cell_loss_rate
        self.node_ids: List[int] = sorted(node_ids) if node_ids is not None \
            else list(range(n))
        if links is not None:
            self.links: List[Tuple[int, int]] = sorted(
                (min(a, b), max(a, b)) for a, b in links
            )
        else:
            self.links = sorted(
                (a, b)
                for a in range(n)
                for b in coords.all_neighbors(a)
                if a < b
            )
        self._events: Optional[List[object]] = None

    @classmethod
    def from_config(cls, config, **kwargs) -> "FaultInjector":
        """Build an injector keyed to a :class:`SimConfig` (shape + seed)."""
        kwargs.setdefault("seed", config.seed)
        return cls(config.n, config.h, config.duration, **kwargs)

    # ------------------------------------------------------------------ #
    # event generation

    def _up_down_process(self, rng: random.Random, mtbf: float,
                         mttr: float) -> List[Tuple[int, bool]]:
        """Alternating up/down transitions as (slot, failed) pairs."""
        out: List[Tuple[int, bool]] = []
        clock = 0.0
        prev = -1
        while True:
            clock += rng.expovariate(1.0 / mtbf)
            fail_at = max(prev + 1, int(clock))
            if fail_at >= self.duration:
                break
            out.append((fail_at, True))
            prev = fail_at
            if mttr <= 0:
                break  # permanent failure
            clock += rng.expovariate(1.0 / mttr)
            recover_at = max(prev + 1, int(clock))
            if recover_at >= self.duration:
                break
            out.append((recover_at, False))
            prev = recover_at
        return out

    def events(self) -> List[object]:
        """The full fault schedule, sorted by time (cached, deterministic)."""
        if self._events is not None:
            return list(self._events)
        events: List[object] = []
        if self.node_mtbf > 0:
            for node_id in self.node_ids:
                rng = random.Random(f"{self.seed}:node:{node_id}")
                for t, failed in self._up_down_process(
                        rng, self.node_mtbf, self.node_mttr):
                    events.append(FailureEvent(t, node_id, failed))
        if self.link_mtbf > 0:
            for a, b in self.links:
                rng = random.Random(f"{self.seed}:link:{a}:{b}")
                for t, failed in self._up_down_process(
                        rng, self.link_mtbf, self.link_mttr):
                    events.append(LinkFailureEvent(t, a, b, failed))
        events.sort(key=self._sort_key)
        self._events = events
        return list(events)

    @staticmethod
    def _sort_key(event) -> Tuple[int, int, int, int]:
        if isinstance(event, LinkFailureEvent):
            return (event.t, 1, event.a, event.b)
        return (event.t, 0, event.node, -1)

    def describe(self) -> str:
        """One line per event — byte-identical for a given seed."""
        return "\n".join(repr(e) for e in self.events())

    # ------------------------------------------------------------------ #
    # manager plumbing

    def build_manager(self, detection_epochs: int = 1,
                      propagate: bool = True) -> FailureManager:
        """A :class:`FailureManager` driving this injector's schedule."""
        return FailureManager(
            events=self.events(),
            detection_epochs=detection_epochs,
            propagate=propagate,
            cell_loss_rate=self.cell_loss_rate,
            loss_seed=f"{self.seed}:wire-loss",
        )
