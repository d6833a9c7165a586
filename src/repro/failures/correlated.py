"""Correlated failure generators: rack outages, cascades, gray links.

:class:`~repro.failures.injector.FaultInjector` models *independent*
failures — every node and link flaps on its own Poisson clock.  Production
outages are rarely independent: a rack loses power and every link touching
it goes dark at once; a repair crew reboots a switch and its neighbours
brown out moments later; a flaky transceiver drops a third of its cells for
hours without ever going fully down.  This module generates those shapes,
with the same determinism contract as ``FaultInjector``: every episode and
entity derives its own RNG stream from the master seed and its identity
(``random.Random(f"{seed}:outage:{k}")``), so the schedule is
byte-identical for a given seed and adding one failure class never
reshuffles another.

Three correlated shapes:

* **Phase-group (rack) outages** — Shale's natural failure domain is the
  EBS phase group: the ``r`` nodes sharing every coordinate but one are
  the ones wired through the same round-robin circuit (in a physical
  deployment, the same rack or patch panel).  An outage episode fails
  *every* link touching the group's members at one instant and repairs
  them together — the worst case for spraying, because an entire
  phase-``p`` round-robin ring vanishes at once.
* **Cascades** — a primary node crash (its own MTBF/MTTR process) drags
  each of its neighbours down with probability ``cascade_probability``
  shortly after; secondaries are *MTTR-coupled*: they recover when the
  primary recovers (same power event, same repair crew), not on their own
  clock.
* **Gray links** — seeded per-link payload loss rates for the
  :class:`~repro.failures.manager.FailureManager` gray wire model: lossy
  but alive, invisible to the missed-cell detector.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.coordinates import CoordinateSystem
from .injector import check_rates
from .manager import FailureEvent, FailureManager, LinkFailureEvent

__all__ = ["CorrelatedFaultInjector", "rack_outage_events"]


def _group_links(coords: CoordinateSystem, members: Sequence[int]
                 ) -> List[Tuple[int, int]]:
    """Every undirected one-hop link touching any of ``members``."""
    links = set()
    for node in members:
        for neighbor in coords.all_neighbors(node):
            links.add((min(node, neighbor), max(node, neighbor)))
    # links internal to the group appear once; sorted for determinism
    return sorted(links)


def rack_outage_events(
    n: int,
    h: int,
    anchor: int,
    phase: int,
    at: int,
    repair: int = 0,
) -> List[LinkFailureEvent]:
    """The event list for one deterministic phase-group outage.

    Fails every link touching the phase-``phase`` group of ``anchor`` at
    slot ``at``; when ``repair > 0`` all of them recover together at
    ``at + repair``.  Useful for targeted experiments and tests; the
    :class:`CorrelatedFaultInjector` draws the same shape stochastically.
    """
    coords = CoordinateSystem.shared(n, h)
    group = coords.phase_group(anchor, phase)
    events: List[LinkFailureEvent] = []
    for a, b in _group_links(coords, group):
        events.append(LinkFailureEvent(at, a, b, failed=True))
        if repair > 0:
            events.append(LinkFailureEvent(at + repair, a, b, failed=False))
    events.sort(key=lambda e: (e.t, e.a, e.b, e.failed))
    return events


class CorrelatedFaultInjector:
    """Generates a reproducible *correlated* fault schedule.

    Args:
        n, h: network shape (defines phase groups and the link set).
        duration: horizon (slots); no event is generated at or beyond it.
        seed: master seed; every episode/entity derives its own stream.
        outages: number of phase-group outage episodes to draw.  Each
            episode picks a slot, a phase and an anchor node from its own
            stream and fails every link touching that phase group at once.
        outage_mttr: mean slots until a downed group is repaired (all its
            links recover together; 0 means the outage is permanent).
        primary_mtbf: mean slots between primary node crashes (per node;
            0 disables the cascade machinery entirely).
        primary_mttr: mean slots to repair a crashed primary (0: permanent).
        cascade_probability: chance that each neighbour of a crashing
            primary is dragged down with it.
        cascade_max_delay: secondaries fail within this many slots after
            the primary (drawn uniformly per neighbour).
        gray_links: number of distinct links to turn gray (lossy-not-dead).
        gray_loss: ``(lo, hi)`` — each gray link's payload loss rate is
            drawn uniformly from this range from its own stream.
        node_ids: restrict primaries to these nodes (default: all).
    """

    def __init__(
        self,
        n: int,
        h: int,
        duration: int,
        seed: object = 0,
        outages: int = 0,
        outage_mttr: float = 0.0,
        primary_mtbf: float = 0.0,
        primary_mttr: float = 0.0,
        cascade_probability: float = 0.0,
        cascade_max_delay: int = 64,
        gray_links: int = 0,
        gray_loss: Tuple[float, float] = (0.05, 0.35),
        node_ids: Optional[Sequence[int]] = None,
    ):
        if duration <= 0:
            raise ValueError(f"duration must be positive, got {duration}")
        check_rates(outage_mttr=outage_mttr, primary_mtbf=primary_mtbf,
                    primary_mttr=primary_mttr)
        if not 0.0 <= cascade_probability <= 1.0:
            raise ValueError(
                f"cascade probability must be in [0, 1], "
                f"got {cascade_probability}"
            )
        if outages < 0 or gray_links < 0:
            raise ValueError("episode counts must be non-negative")
        if cascade_max_delay < 1:
            raise ValueError("cascade delay window must be at least 1 slot")
        lo, hi = gray_loss
        if not 0.0 < lo <= hi < 1.0:
            raise ValueError(
                f"gray loss range must satisfy 0 < lo <= hi < 1, "
                f"got {gray_loss}"
            )
        self.coords = CoordinateSystem.shared(n, h)
        self.n = n
        self.h = h
        self.duration = duration
        self.seed = seed
        self.outages = outages
        self.outage_mttr = outage_mttr
        self.primary_mtbf = primary_mtbf
        self.primary_mttr = primary_mttr
        self.cascade_probability = cascade_probability
        self.cascade_max_delay = cascade_max_delay
        self.gray_links = gray_links
        self.gray_loss = (lo, hi)
        self.node_ids: List[int] = sorted(node_ids) if node_ids is not None \
            else list(range(n))
        self._events: Optional[List[object]] = None
        self._gray: Optional[Dict[Tuple[int, int], float]] = None

    @classmethod
    def from_config(cls, config, **kwargs) -> "CorrelatedFaultInjector":
        """Build an injector keyed to a :class:`SimConfig` (shape + seed)."""
        kwargs.setdefault("seed", config.seed)
        return cls(config.n, config.h, config.duration, **kwargs)

    # ------------------------------------------------------------------ #
    # event generation

    def _outage_events(self) -> List[object]:
        events: List[object] = []
        for k in range(self.outages):
            rng = random.Random(f"{self.seed}:outage:{k}")
            at = rng.randrange(max(1, self.duration - 1))
            phase = rng.randrange(self.h)
            anchor = rng.randrange(self.n)
            group = self.coords.phase_group(anchor, phase)
            repair = 0
            if self.outage_mttr > 0:
                repair = max(1, int(rng.expovariate(1.0 / self.outage_mttr)))
            for a, b in _group_links(self.coords, group):
                events.append(LinkFailureEvent(at, a, b, failed=True))
                recover_at = at + repair
                if repair > 0 and recover_at < self.duration:
                    events.append(
                        LinkFailureEvent(recover_at, a, b, failed=False)
                    )
        return events

    def _cascade_events(self) -> List[object]:
        if self.primary_mtbf <= 0:
            return []
        events: List[object] = []
        for node_id in self.node_ids:
            rng = random.Random(f"{self.seed}:primary:{node_id}")
            clock = 0.0
            prev = -1
            while True:
                clock += rng.expovariate(1.0 / self.primary_mtbf)
                fail_at = max(prev + 1, int(clock))
                if fail_at >= self.duration:
                    break
                recover_at: Optional[int] = None
                if self.primary_mttr > 0:
                    clock += rng.expovariate(1.0 / self.primary_mttr)
                    recover_at = max(fail_at + 1, int(clock))
                events.append(FailureEvent(fail_at, node_id, failed=True))
                if recover_at is not None and recover_at < self.duration:
                    events.append(
                        FailureEvent(recover_at, node_id, failed=False)
                    )
                events.extend(
                    self._secondaries_for(node_id, fail_at, recover_at)
                )
                if recover_at is None:
                    break  # permanent failure
                prev = recover_at
        return events

    def _secondaries_for(self, primary: int, fail_at: int,
                         recover_at: Optional[int]) -> List[object]:
        """MTTR-coupled secondaries: neighbours dragged down with the
        primary recover when (and only because) the primary does."""
        if self.cascade_probability <= 0:
            return []
        out: List[object] = []
        for neighbor in sorted(set(self.coords.all_neighbors(primary))):
            rng = random.Random(
                f"{self.seed}:cascade:{primary}:{fail_at}:{neighbor}"
            )
            if rng.random() >= self.cascade_probability:
                continue
            window = self.cascade_max_delay
            if recover_at is not None:
                window = min(window, max(1, recover_at - fail_at))
            sec_fail = fail_at + 1 + rng.randrange(window)
            if sec_fail >= self.duration:
                continue
            out.append(FailureEvent(sec_fail, neighbor, failed=True))
            if recover_at is not None and recover_at < self.duration:
                out.append(FailureEvent(max(sec_fail + 1, recover_at),
                                        neighbor, failed=False))
        return out

    def events(self) -> List[object]:
        """The full fault schedule, sorted by time (cached, deterministic)."""
        if self._events is not None:
            return list(self._events)
        events = self._outage_events() + self._cascade_events()
        events.sort(key=self._sort_key)
        self._events = events
        return list(events)

    @staticmethod
    def _sort_key(event) -> Tuple[int, int, int, int, int]:
        if isinstance(event, LinkFailureEvent):
            return (event.t, 1, event.a, event.b, event.failed)
        return (event.t, 0, event.node, -1, event.failed)

    def link_loss_rates(self) -> Dict[Tuple[int, int], float]:
        """Per-directed-link gray loss rates (cached, deterministic).

        Both directions of a gray link share one rate (the transceiver is
        sick, not one laser); the manager still draws each direction from
        its own RNG stream.
        """
        if self._gray is not None:
            return dict(self._gray)
        rates: Dict[Tuple[int, int], float] = {}
        if self.gray_links:
            all_links = sorted(
                (a, b)
                for a in range(self.n)
                for b in self.coords.all_neighbors(a)
                if a < b
            )
            picker = random.Random(f"{self.seed}:gray-pick")
            count = min(self.gray_links, len(all_links))
            lo, hi = self.gray_loss
            for a, b in sorted(picker.sample(all_links, count)):
                rng = random.Random(f"{self.seed}:gray:{a}:{b}")
                rate = lo + rng.random() * (hi - lo)
                rates[(a, b)] = rate
                rates[(b, a)] = rate
        self._gray = rates
        return dict(rates)

    def describe(self) -> str:
        """One line per event/gray link — byte-identical for a given seed."""
        lines = [repr(e) for e in self.events()]
        gray = self.link_loss_rates()
        for (a, b), rate in sorted(gray.items()):
            if a < b:  # one line per undirected gray link
                lines.append(f"GrayLink({a}<->{b} loss={rate:.6f})")
        return "\n".join(lines)

    # ------------------------------------------------------------------ #
    # manager plumbing

    def build_manager(self, detection_epochs: int = 1,
                      propagate: bool = True,
                      cell_loss_rate: float = 0.0) -> FailureManager:
        """A :class:`FailureManager` driving this injector's schedule."""
        return FailureManager(
            events=self.events(),
            detection_epochs=detection_epochs,
            propagate=propagate,
            cell_loss_rate=cell_loss_rate,
            loss_seed=f"{self.seed}:wire-loss",
            link_loss_rates=self.link_loss_rates(),
            gray_seed=f"{self.seed}:gray-wire",
        )
