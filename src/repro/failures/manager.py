"""Failure detection, propagation and rerouting (paper Section 3.4, App. A).

The protocol has three ingredients:

* **Detection** — every node sends and receives a cell from each neighbour
  once per epoch, so a missing cell reveals a failed link or node.  A node
  declares a neighbour down after ``detection_epochs`` consecutive missed
  cells.  Detection is symmetric: once node ``i`` stops hearing from ``j``
  it also stops sending payload to ``j`` and instead *probes* it once per
  epoch with a bare header carrying a deafness complaint, so a one-way link
  failure shuts the link down on both sides and a recovered link is
  re-validated from real cells, never from oracle knowledge.

* **Propagation** — *invalidation tokens* ride the token space of cell
  headers.  A route token ``{j, 0}`` tells a neighbour that the sender has
  no valid direct route towards destination ``j``, invalidating the
  corresponding subtree of the deterministic direct-path tree; recipients
  that thereby lose their own last valid route re-announce, so the news
  floods exactly the affected subtree.  *Re-validation tokens* reverse an
  invalidation when a link or node recovers.

* **Reaction** — cells whose direct semi-path would traverse a failed
  node/link are reset to fresh spraying hops; spraying hops simply avoid
  failed or invalidated neighbours; cells whose *final* hop is down are
  dropped (an end-to-end transport above Shale recovers them).

Simulation note (recorded in DESIGN.md): healthy links elide bare headers,
so per-slot silence cannot be observed directly.  Silence toward a healthy
observer only ever *begins* at a failure event, which lets the manager run
detection from an agenda: when a node or link fails it computes, for every
affected directed pair (sender → observer), the exact slot at which the
observer will have missed ``detection_epochs`` consecutive scheduled cells
(plus propagation delay) and fires the local detection then — equivalent to
per-slot liveness tracking at a fraction of the cost.  Every *clearing* of
a marking, by contrast, is purely cell-driven: it happens only when a real
transmission from the marked neighbour arrives.
"""

from __future__ import annotations

import heapq
import random
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..core.header import TOKEN_INVALIDATE, TOKEN_REGULAR, TOKEN_REVALIDATE, Token
from ..sim.node import LINK_DEAF, LINK_SILENT, Transmission

__all__ = ["FailureManager", "FailureEvent", "LinkFailureEvent"]


class FailureEvent:
    """A scheduled node failure or recovery.

    Attributes:
        t: timeslot at which the event takes effect.
        node: affected node id.
        failed: True to fail the node, False to recover it.
    """

    __slots__ = ("t", "node", "failed")

    def __init__(self, t: int, node: int, failed: bool = True):
        self.t = t
        self.node = node
        self.failed = failed

    def __repr__(self) -> str:
        verb = "fail" if self.failed else "recover"
        return f"FailureEvent({verb} node {self.node} @ {self.t})"


class LinkFailureEvent:
    """A scheduled link failure or recovery between two neighbours.

    Attributes:
        t: timeslot at which the event takes effect.
        a, b: the link endpoints (must be one-hop schedule neighbours).
        failed: True to fail the link, False to recover it.
        bidirectional: when False only the directed ``a -> b`` wire is
            affected (``b``'s transmissions still reach ``a``), modelling a
            one-way fault such as a dead laser.
    """

    __slots__ = ("t", "a", "b", "failed", "bidirectional")

    def __init__(self, t: int, a: int, b: int, failed: bool = True,
                 bidirectional: bool = True):
        self.t = t
        self.a = a
        self.b = b
        self.failed = failed
        self.bidirectional = bidirectional

    def __repr__(self) -> str:
        verb = "fail" if self.failed else "recover"
        arrow = "<->" if self.bidirectional else "->"
        return f"LinkFailureEvent({verb} link {self.a}{arrow}{self.b} @ {self.t})"


def _encode_event(event) -> tuple:
    """A fail/recover event as a plain tuple (checkpoint encoding)."""
    if isinstance(event, LinkFailureEvent):
        return ("link", event.t, event.a, event.b, event.failed,
                event.bidirectional)
    return ("node", event.t, event.node, event.failed)


def _rng_state(state) -> tuple:
    """``random.Random.getstate()`` as ``setstate`` wants it (a checkpoint
    file holds its tuples as JSON lists)."""
    version, key, gauss = state
    return version, tuple(key), gauss


def _decode_event(state) -> object:
    kind = state[0]
    if kind == "link":
        return LinkFailureEvent(state[1], state[2], state[3],
                                failed=state[4], bidirectional=state[5])
    return FailureEvent(state[1], state[2], failed=state[3])


class FailureManager:
    """Injects failures into an engine and runs the detection/invalidation
    protocol.

    Args:
        failed_nodes: nodes failed from the start of the run.
        events: optional timed :class:`FailureEvent` /
            :class:`LinkFailureEvent` items.
        detection_epochs: consecutive missed cells (one per epoch) before a
            neighbour is declared down.  The paper detects within one epoch;
            raising this models conservative detection against clock skew.
        propagate: when False, only local (neighbour) detection happens and
            no route invalidation tokens are exchanged — an ablation showing
            why propagation matters.  Deafness complaints still flow: they
            are part of detection, not propagation.
        failed_links: (a, b) pairs failed bidirectionally from the start.
        cell_loss_rate: probability that any payload cell is corrupted on
            the wire (its header — tokens, control messages, the liveness
            observation — still arrives).  Drawn from a dedicated RNG
            stream derived from ``SimConfig.seed`` unless ``loss_seed`` is
            given, so runs are reproducible.
        loss_seed: optional explicit seed for the wire-loss RNG stream.
        link_loss_rates: the *gray-failure* wire model — per-directed-link
            payload loss probabilities, ``{(sender, receiver): rate}``.
            A gray link is lossy but alive: payload cells vanish at the
            given rate while headers (tokens, control messages, the
            liveness observation) still land, so the missed-cell detector
            never fires — exactly what makes gray failures nasty in
            production.  A rate of ``1.0`` is not gray but dead and is
            handled by the link-down machinery (the link is failed at
            ``apply`` time, so detection fires like any link failure); a
            rate of ``0.0`` is dropped entirely (no RNG stream is created,
            keeping the run bit-identical to no entry at all).  Each gray
            link draws from its own RNG stream derived from ``gray_seed``
            and its identity, so adding one gray link never reshuffles the
            loss pattern of another.
        gray_seed: optional explicit seed for the gray-link RNG streams
            (default: derived from ``SimConfig.seed``).
    """

    def __init__(
        self,
        failed_nodes: Iterable[int] = (),
        events: Optional[Sequence[object]] = None,
        detection_epochs: int = 1,
        propagate: bool = True,
        failed_links: Iterable[Tuple[int, int]] = (),
        cell_loss_rate: float = 0.0,
        loss_seed: Optional[object] = None,
        link_loss_rates: Optional[Dict[Tuple[int, int], float]] = None,
        gray_seed: Optional[object] = None,
    ):
        self.initial_failed: Set[int] = set(failed_nodes)
        self.initial_failed_links: List[Tuple[int, int]] = sorted(
            (min(a, b), max(a, b)) for a, b in failed_links
        )
        self.events: List[object] = sorted(events or [], key=lambda e: e.t)
        if detection_epochs < 1:
            raise ValueError("detection takes at least one epoch")
        if not 0.0 <= cell_loss_rate < 1.0:
            raise ValueError(f"cell loss rate must be in [0, 1), got {cell_loss_rate}")
        self.link_loss_rates: Dict[Tuple[int, int], float] = {}
        for (a, b), rate in sorted((link_loss_rates or {}).items()):
            if not 0.0 <= rate <= 1.0:
                raise ValueError(
                    f"gray loss rate for link {a}->{b} must be in [0, 1], "
                    f"got {rate}"
                )
            if rate > 0.0:
                self.link_loss_rates[(a, b)] = rate
        self._gray_seed = gray_seed
        # per-directed-link RNG streams for 0 < rate < 1 (rate 1.0 links
        # are failed outright in apply(), never drawn from)
        self._gray_rng: Dict[Tuple[int, int], random.Random] = {}
        self.detection_epochs = detection_epochs
        self.propagate = propagate
        self.cell_loss_rate = cell_loss_rate
        self._loss_seed = loss_seed
        self._loss_rng: Optional[random.Random] = None
        self._next_event = 0
        self._engine = None
        # directed pairs (sender, observer) currently silent, mapped to the
        # slot at which the silence began; guards agenda staleness
        self._silence: Dict[Tuple[int, int], int] = {}
        # pending detections: (fire_t, seq, sender, observer, silence_start)
        self._agenda: List[Tuple[int, int, int, int, int]] = []
        self._agenda_seq = 0
        #: (t, detector, neighbour) — neighbour declared down from silence
        self.detections: List[Tuple[int, int, int]] = []
        #: (t, recipient, neighbour) — neighbour declared down from a complaint
        self.deaf_notices: List[Tuple[int, int, int]] = []
        #: (t, node, neighbour) — neighbour re-validated from heard cells
        self.undetects: List[Tuple[int, int, int]] = []
        #: applied fail/recover events with a drop-counter snapshot
        self.event_log: List[Dict[str, object]] = []

    # ------------------------------------------------------------------ #
    # engine lifecycle hooks

    def apply(self, engine) -> None:
        """Install initial failures into a freshly built engine."""
        self._engine = engine
        if self._loss_rng is None:
            seed = self._loss_seed
            if seed is None:
                seed = f"{engine.config.seed}:wire-loss"
            self._loss_rng = random.Random(seed)
        if self.link_loss_rates and not self._gray_rng:
            gray_seed = self._gray_seed
            if gray_seed is None:
                gray_seed = f"{engine.config.seed}:gray"
            for (a, b), rate in sorted(self.link_loss_rates.items()):
                if rate >= 1.0:
                    continue  # dead, not gray: failed below, no RNG stream
                self._gray_rng[(a, b)] = random.Random(
                    f"{gray_seed}:link:{a}:{b}"
                )
        for a, b in self.initial_failed_links:
            self._fail_link(engine, a, b, 0, bidirectional=True)
        for (a, b), rate in sorted(self.link_loss_rates.items()):
            # a total-loss "gray" link is simply a dead wire: route it
            # through the ordinary link-down machinery so detection fires
            if rate >= 1.0:
                self._fail_link(engine, a, b, 0, bidirectional=False)
        for node_id in sorted(self.initial_failed):
            self._fail_node(engine, node_id, 0)

    # ------------------------------------------------------------------ #
    # checkpoint support

    def state_dict(self) -> dict:
        """Constructor parameters plus all protocol state (checkpointing)."""
        return {
            "params": {
                "failed_nodes": sorted(self.initial_failed),
                "failed_links": list(self.initial_failed_links),
                "detection_epochs": self.detection_epochs,
                "propagate": self.propagate,
                "cell_loss_rate": self.cell_loss_rate,
                "loss_seed": self._loss_seed,
                "link_loss_rates": sorted(self.link_loss_rates.items()),
                "gray_seed": self._gray_seed,
            },
            "events": [_encode_event(e) for e in self.events],
            "next_event": self._next_event,
            "silence": sorted(self._silence.items()),
            "agenda": sorted(self._agenda),
            "agenda_seq": self._agenda_seq,
            "detections": list(self.detections),
            "deaf_notices": list(self.deaf_notices),
            "undetects": list(self.undetects),
            "event_log": [dict(entry, target=list(entry["target"]))
                          for entry in self.event_log],
            "loss_rng": (None if self._loss_rng is None
                         else self._loss_rng.getstate()),
            "gray_rng": [(key, rng.getstate())
                         for key, rng in sorted(self._gray_rng.items())],
        }

    @classmethod
    def from_state(cls, state: dict) -> "FailureManager":
        """Rebuild a manager from the constructor-parameter portion of
        :meth:`state_dict`; :meth:`load_state` restores the runtime state."""
        params = state["params"]
        return cls(
            failed_nodes=params["failed_nodes"],
            events=[_decode_event(e) for e in state["events"]],
            detection_epochs=params["detection_epochs"],
            propagate=params["propagate"],
            failed_links=[tuple(link) for link in params["failed_links"]],
            cell_loss_rate=params["cell_loss_rate"],
            loss_seed=params["loss_seed"],
            link_loss_rates={tuple(link): rate for link, rate
                             in params.get("link_loss_rates", [])},
            gray_seed=params.get("gray_seed"),
        )

    def load_state(self, engine, state: dict) -> None:
        """Restore mid-run protocol state captured by :meth:`state_dict`.

        Node-side failure markings (``failed``/``failed_neighbors``/...) and
        ``engine.failed_links`` live in the node/engine checkpoints; callers
        restore those first, then this method re-aligns the manager.
        """
        self._engine = engine
        self.events = [_decode_event(e) for e in state["events"]]
        self._next_event = state["next_event"]
        self._silence.clear()
        self._silence.update(
            {tuple(key): start for key, start in state["silence"]}
        )
        self._agenda[:] = [tuple(entry) for entry in state["agenda"]]
        heapq.heapify(self._agenda)
        self._agenda_seq = state["agenda_seq"]
        self.detections[:] = [tuple(d) for d in state["detections"]]
        self.deaf_notices[:] = [tuple(d) for d in state["deaf_notices"]]
        self.undetects[:] = [tuple(d) for d in state["undetects"]]
        self.event_log[:] = [
            dict(entry, target=list(entry["target"]))
            for entry in state["event_log"]
        ]
        if state["loss_rng"] is not None:
            if self._loss_rng is None:
                self._loss_rng = random.Random()
            self._loss_rng.setstate(_rng_state(state["loss_rng"]))
        for key, rng_state in state.get("gray_rng", []):
            key = tuple(key)
            rng = self._gray_rng.get(key)
            if rng is None:
                rng = self._gray_rng.setdefault(key, random.Random())
            rng.setstate(_rng_state(rng_state))

    def advance(self, engine, t: int) -> None:
        """Apply timed events and fire due missed-cell detections."""
        events = self.events
        while self._next_event < len(events) and events[self._next_event].t <= t:
            event = events[self._next_event]
            self._next_event += 1
            self._apply_event(engine, event, t)
        agenda = self._agenda
        while agenda and agenda[0][0] <= t:
            _, _, sender, observer, start = heapq.heappop(agenda)
            if self._silence.get((sender, observer)) != start:
                continue  # healed or rescheduled since; entry is stale
            node = engine.nodes[observer]
            if node.failed:
                continue  # observer died meanwhile; rescheduled on recovery
            self._mark_link_down(engine, node, sender, t, LINK_SILENT)

    def _apply_event(self, engine, event, t: int) -> None:
        if isinstance(event, LinkFailureEvent):
            if event.failed:
                self._fail_link(engine, event.a, event.b, t, event.bidirectional)
            else:
                self._recover_link(engine, event.a, event.b, t, event.bidirectional)
        else:
            if event.failed:
                self._fail_node(engine, event.node, t)
            else:
                self._recover_node(engine, event.node, t)

    # ------------------------------------------------------------------ #
    # the wire model (called from object_backend.deliver_arrivals)

    def filter_arrival(self, engine, tx: Transmission, t: int):
        """Apply failed receivers, failed links and wire noise to ``tx``.

        Returns the (possibly payload-stripped) transmission to deliver, or
        ``None`` when nothing arrives at all.
        """
        payload = tx.cell is not None
        if engine.nodes[tx.receiver].failed:
            if payload:
                engine.wire_drop(tx)
            return None
        if engine.failed_links and (tx.sender, tx.receiver) in engine.failed_links:
            if payload:
                engine.wire_drop(tx)
            return None
        if payload and self._gray_rng:
            gray = self._gray_rng.get((tx.sender, tx.receiver))
            if gray is not None \
                    and gray.random() < self.link_loss_rates[(tx.sender,
                                                              tx.receiver)]:
                # gray link: the payload vanishes on this (and only this)
                # wire while the header still lands, so the link looks
                # alive to the missed-cell detector
                engine.wire_drop(tx)
                return Transmission(tx.sender, tx.receiver, None,
                                    tx.tokens, tx.ctrl)
        if payload and self.cell_loss_rate > 0.0 \
                and self._loss_rng.random() < self.cell_loss_rate:
            # transient corruption: the payload is lost but the header —
            # tokens, control messages and the liveness observation — lands
            engine.wire_drop(tx)
            return Transmission(tx.sender, tx.receiver, None, tx.tokens, tx.ctrl)
        return tx

    # ------------------------------------------------------------------ #
    # failure mechanics

    def _require_link(self, engine, a: int, b: int) -> None:
        if a == b or engine.coords.distance(a, b) != 1:
            raise ValueError(
                f"nodes {a} and {b} are not one-hop schedule neighbours"
            )

    def _log_event(self, engine, t: int, action: str, kind: str,
                   target: List[object]) -> None:
        self.event_log.append({
            "t": t,
            "action": action,
            "kind": kind,
            "target": target,
            "drops_before": engine.metrics.cells_dropped,
        })
        if engine.events is not None:
            engine.events.emit(t, "failure_event", {
                "action": action, "kind": kind, "target": list(target),
            })

    def _fail_node(self, engine, node_id: int, t: int) -> None:
        node = engine.nodes[node_id]
        if node.failed:
            return
        node.failed = True
        self._log_event(engine, t, "fail", "node", [node_id])
        # The node simply goes dark: every neighbour must *notice* the
        # missing cells for itself.  Cells in the dead node's queues stay
        # captive until it recovers (they count as queued for conservation).
        for neighbor_id in engine.coords.all_neighbors(node_id):
            self._begin_silence(engine, node_id, neighbor_id, t)

    def _recover_node(self, engine, node_id: int, t: int) -> None:
        node = engine.nodes[node_id]
        if not node.failed:
            return
        node.failed = False
        self._log_event(engine, t, "recover", "node", [node_id])
        node.reset_for_recovery(t)
        node.wake()
        for neighbor_id in engine.coords.all_neighbors(node_id):
            if (node_id, neighbor_id) not in engine.failed_links:
                # our own transmissions flow again; neighbours re-validate
                # from the cells (or probe replies) they now hear
                self._silence.pop((node_id, neighbor_id), None)
            if engine.nodes[neighbor_id].failed \
                    or (neighbor_id, node_id) in engine.failed_links:
                # fresh eyes: we start a brand-new detection window for any
                # neighbour that is still dark toward us
                self._silence[(neighbor_id, node_id)] = t
                self._schedule_detection(engine, neighbor_id, node_id, t)

    def _fail_link(self, engine, a: int, b: int, t: int,
                   bidirectional: bool) -> None:
        self._require_link(engine, a, b)
        pairs = ((a, b), (b, a)) if bidirectional else ((a, b),)
        changed = False
        for sender, observer in pairs:
            if (sender, observer) in engine.failed_links:
                continue
            changed = True
            engine.failed_links.add((sender, observer))
            self._begin_silence(engine, sender, observer, t)
        if changed:
            self._log_event(engine, t, "fail", "link",
                            [a, b, "bi" if bidirectional else "dir"])

    def _recover_link(self, engine, a: int, b: int, t: int,
                      bidirectional: bool) -> None:
        self._require_link(engine, a, b)
        pairs = ((a, b), (b, a)) if bidirectional else ((a, b),)
        changed = False
        for sender, observer in pairs:
            if (sender, observer) not in engine.failed_links:
                continue
            changed = True
            engine.failed_links.discard((sender, observer))
            if not engine.nodes[sender].failed:
                # the wire works again; the observer re-validates when the
                # sender's cells (or probe replies) actually arrive
                self._silence.pop((sender, observer), None)
        if changed:
            self._log_event(engine, t, "recover", "link",
                            [a, b, "bi" if bidirectional else "dir"])

    # ------------------------------------------------------------------ #
    # missed-cell detection

    def _begin_silence(self, engine, sender: int, observer: int, t: int) -> None:
        key = (sender, observer)
        if key in self._silence:
            return  # already dark for another (still-active) reason
        self._silence[key] = t
        self._schedule_detection(engine, sender, observer, t)

    def _schedule_detection(self, engine, sender: int, observer: int,
                            start: int) -> None:
        """Queue the slot at which ``observer`` has missed ``detection_epochs``
        consecutive cells from ``sender`` (observed after propagation)."""
        sched = engine.schedule
        first_missed = sched.next_send_slot(sender, observer, after=start)
        last_missed = first_missed + (self.detection_epochs - 1) * sched.epoch_length
        fire = last_missed + engine.config.propagation_delay
        heapq.heappush(
            self._agenda,
            (fire, self._agenda_seq, sender, observer, start),
        )
        self._agenda_seq += 1

    def on_contact(self, engine, node, sender: int, t: int,
                   complaint: bool = False) -> None:
        """A transmission from ``sender`` arrived at ``node`` — the liveness
        observation.  Hearing the sender clears a SILENT marking; hearing it
        without a deafness complaint clears a DEAF marking."""
        mask = node._fail_cause.get(sender)
        if mask is None:
            return
        if mask & LINK_SILENT:
            self._silence.pop((sender, node.node_id), None)
            self._mark_link_up(engine, node, sender, t, LINK_SILENT)
        if not complaint and node._fail_cause.get(sender, 0) & LINK_DEAF:
            self._mark_link_up(engine, node, sender, t, LINK_DEAF)

    def _mark_link_down(self, engine, node, neighbor: int, t: int,
                        cause: int) -> None:
        mask = node._fail_cause.get(neighbor, 0)
        if mask & cause:
            return
        node._fail_cause[neighbor] = mask | cause
        if cause == LINK_SILENT:
            self.detections.append((t, node.node_id, neighbor))
        else:
            self.deaf_notices.append((t, node.node_id, neighbor))
        events = self._engine.events if self._engine is not None else None
        if events is not None:
            events.emit(t, "detection", {
                "detector": node.node_id, "neighbor": neighbor,
                "cause": "silent" if cause == LINK_SILENT else "deaf",
            })
        if mask:
            return  # already reacting because of the other cause
        node.failed_neighbors.add(neighbor)
        node.wake()  # must probe the suspect link even when otherwise idle
        self._requeue_link(engine, node, neighbor, t)
        if node.ledger is not None:
            # tokens owed by the dead neighbour will never return
            node.ledger.reset_neighbor(neighbor)
        if self.propagate:
            self._reevaluate_routes_down(engine, node, neighbor, t)

    def _mark_link_up(self, engine, node, neighbor: int, t: int,
                      cause: int) -> None:
        mask = node._fail_cause.get(neighbor, 0)
        if not mask & cause:
            return
        mask &= ~cause
        if mask:
            node._fail_cause[neighbor] = mask
            return
        del node._fail_cause[neighbor]
        node.failed_neighbors.discard(neighbor)
        self.undetects.append((t, node.node_id, neighbor))
        events = self._engine.events if self._engine is not None else None
        if events is not None:
            events.emit(t, "revalidation", {
                "node": node.node_id, "neighbor": neighbor,
            })
        if self.propagate:
            self._reevaluate_routes_up(engine, node, neighbor, t)

    # ------------------------------------------------------------------ #
    # route (in)validation — the direct-path-tree subtree state

    def _has_valid_direct_route(self, engine, node, dest: int) -> bool:
        """Does any mismatched-phase direct hop toward ``dest`` survive?"""
        coords = engine.coords
        nid = node.node_id
        for p in range(coords.h):
            want = coords.coordinate(dest, p)
            if coords.coordinate(nid, p) == want:
                continue
            target = coords.with_coordinate(nid, p, want)
            if target in node.failed_neighbors:
                continue
            if (target, dest) in node.link_invalid:
                continue
            return True
        return False

    def _reevaluate_routes_down(self, engine, node, neighbor: int,
                                t: int) -> None:
        """The link to ``neighbor`` died: announce every destination whose
        last valid direct route ran through it."""
        coords = engine.coords
        p = node.link_to(neighbor) // (coords.r - 1)
        affected_coord = coords.coordinate(neighbor, p)
        nid = node.node_id
        for dest in range(coords.n):
            if dest == nid:
                continue
            if coords.coordinate(dest, p) != affected_coord:
                continue  # this dest's phase-p hop does not use the link
            if dest in node.known_failed:
                continue
            if not self._has_valid_direct_route(engine, node, dest):
                self._announce_unreachable(engine, node, dest)

    def _reevaluate_routes_up(self, engine, node, neighbor: int, t: int) -> None:
        """The link to ``neighbor`` re-validated: withdraw stale
        announcements and resync route state with the restored peer."""
        # invalidations learned *from* the neighbour may have been
        # withdrawn while the link was down — drop them; the peer
        # re-announces its current set symmetrically
        stale = [key for key in node.link_invalid if key[0] == neighbor]
        for key in stale:
            node.link_invalid.discard(key)
        for dest in sorted(node.known_failed):
            if self._has_valid_direct_route(engine, node, dest):
                self._withdraw_unreachable(engine, node, dest)
        for dest in sorted(node.known_failed):
            if dest != neighbor:
                node._queue_token(neighbor, Token(dest, 0, TOKEN_INVALIDATE))

    def _announce_unreachable(self, engine, node, dest: int) -> None:
        node.known_failed.add(dest)
        for neighbor_id in engine.coords.all_neighbors(node.node_id):
            if neighbor_id == dest or neighbor_id in node.failed_neighbors:
                continue
            node._queue_token(neighbor_id, Token(dest, 0, TOKEN_INVALIDATE))

    def _withdraw_unreachable(self, engine, node, dest: int) -> None:
        node.known_failed.discard(dest)
        for neighbor_id in engine.coords.all_neighbors(node.node_id):
            if neighbor_id == dest or neighbor_id in node.failed_neighbors:
                continue
            node._queue_token(neighbor_id, Token(dest, 0, TOKEN_REVALIDATE))

    # ------------------------------------------------------------------ #
    # reaction: requeue / drop affected cells

    def _requeue_link(self, engine, node, failed_id: int, t: int) -> None:
        """Appendix A reaction at the node adjacent to the failure.

        Cells awaiting their final hop to the failed neighbour are dropped;
        cells on direct semi-paths via it restart their spraying semi-path;
        cells on spraying hops via it re-spray within the same phase.
        """
        link = node.link_to(failed_id)
        phase = link // (engine.coords.r - 1)
        queue = node.link_queues[link]
        stranded = queue[:]
        queue.clear()
        node.total_enqueued -= len(stranded)
        for cell in stranded:
            self._respray(engine, node, cell, failed_id, phase, t)

    def _requeue_direct_cells(self, engine, node, via: int, dest: int,
                              t: int) -> None:
        """A route token invalidated (via, dest): pull the direct cells for
        ``dest`` off the link to ``via`` and re-spray them."""
        link = node.link_to(via)
        p = link // (engine.coords.r - 1)
        queue = node.link_queues[link]
        stranded = [c for c in queue
                    if c.sprays_remaining == 0 and c.dst == dest]
        queue[:] = [c for c in queue if c.sprays_remaining or c.dst != dest]
        node.total_enqueued -= len(stranded)
        for cell in stranded:
            self._respray(engine, node, cell, via, p, t)

    def _respray(self, engine, node, cell, bad_target: int, phase: int,
                 t: int) -> None:
        if node.bucket_tracker is not None:
            node.bucket_tracker.release((cell.dst, cell.sprays_remaining))
        node.release_upstream(cell)
        if engine.tracer is not None:
            engine.tracer.on_reroute(cell)
        if cell.dst == bad_target:
            # its final hop is dead: drop (end-to-end recovery's job)
            engine.drop_cell(cell, t)
            return
        if cell.sprays_remaining == 0:
            # direct semi-path via the failure: restart spraying
            cell.sprays_remaining = engine.coords.h
        node.enqueue_forward(cell, t, phase)

    # ------------------------------------------------------------------ #
    # token reception (called from Node.receive via the engine)

    def on_token(self, engine, node, sender: int, token: Token,
                 phase: int) -> None:
        """Handle a failure-protocol token arriving at ``node``."""
        t = engine.t
        if token.kind == TOKEN_REGULAR:
            return
        if token.sprays >= 1:
            # the link-status channel: dest names the complaining sender
            if token.kind == TOKEN_INVALIDATE and token.dest == sender:
                self._mark_link_down(engine, node, sender, t, LINK_DEAF)
            return
        # route tokens: (in)validation of the direct route to ``dest`` via
        # the sending neighbour
        dest = token.dest
        if dest == node.node_id:
            return
        key = (sender, dest)
        if token.kind == TOKEN_INVALIDATE:
            if key in node.link_invalid:
                return
            node.link_invalid.add(key)
            self._requeue_direct_cells(engine, node, sender, dest, t)
            if self.propagate and dest not in node.known_failed \
                    and not self._has_valid_direct_route(engine, node, dest):
                self._announce_unreachable(engine, node, dest)
        elif token.kind == TOKEN_REVALIDATE:
            if key not in node.link_invalid:
                return
            node.link_invalid.discard(key)
            if dest in node.known_failed \
                    and self._has_valid_direct_route(engine, node, dest):
                self._withdraw_unreachable(engine, node, dest)

    # ------------------------------------------------------------------ #
    # resilience reporting

    def resilience_summary(self) -> Dict[str, object]:
        """Per-event detection latencies and drop attribution.

        Deterministic for a given seed: ``json.dumps(..., sort_keys=True)``
        of the result is byte-identical across identical runs.
        """
        engine = self._engine
        epoch = engine.schedule.epoch_length if engine is not None else 1
        total_drops = engine.metrics.cells_dropped if engine is not None else 0
        events: List[Dict[str, object]] = []
        log = self.event_log
        for i, entry in enumerate(log):
            out = {
                "t": entry["t"],
                "action": entry["action"],
                "kind": entry["kind"],
                "target": list(entry["target"]),
            }
            # the window closes at the next event touching the same target
            end = None
            for later in log[i + 1:]:
                if later["kind"] == entry["kind"] \
                        and later["target"] == entry["target"]:
                    end = later["t"]
                    break
            records = self.detections if entry["action"] == "fail" \
                else self.undetects
            latencies = self._match_latencies(records, entry, end)
            out["reactions"] = len(latencies)
            out["detect_first_slots"] = latencies[0] if latencies else None
            out["detect_last_slots"] = latencies[-1] if latencies else None
            out["detect_first_epochs"] = (
                round(latencies[0] / epoch, 3) if latencies else None
            )
            drops_end = log[i + 1]["drops_before"] if i + 1 < len(log) \
                else total_drops
            out["drops_after"] = drops_end - entry["drops_before"]
            events.append(out)
        return {
            "events": events,
            "detections": len(self.detections),
            "deaf_notices": len(self.deaf_notices),
            "undetects": len(self.undetects),
        }

    def _match_latencies(self, records, entry, end: Optional[int]) -> List[int]:
        """Reaction latencies (slots) attributable to one logged event."""
        t0 = entry["t"]
        target = entry["target"]
        if entry["kind"] == "node":
            node_id = target[0]

            def matches(detector: int, neighbor: int) -> bool:
                return neighbor == node_id
        else:
            a, b = target[0], target[1]
            bidirectional = target[2] == "bi"

            def matches(detector: int, neighbor: int) -> bool:
                if detector == b and neighbor == a:
                    return True
                return bidirectional and detector == a and neighbor == b
        out = [
            t - t0
            for t, detector, neighbor in records
            if t >= t0 and (end is None or t < end) and matches(detector, neighbor)
        ]
        out.sort()
        return out

    def mean_detection_epochs(self) -> Optional[float]:
        """Mean first-detection latency over fail events, in epochs."""
        latencies = [
            e["detect_first_epochs"]
            for e in self.resilience_summary()["events"]
            if e["action"] == "fail" and e["detect_first_epochs"] is not None
        ]
        if not latencies:
            return None
        return round(sum(latencies) / len(latencies), 3)
