"""Seed-stable event digest for behavior-equivalence testing.

The hot path of the simulator is rewritten from time to time for speed; the
contract of every such rewrite is that it is *event-identical*: the same
cells are delivered, dropped and lost at the same timeslots, and the same
tokens cross the same links, for any seed.  :class:`DeterminismDigest` folds
each of those events into a single 64-bit running hash (FNV-1a over the
event's integer fields), so two runs are event-identical iff their digests
match — without storing the full event trace.

The digest is an *observer*: attaching one to an engine
(:meth:`~repro.sim.engine.Engine.enable_digest`) must never change simulated
behavior.  Golden digests recorded before an optimization therefore pin the
optimized engine to the reference, bit for bit (see
``tests/test_golden_traces.py``).
"""

from __future__ import annotations

from typing import Iterable

__all__ = ["DeterminismDigest"]

_MASK = (1 << 64) - 1
_PRIME = 0x100000001B3  # FNV-64 prime
_BASIS = 0xCBF29CE484222325  # FNV-64 offset basis

# event kind tags, folded first so event streams cannot alias across kinds
_EV_DELIVERY = 1
_EV_DROP = 2
_EV_WIRE_LOSS = 3
_EV_TOKENS = 4


class DeterminismDigest:
    """Folds delivery/drop/token events into one seed-stable 64-bit hash.

    Attributes:
        value: the running 64-bit hash.
        events: number of events folded so far (a cheap cross-check: two
            identical digests with different event counts would indicate a
            hash collision rather than equivalence).
    """

    __slots__ = ("value", "events")

    def __init__(self) -> None:
        self.value = _BASIS
        self.events = 0

    def _fold(self, ints: Iterable[int]) -> None:
        v = self.value
        for x in ints:
            v = ((v ^ (x & _MASK)) * _PRIME) & _MASK
        self.value = v
        self.events += 1

    # ------------------------------------------------------------------ #
    # event hooks (called from the engine / node when a digest is attached)

    def on_delivery(self, cell, t: int) -> None:
        """A payload cell reached its destination at timeslot ``t``."""
        self._fold((_EV_DELIVERY, cell.flow_id, cell.seq, cell.src,
                    cell.dst, cell.hops, t))

    def on_drop(self, cell, t: int) -> None:
        """A payload cell was dropped inside a node at timeslot ``t``."""
        self._fold((_EV_DROP, cell.flow_id, cell.seq, cell.src,
                    cell.dst, t))

    def on_wire_loss(self, cell, t: int) -> None:
        """A payload cell was lost on the wire at timeslot ``t``."""
        self._fold((_EV_WIRE_LOSS, cell.flow_id, cell.seq, cell.src,
                    cell.dst, t))

    def on_tokens(self, sender: int, receiver: int, tokens, t: int) -> None:
        """One header's worth of tokens left ``sender`` at timeslot ``t``."""
        acc = [_EV_TOKENS, sender, receiver, t]
        for token in tokens:
            acc.append(token.dest)
            acc.append(token.sprays)
            acc.append(token.kind)
        self._fold(acc)

    def fold_events(self, fields, count: int) -> None:
        """Fold ``count`` events whose fields are concatenated in ``fields``.

        The batch form of the hooks above, for a backend that holds a
        slot's events as one table (a flattened ``ndarray.tolist()``, each
        event's fields in its hook's order, tag first) instead of calling
        once per event.
        """
        v = self.value
        for x in fields:
            v = ((v ^ x) * _PRIME) & _MASK
        self.value = v
        self.events += count

    # ------------------------------------------------------------------ #

    def hexdigest(self) -> str:
        """The current hash as a fixed-width hex string."""
        return f"{self.value:016x}"

    def state_dict(self) -> dict:
        """Running hash and event count (checkpoint encoding)."""
        return {"value": self.value, "events": self.events}

    def load_state(self, state: dict) -> None:
        self.value = state["value"]
        self.events = state["events"]

    def __repr__(self) -> str:  # pragma: no cover
        return f"DeterminismDigest({self.hexdigest()}, events={self.events})"
