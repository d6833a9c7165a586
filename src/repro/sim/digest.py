"""Seed-stable event digest for behavior-equivalence testing.

The hot path of the simulator is rewritten from time to time for speed; the
contract of every such rewrite is that it is *event-identical*: the same
cells are delivered, dropped and lost at the same timeslots, and the same
tokens cross the same links, for any seed.  :class:`DeterminismDigest` folds
each of those events into a single 64-bit running hash, so two runs are
event-identical iff their digests match — without storing the full event
trace.

The hash has two levels, both mod 2⁶⁴, and both have a closed form that
numpy can evaluate over a whole table of events at once:

* **per event** — the event's integer fields ``f₀ … f_{w-1}`` (kind tag
  first) give ``h = w + Σⱼ fⱼ·Rʲ⁺¹``, then a splitmix64 finalizer mixes
  ``h``.  The finalizer breaks the linear structure plain polynomial hashes
  collide on; the powers rise with the field index, so zero fields appended
  to an event leave the sum alone and only the added width ``w`` tells a
  zero-padded row from a genuinely shorter one — a table of events of
  different widths is one zero-padded table plus a width per row;
* **across events** — ``v ← v·Q + h``, so ``k`` events fold in one step as
  ``v·Qᵏ + Σᵢ hᵢ·Qᵏ⁻¹⁻ⁱ``: a ``uint64`` dot product with a cached table of
  powers of ``Q``, exactly as order-sensitive as folding one at a time.

The event hooks fold one event in pure Python; :meth:`fold_table` folds a
backend's table of events in numpy.  Both compute the same arithmetic, so
any mix of the two gives the same value (``tests/test_digest.py``).

The digest is an *observer*: attaching one to an engine
(:meth:`~repro.sim.engine.Engine.enable_digest`) must never change simulated
behavior.  Golden digests recorded before an optimization therefore pin the
optimized engine to the reference, bit for bit (see
``tests/test_golden_traces.py``).
"""

from __future__ import annotations

from operator import mul
from typing import Optional, Sequence

import numpy as np

__all__ = ["DeterminismDigest"]

_MASK = (1 << 64) - 1
_R = 0x9E3779B97F4A7C15  # field multiplier (2⁶⁴ / golden ratio, odd)
_Q = 0xD1342543DE82EF95  # event multiplier (an odd LCG multiplier)
_M1 = 0xBF58476D1CE4E5B9  # splitmix64 finalizer constants
_M2 = 0x94D049BB133111EB

# event kind tags, folded first so event streams cannot alias across kinds
_EV_DELIVERY = 1
_EV_DROP = 2
_EV_WIRE_LOSS = 3
_EV_TOKENS = 4

#: base -> uint64 array of ``base**0, base**1, …``, grown on demand
_POWERS = {}


def _powers(base: int, count: int) -> np.ndarray:
    """At least ``count`` consecutive powers of ``base`` mod 2⁶⁴, from
    ``base**0``."""
    table = _POWERS.get(base)
    if table is None or table.size < count:
        table = np.empty(max(64, 1 << (count - 1).bit_length()),
                         dtype=np.uint64)
        table[0] = 1
        table[1:] = base
        np.multiply.accumulate(table, out=table)
        _POWERS[base] = table
    return table


#: R¹, R², … as Python ints, for the per-event fold
_RP = [int(p) for p in _powers(_R, 65)[1:]]


class DeterminismDigest:
    """Folds delivery/drop/token events into one seed-stable 64-bit hash.

    Attributes:
        value: the running 64-bit hash (``v`` above; 0 before any event).
        events: number of events folded so far (a cheap cross-check: two
            identical digests with different event counts would indicate a
            hash collision rather than equivalence).
    """

    __slots__ = ("value", "events")

    def __init__(self) -> None:
        self.value = 0
        self.events = 0

    def _fold(self, ints: Sequence[int]) -> None:
        """Fold one event whose fields (tag first) are ``ints``."""
        width = len(ints)
        if width > len(_RP):
            _RP[:] = [int(p) for p in _powers(_R, width + 1)[1:]]
        z = (width + sum(map(mul, ints, _RP))) & _MASK
        z = ((z ^ (z >> 30)) * _M1) & _MASK
        z = ((z ^ (z >> 27)) * _M2) & _MASK
        self.value = (self.value * _Q + (z ^ (z >> 31))) & _MASK
        self.events += 1

    def fold_table(self, ev: np.ndarray,
                   widths: Optional[np.ndarray] = None) -> None:
        """Fold the events of the rows of the int64 table ``ev``, in row
        order — each row's fields in its hook's order, tag first.

        ``widths`` gives each row's field count when rows are shorter than
        the table (their fields past it must be 0); ``None`` means every
        row is the table's full width.  The same value as one
        :meth:`_fold` per row, computed without a Python loop.
        """
        k, width = ev.shape
        if not k:
            return
        z = ev.view(np.uint64) @ _powers(_R, width + 1)[1:width + 1]
        z += width if widths is None else widths.astype(np.uint64)
        z ^= z >> 30
        z *= _M1
        z ^= z >> 27
        z *= _M2
        z ^= z >> 31
        q = _powers(_Q, k + 1)
        self.value = (self.value * int(q[k]) + int(z @ q[k - 1::-1])) & _MASK
        self.events += k

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
