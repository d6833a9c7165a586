"""Coordinate system for Shale / EBS networks.

A Shale network with parameter ``h`` assigns every one of its ``N = r**h``
nodes a unique vector of ``h`` coordinates, each ranging over ``0 .. r-1``
(the paper uses ``1 .. h-th-root-of-N``; we use zero-based digits, which is an
inconsequential relabelling).  Nodes participate in ``h`` round-robin
*phases*; during phase ``p`` a node connects, one neighbour per timeslot, to
each of the ``r - 1`` nodes whose coordinate vector matches its own in all
positions except position ``p``.

This module provides the bidirectional mapping between flat node ids and
coordinate vectors, plus the neighbourhood/phase-group helpers that the
schedule, router and failure machinery are built on.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Sequence, Tuple

__all__ = [
    "CoordinateSystem",
    "integer_root",
    "is_perfect_power",
]

#: process-wide memo of shared immutable instances, keyed by (n, h); see
#: :meth:`CoordinateSystem.shared`
_shared: Dict[Tuple[int, int], "CoordinateSystem"] = {}


def integer_root(n: int, h: int) -> int:
    """Return ``r`` such that ``r**h == n``, or raise ``ValueError``.

    Uses exact integer arithmetic; no floating point rounding surprises even
    for very large ``n``.
    """
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    if h <= 0:
        raise ValueError(f"h must be positive, got {h}")
    if h == 1:
        return n
    # Newton-style search via round() on the float estimate, then verify an
    # exact window around it.
    approx = round(n ** (1.0 / h))
    for candidate in (approx - 1, approx, approx + 1):
        if candidate > 0 and candidate**h == n:
            return candidate
    raise ValueError(f"{n} is not a perfect {h}-th power")


def is_perfect_power(n: int, h: int) -> bool:
    """Return ``True`` when ``n`` is an exact ``h``-th power of an integer."""
    try:
        integer_root(n, h)
    except ValueError:
        return False
    return True


class CoordinateSystem:
    """Mixed-radix (uniform radix ``r``) addressing for an ``N = r**h`` network.

    Node ids are integers ``0 .. N-1``.  The coordinate vector of node ``x``
    is its base-``r`` representation, *most significant digit first*:
    coordinate ``0`` is the highest-order digit.  Phase ``p`` of the schedule
    cycles coordinate ``p``.

    The class is immutable and safe to share between nodes and threads.
    """

    __slots__ = ("h", "r", "n", "_weights")

    def __init__(self, n: int, h: int):
        if h < 1:
            raise ValueError(f"h must be >= 1, got {h}")
        self.h = h
        self.r = integer_root(n, h)
        if self.r < 2:
            raise ValueError(
                f"radix must be >= 2 (need at least 2 nodes per phase group); "
                f"got N={n}, h={h} -> r={self.r}"
            )
        self.n = n
        # _weights[p] is the positional weight of coordinate p.
        self._weights = tuple(self.r ** (h - 1 - p) for p in range(h))

    @classmethod
    def shared(cls, n: int, h: int) -> "CoordinateSystem":
        """The process-wide shared instance for ``(n, h)``.

        The class is immutable, so every engine in a sweep can share one
        table per network size instead of rebuilding it; pre-warming the
        memo in a sweep parent before forking lets worker processes share
        the pages copy-on-write.  Raises ``ValueError`` exactly like the
        constructor for infeasible ``(n, h)``.
        """
        instance = _shared.get((n, h))
        if instance is None:
            instance = _shared.setdefault((n, h), cls(n, h))
        return instance

    # ------------------------------------------------------------------ #
    # basic conversions

    def coords(self, node: int) -> Tuple[int, ...]:
        """Return the coordinate vector of ``node``."""
        if not 0 <= node < self.n:
            raise ValueError(f"node id {node} out of range [0, {self.n})")
        out: List[int] = []
        r = self.r
        for w in self._weights:
            out.append((node // w) % r)
        return tuple(out)

    def node_id(self, coords: Sequence[int]) -> int:
        """Return the flat node id of ``coords``."""
        if len(coords) != self.h:
            raise ValueError(f"expected {self.h} coordinates, got {len(coords)}")
        total = 0
        for c, w in zip(coords, self._weights):
            if not 0 <= c < self.r:
                raise ValueError(f"coordinate {c} out of range [0, {self.r})")
            total += c * w
        return total

    def coordinate(self, node: int, p: int) -> int:
        """Return coordinate ``p`` of ``node`` without building the full tuple."""
        return (node // self._weights[p]) % self.r

    def with_coordinate(self, node: int, p: int, value: int) -> int:
        """Return the node id equal to ``node`` but with coordinate ``p`` set."""
        if not 0 <= value < self.r:
            raise ValueError(f"coordinate value {value} out of range [0, {self.r})")
        w = self._weights[p]
        old = (node // w) % self.r
        return node + (value - old) * w

    # ------------------------------------------------------------------ #
    # neighbourhood structure

    def phase_neighbors(self, node: int, p: int) -> List[int]:
        """All nodes matching ``node`` in every coordinate except ``p``.

        These are exactly the nodes ``node`` connects to over the course of
        phase ``p`` (``r - 1`` of them).
        """
        me = self.coordinate(node, p)
        w = self._weights[p]
        base = node - me * w
        return [base + v * w for v in range(self.r) if v != me]

    def phase_group(self, node: int, p: int) -> List[int]:
        """The full round-robin group of ``node`` in phase ``p`` (includes it)."""
        me = self.coordinate(node, p)
        w = self._weights[p]
        base = node - me * w
        return [base + v * w for v in range(self.r)]

    def all_neighbors(self, node: int) -> List[int]:
        """Every node reachable from ``node`` in a single hop (all phases)."""
        out: List[int] = []
        for p in range(self.h):
            out.extend(self.phase_neighbors(node, p))
        return out

    def neighbor_at_offset(self, node: int, p: int, k: int) -> int:
        """The phase-``p`` neighbour whose coordinate ``p`` is ``own + k (mod r)``.

        ``k`` must be in ``1 .. r-1``; offset 0 would be the node itself.
        """
        if not 1 <= k < self.r:
            raise ValueError(f"offset {k} out of range [1, {self.r})")
        me = self.coordinate(node, p)
        return self.with_coordinate(node, p, (me + k) % self.r)

    def neighbor_table(self, node: int) -> Tuple[int, ...]:
        """Flat neighbour lookup table for ``node``, all phases at once.

        Entry ``p * (r - 1) + (k - 1)`` is the phase-``p`` neighbour at
        round-robin offset ``k`` — the layout the per-node send queues use,
        so ``table[link_index]`` resolves a link's peer in one index.

        Digit arithmetic, one phase at a time: the phase-``p`` neighbours
        at offsets ``1 ..`` are ``node + w``, ``node + 2w``, ... up to the
        top of the phase group, then wrap to its base (``w`` is the
        coordinate's weight) — the entries :meth:`neighbor_at_offset`
        gives one by one.
        """
        r = self.r
        out: List[int] = []
        for w in self._weights:
            base = node - (node // w) % r * w
            out += range(node + w, base + r * w, w)
            out += range(base, node, w)
        return tuple(out)

    def offset_to(self, node: int, p: int, other: int) -> int:
        """Inverse of :meth:`neighbor_at_offset` — offset from node to other.

        ``other`` must be a phase-``p`` neighbour of ``node``.
        """
        mine = self.coordinate(node, p)
        theirs = self.coordinate(other, p)
        k = (theirs - mine) % self.r
        if k == 0 or self.with_coordinate(node, p, theirs) != other:
            raise ValueError(
                f"{other} is not a phase-{p} neighbour of {node}"
            )
        return k

    def mismatched_phases(self, node: int, dest: int) -> List[int]:
        """Phases in which ``node`` and ``dest`` differ (direct hops needed)."""
        return [
            p for p in range(self.h)
            if self.coordinate(node, p) != self.coordinate(dest, p)
        ]

    def distance(self, node: int, dest: int) -> int:
        """Hamming distance in coordinate space == minimum direct-hop count."""
        return len(self.mismatched_phases(node, dest))

    # ------------------------------------------------------------------ #
    # iteration / dunder helpers

    def nodes(self) -> Iterator[int]:
        """Iterate all node ids."""
        return iter(range(self.n))

    def label(self, node: int) -> str:
        """Human-readable letter label in the style of the paper (AA, BA, ...)."""
        letters = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
        if self.r > len(letters):
            return ",".join(str(c) for c in self.coords(node))
        return "".join(letters[c] for c in self.coords(node))

    def __repr__(self) -> str:  # pragma: no cover - debug convenience
        return f"CoordinateSystem(n={self.n}, h={self.h}, r={self.r})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, CoordinateSystem)
            and other.n == self.n
            and other.h == self.h
        )

    def __hash__(self) -> int:
        return hash((self.n, self.h))
