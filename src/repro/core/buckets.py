"""Buckets and token accounting for hop-by-hop congestion control.

Hop-by-hop (paper Section 3.3.2) assigns every in-flight cell to a *bucket*
``(destination, remaining spraying hops)``.  A cell's eligibility to be sent
is determined by the bucket it *will be assigned at the next hop*; tokens
returned by downstream nodes name that bucket and restore one unit of credit.

This module contains the sender-side credit ledger (:class:`TokenLedger`) and
the small value type for bucket ids.  The ledger implements the token-budget
parameters ``T`` and ``T_F`` of Appendix D: credits are initialised to ``T``
per (neighbour, bucket) pair (``T_F`` for first-hop buckets at the source)
and never exceed that budget.

Deadlock freedom (paper Section 3.3.2, third change) comes from the bucket
partial order: spraying hops strictly decrease the spray index, and direct
hops (index 0) strictly increase the number of matched destination
coordinates, so no credit cycle can form.
"""

from __future__ import annotations

from typing import Dict, Iterable, Tuple

__all__ = ["BucketId", "TokenLedger", "ActiveBucketTracker"]

#: A bucket identifier: (destination node id, remaining spraying hops).
BucketId = Tuple[int, int]


class TokenLedger:
    """Per-node sender-side token credit for hop-by-hop.

    Credit is tracked per ``(neighbour, bucket)`` pair.  The ledger is lazy:
    a pair that has never been charged implicitly holds its full budget,
    which keeps memory proportional to the number of *active* pairs rather
    than ``h * N * neighbours``.

    Args:
        budget: steady-state token budget ``T`` per (neighbour, bucket).
        first_hop_budget: budget ``T_F`` applied to buckets charged for a
            cell's first hop (``charge(..., first_hop=True)``); defaults to
            ``budget``.
    """

    __slots__ = ("budget", "first_hop_budget", "_spent", "_is_first")

    def __init__(self, budget: int = 1, first_hop_budget: int = 0):
        if budget < 1:
            raise ValueError(f"token budget must be >= 1, got {budget}")
        if first_hop_budget < 0:
            raise ValueError("first-hop budget must be >= 0 (0 means 'same as T')")
        self.budget = budget
        self.first_hop_budget = first_hop_budget or budget
        # outstanding (un-returned) tokens per (neighbour, bucket).  Keys are
        # flattened to ``(neighbour, dest, sprays)`` — a flat 3-tuple hashes
        # (and allocates) measurably cheaper than a nested pair on the
        # simulator hot path, which indexes these dicts directly.
        self._spent: Dict[Tuple[int, int, int], int] = {}
        # pairs whose budget is the first-hop budget
        self._is_first: Dict[Tuple[int, int, int], bool] = {}

    def _limit(self, key: Tuple[int, int, int]) -> int:
        return self.first_hop_budget if self._is_first.get(key) else self.budget

    def available(self, neighbor: int, bucket: BucketId,
                  first_hop: bool = False) -> int:
        """Remaining credit for sending ``bucket`` cells via ``neighbor``."""
        key = (neighbor, bucket[0], bucket[1])
        if first_hop and key not in self._spent:
            return self.first_hop_budget
        limit = self.first_hop_budget if (first_hop or self._is_first.get(key)) \
            else self.budget
        return limit - self._spent.get(key, 0)

    def can_send(self, neighbor: int, bucket: BucketId,
                 first_hop: bool = False) -> bool:
        """True when at least one credit remains for (neighbour, bucket)."""
        return self.available(neighbor, bucket, first_hop) > 0

    def charge(self, neighbor: int, bucket: BucketId,
               first_hop: bool = False) -> None:
        """Consume one credit.  Raises ``RuntimeError`` if none remain."""
        key = (neighbor, bucket[0], bucket[1])
        if first_hop:
            self._is_first[key] = True
        limit = self._limit(key) if not first_hop else self.first_hop_budget
        spent = self._spent.get(key, 0)
        if spent >= limit:
            raise RuntimeError(
                f"no token credit for neighbour {neighbor}, bucket {bucket}"
            )
        self._spent[key] = spent + 1

    def credit(self, neighbor: int, bucket: BucketId) -> None:
        """Return one token (from the wire) to (neighbour, bucket)."""
        key = (neighbor, bucket[0], bucket[1])
        spent = self._spent.get(key, 0)
        if spent <= 0:
            # A token for an un-charged pair can only mean protocol confusion;
            # tolerate it (the budget already caps credit) but never go
            # negative, which would inflate the budget.
            return
        if spent == 1:
            del self._spent[key]
            self._is_first.pop(key, None)
        else:
            self._spent[key] = spent - 1

    def reset_neighbor(self, neighbor: int) -> None:
        """Forget every outstanding charge toward ``neighbor``.

        Used by the failure protocol when a link is declared down: the
        tokens owed by the silent neighbour will never return, and without
        this reset the (neighbour, bucket) pairs charged before the failure
        would stay blocked forever once the link re-validates.  Tokens from
        the neighbour that are still in flight are harmless afterwards —
        :meth:`credit` treats a token for an un-charged pair as a no-op.
        """
        stale = [key for key in self._spent if key[0] == neighbor]
        for key in stale:
            del self._spent[key]
            self._is_first.pop(key, None)

    def state(self) -> list:
        """Every recorded pair as a ``(neighbour, dest, sprays, spent,
        first-hop marking)`` row, sorted: the ledger's rows of the plain
        model (:mod:`repro.sim.tables`)."""
        return [(*key, self._spent.get(key, 0), key in self._is_first)
                for key in sorted(self._spent.keys() | self._is_first.keys())]

    def load_state(self, rows) -> None:
        """Restore :meth:`state` rows *in place*.

        The dicts are mutated rather than replaced because the simulator's
        hot path caches direct references to them.
        """
        self._spent.clear()
        self._is_first.clear()
        for neighbor, dest, sprays, spent, first_hop in rows:
            if spent:
                self._spent[neighbor, dest, sprays] = spent
            if first_hop:
                self._is_first[neighbor, dest, sprays] = True

    def outstanding(self) -> int:
        """Total tokens currently spent and awaiting return (diagnostic)."""
        return sum(self._spent.values())

    def outstanding_pairs(self) -> int:
        """Number of (neighbour, bucket) pairs with outstanding tokens."""
        return len(self._spent)


class ActiveBucketTracker:
    """Tracks how many buckets are *active* at a node (paper Section 4.2).

    A bucket is active while it has enqueued cells or outstanding tokens.
    The FPGA prototype only allocates storage for ``A`` active buckets; the
    run's high-water mark of ``len(tracker)`` over every node
    (``MetricsCollector.max_active_buckets``, raised where a bucket turns
    active) feeds the hardware memory model (Fig. 7) and the scalability
    experiment (Fig. 13).
    """

    __slots__ = ("_refcount",)

    def __init__(self) -> None:
        self._refcount: Dict[BucketId, int] = {}

    def acquire(self, bucket: BucketId) -> None:
        """Record one more cell/token referencing ``bucket``."""
        self._refcount[bucket] = self._refcount.get(bucket, 0) + 1

    def release(self, bucket: BucketId) -> None:
        """Drop one reference; bucket goes inactive at zero."""
        count = self._refcount.get(bucket, 0)
        if count <= 1:
            self._refcount.pop(bucket, None)
        else:
            self._refcount[bucket] = count - 1

    def state(self) -> list:
        """``(dest, sprays, count)`` rows, sorted (the tracker's rows of the
        plain model)."""
        return [(*bucket, count)
                for bucket, count in sorted(self._refcount.items())]

    def load_state(self, rows) -> None:
        """Restore :meth:`state` rows in place (the dict is aliased)."""
        self._refcount.clear()
        self._refcount.update(
            ((dest, sprays), count) for dest, sprays, count in rows)

    def __len__(self) -> int:
        """Number of currently active buckets."""
        return len(self._refcount)

    def active_buckets(self) -> Iterable[BucketId]:
        """Iterate the currently active bucket ids."""
        return self._refcount.keys()
