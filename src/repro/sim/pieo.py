"""PIEO (Push-In-Extract-Out) queues.

A PIEO queue (Shrivastav, SIGCOMM 2019) maintains an ordered list of
elements and supports extracting the *first eligible* element, where
eligibility is an arbitrary predicate evaluated at dequeue time.  Shale's
hop-by-hop congestion control stores per-link queues of bucket ids in PIEO
queues so that a cell whose bucket is awaiting tokens does not head-of-line
block cells in other buckets (paper Section 3.3.2, second change).

:class:`PieoQueue` is the primitive's reference model — strict insertion
order among equal-rank elements, first-eligible extraction — with its own
unit and property tests.  The simulator's send queues are plain lists of
cells (``Node.link_queues``): FIFO, or kept in rank order by the bisect in
``Node.enqueue_forward`` under priority ranking, with the rank computed
from the cell; ``Node.transmit``'s scan is the first-eligible extraction.
The occupancy high-water mark the hardware resource model consumes (paper
Fig. 13 reports max PIEO queue length) is the run's, not a queue's: the
enqueue that lengthens a queue raises ``MetricsCollector.max_queue_length``.
"""

from __future__ import annotations

from typing import Callable, Generic, Iterable, List, Optional, TypeVar

__all__ = ["PieoQueue"]

T = TypeVar("T")


class PieoQueue(Generic[T]):
    """An ordered queue supporting first-eligible extraction.

    Elements are ranked by rank, ties in insertion order — exactly the
    behaviour of the hardware priority encoder.  Every push is the newest
    element, so it goes after every element of equal or lower rank and no
    arrival sequence number is needed.
    With the default rank of 0 for every element the queue behaves as a FIFO
    with eligibility filtering.

    Args:
        capacity: optional maximum occupancy; ``push`` raises
            ``OverflowError`` beyond it (models the fixed-size on-chip PIEO
            storage of the FPGA prototype).
    """

    __slots__ = ("_items", "capacity")

    def __init__(self, capacity: Optional[int] = None):
        # (rank, element) entries kept sorted by rank, stable
        self._items: List = []
        self.capacity = capacity

    def __len__(self) -> int:
        return len(self._items)

    def __bool__(self) -> bool:
        return bool(self._items)

    def __iter__(self) -> Iterable[T]:
        return (element for _, element in self._items)

    def push(self, element: T, rank: int = 0) -> None:
        """Insert ``element`` at its rank position (stable among equals)."""
        items = self._items
        if self.capacity is not None and len(items) >= self.capacity:
            raise OverflowError(
                f"PIEO queue full (capacity {self.capacity})"
            )
        entry = (rank, element)
        # the newest element goes after every one of equal or lower rank
        # (bisect-right on rank): a rank no smaller than the tail's is a
        # plain append (the common case), any other a binary search —
        # O(log n) compares + O(n) shift, the "push in" the hardware does
        # in O(1) with a shift register
        if not items or items[-1][0] <= rank:
            items.append(entry)
        else:
            lo, hi = 0, len(items)
            while lo < hi:
                mid = (lo + hi) // 2
                if items[mid][0] <= rank:
                    lo = mid + 1
                else:
                    hi = mid
            items.insert(lo, entry)

    def extract_first_eligible(
        self, eligible: Callable[[T], bool]
    ) -> Optional[T]:
        """Remove and return the first (lowest-rank, oldest) eligible element.

        Returns ``None`` when no element is eligible.  The predicate is
        evaluated in queue order, mirroring the hardware's parallel
        eligibility test followed by a priority encoder.
        """
        items = self._items
        for i, (_, element) in enumerate(items):
            if eligible(element):
                del items[i]
                return element
        return None

    def first_eligible(self, eligible: Callable[[T], bool]) -> Optional[T]:
        """Peek at the first eligible element without removing it."""
        for element in self:
            if eligible(element):
                return element
        return None

    def extract_head(self) -> Optional[T]:
        """Remove and return the head element unconditionally (FIFO pop)."""
        if not self._items:
            return None
        return self._items.pop(0)[1]

    def peek_head(self) -> Optional[T]:
        """Return the head element without removing it."""
        if not self._items:
            return None
        return self._items[0][1]

    def remove(self, element: T) -> bool:
        """Remove the first occurrence of ``element``; True if found."""
        items = self._items
        for i, (_, existing) in enumerate(items):
            if existing == element:
                del items[i]
                return True
        return False

    def remove_if(self, predicate: Callable[[T], bool]) -> List[T]:
        """Remove and return every element matching ``predicate``."""
        kept: List = []
        removed: List[T] = []
        for entry in self._items:
            if predicate(entry[1]):
                removed.append(entry[1])
            else:
                kept.append(entry)
        self._items = kept
        return removed

    def clear(self) -> None:
        """Drop every element."""
        self._items.clear()
