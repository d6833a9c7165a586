"""The vectorized numpy slot stepper.

Instead of one Python object pipeline per node per slot, this backend keeps
the whole network's mutable hot state in flat integer columns and advances
every node in a timeslot with a handful of array operations:

* **cell slab** — one record per live cell: a row of the plain model's
  ``cells`` table, i.e. :meth:`~repro.core.cell.Cell.state`, so a hop
  reads and writes one record (nine int32 fields, 36 B), not one entry in
  each of nine columns.  Every field fits 32 bits for any run the slab
  accepts; a run that would write a value past them (a slot, a flow's
  cell count or a flow id at ``2**31``) is declined, never wrapped.  A
  separate intp ``nxt`` column threads cells into per-(node, link) FIFO
  linked lists, each as long as its length says (the queue ``head`` /
  ``tail`` / ``qlen`` columns are ``(L, n)`` arrays, one row per link
  index; the PIEO high-water mark is one per node).  Rows come off a
  LIFO free stack of recycled rows, topped up from a bump pointer over
  rows never used, so a live cell costs its record and its ``nxt``:
  44 B.  No record holds a cell's next spray phase: every cell of a wire
  batch left in the same slot, so the batch carries it once (the send
  slot's phase plus one).
* **flow cursors** — per node, the record of the next cell its currently
  emitting flow admits (the flow's id, dst, sent and size are its columns),
  with the waiting flows in per-node Python lists; the flows in flight's
  delivered counts (:class:`_Delivered`) detect completions by array
  compare against the records' flow size instead of per-cell updates.
* **wire** — in-flight transmissions as per-arrival-slot batches of
  (senders, slab rows, receivers) arrays; the send order within a batch is
  node-id order, exactly the FIFO order the object wire produces.
* **next hop** — arithmetic on node ids, which are EBS's mixed-radix
  coordinates: the same rule at every ``n``, and no lookup table larger
  than ``O(L * n)``.

The backend is *bit-exact* with the object pipeline for the states it
accelerates, including RNG consumption: spraying draws are CPython's
``randrange(1, r)`` rejection loop, which the stepper reproduces by
mirroring the engine's Mersenne Twister into ``numpy.random.MT19937``
(word-for-word the same generator), bulk-generating raw 32-bit words, and
applying the same top-``bits`` / reject-``>= r-1`` rule — the k-th accepted
word *is* the k-th draw.  After every ``advance`` the engine's
``random.Random`` is resynchronised by replaying exactly the words consumed
since the previous sync, so object-mode code continues the identical stream.

The packed run *is* the engine's state between ``advance`` calls: each call
ends with a sync of everything that is not a node or a transmission and
parks the run on the engine (:meth:`Engine._park`), the next call continues
on the same columns, and the object model is built only when something
reads ``engine.nodes`` or the wire.  Columns and objects never meet: the
run packs from, and exports, the plain model's integer tables
(:mod:`repro.sim.tables`) — slices in, gathers out, no per-cell object —
which ``Engine._materialize`` alone turns into objects.

Shortest-queue spraying (``spray-short``) is a different spraying choice on
the same columns; the hop-by-hop token protocol adds its own
(:mod:`repro.sim.backends.token_slab`).  Anything outside the fast path —
the isd/rd/ndp/priority machinery, token budgets other than one, non-vlb
routing, failure state, attached monitors/tracers/hooks — falls back to the
reference loop (:func:`repro.sim.backends.object_backend.advance`),
keeping every configuration correct at the cost of speed.  Eligibility is
decided once per ``advance`` call: without a failure manager attached, no
mid-run event can create failure state, so an eligible segment stays
eligible.
"""

from __future__ import annotations

import mmap
import random
from collections import deque
from itertools import takewhile
from typing import List, Optional

import numpy as np

from .. import tables
from . import EngineBackend, register_backend
from .object_backend import advance as advance_reference

__all__ = ["VectorBackend"]

#: a slab record is one ``cells`` table row; its fields are read through
#: these column views
_FIELDS = {
    "c_src": "src", "c_dst": "dst", "c_fid": "flow_id", "c_seq": "seq",
    "c_sprays": "sprays_remaining", "c_prev": "prev_hop",
    "c_created": "created_at", "c_fsize": "flow_size", "c_hops": "hops",
}
_WIDTH = len(tables.TABLES["cells"])
_SRC, _DST, _FID, _SEQ, _SPRAYS, _PREV, _CREATED, _FSIZE, _HOPS = (
    tables.col("cells", field) for field in _FIELDS.values())
_LEN = tables.col("queues", "len")

_EV_DELIVERY = 1  # DeterminismDigest delivery tag (see repro.sim.digest)
#: record fields of a delivery event, in on_delivery order (flow id, seq,
#: src, dst, hops); the event is [tag, *fields, t]
_DELIVERY_FIELDS = np.array([_FID, _SEQ, _SRC, _DST, _HOPS])
_DELIVERY_WIDTH = 2 + _DELIVERY_FIELDS.size

#: digest rows a run collects before folding them in one ``fold_table``
#: call (the rest fold at every sync)
_DIGEST_BLOCK = 4096


#: what ``pack()`` reports when a transmission's header carries state
#: the column layout has no field for
_HEADERS = "queued cells carry non-vectorizable headers"

#: most raw words one ``random_raw`` call of the RNG replay generates: the
#: replay's memory is this block (8 bytes a word), whatever the run drew
_REPLAY_BLOCK = 1 << 16


#: a slab record field holds values below this (int32)
_NARROW = 1 << 31

#: bytes of an old array :func:`_regrow` copies before it hands them back
_GROW_BLOCK = 1 << 20


def _pages(shape, dtype=np.int64) -> np.ndarray:
    """A zeroed array on a private anonymous mapping of its own.

    The slab's per-cell arrays, its token FIFO block and its n² tracker
    come from here, never from malloc: glibc raises its mmap threshold to
    the size of any mapped block freed (a doubling, a dropped run), then
    serves blocks that size from the heap, zeroed by a memset that makes
    every page resident, and keeps their pages after they die.  These
    pages are resident only once written, copy-on-write across a fork
    (private, never ``MAP_SHARED``), and unmapped with the last view.
    """
    dtype = np.dtype(dtype)
    count = int(np.prod(shape))
    pages = mmap.mmap(-1, count * dtype.itemsize,
                      flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
    return np.frombuffer(pages, dtype, count).reshape(shape)


def _regrow(old: np.ndarray, shape, lo: int, hi: int) -> np.ndarray:
    """A :func:`_pages` array of ``shape`` (no shorter, no narrower than
    ``old``) holding ``old``'s rows ``[lo, hi)``, the rest zero.

    The rows move ``_GROW_BLOCK`` bytes at a time, and each block's pages
    go back to the kernel (``MADV_DONTNEED``) as soon as it is copied, so
    the two arrays are never both resident: a growth costs one block over
    the new array's rows, where a whole-array copy cost the old array.
    ``old`` reads zero there afterwards; the caller drops it.
    """
    new = _pages(shape, old.dtype)
    view = old
    while isinstance(view, np.ndarray):
        view = view.base
    pages = view.obj  # np.frombuffer's memoryview of the mapping
    row = old.strides[0]
    step = max(1, _GROW_BLOCK // row)
    cols = tuple(slice(0, width) for width in old.shape[1:])
    page = mmap.PAGESIZE
    released = lo * row // page * page
    for start in range(lo, hi, step):
        stop = min(start + step, hi)
        new[(slice(start, stop), *cols)] = old[start:stop]
        # whole pages only: the page the next block starts on stays
        end = stop * row // page * page
        if end > released:
            pages.madvise(mmap.MADV_DONTNEED, released, end - released)
            released = end
    return new


class _Delivered:
    """The cells delivered so far of every flow in flight: flow ids
    ``ids[:held]`` ascending, their counts beside them.  A flow joins when
    it starts (or when the run packs), above every id held, so joining is
    an append; its count turns -1 at its last cell, and the rows marked so
    go when the columns next fill, which then hold at most twice the flows
    in flight, whatever ids the run has issued."""

    __slots__ = ("ids", "counts", "held")

    def __init__(self, pairs=()) -> None:
        """Start from ``(flow id, cells delivered)`` pairs."""
        pairs = sorted(pairs)
        self.held = len(pairs)
        block = np.zeros((2, max(64, 2 * self.held)), dtype=np.int64)
        block[:, :self.held] = np.reshape(pairs, (-1, 2)).T
        self.ids, self.counts = block

    def add(self, fid: int) -> None:
        """Count the new flow ``fid`` from zero."""
        if self.held == self.ids.size:
            self.__init__(self.items())
        self.ids[self.held] = fid
        self.held += 1

    def deliver(self, fids: np.ndarray, sizes: np.ndarray) -> np.ndarray:
        """Count one more cell of each flow of ``fids`` (distinct ids held:
        a batch delivers at most one cell per receiver) and end the flows
        whose count reaches ``sizes``; returns that mask."""
        held, first = self.held, int(self.ids[0])
        if int(self.ids[held - 1]) - first == held - 1:
            # no id missing (a permutation): the row is the offset, where
            # the search reads bulk_permutation 12 % slower (DESIGN §5)
            at = fids - first
        else:
            at = self.ids[:held].searchsorted(fids)
        counts = self.counts[at] + 1
        self.counts[at] = counts
        done = counts >= sizes
        if np.count_nonzero(done):
            self.counts[at[done]] = -1
        return done

    def items(self) -> List[tuple]:
        """``(flow id, cells delivered)`` of the flows in flight, by id."""
        live = self.counts[:self.held] >= 0
        return list(zip(self.ids[:self.held][live].tolist(),
                        self.counts[:self.held][live].tolist()))


class _Decline(Exception):
    """Raised inside ``pack()`` helpers: the state cannot be packed."""


def _narrow_reason(engine, end: int) -> Optional[str]:
    """Why advancing ``engine`` to slot ``end`` could write a value a slab
    record cannot hold, or None: every record field is 32 bits, so a slot
    (``created_at``), a flow's cell count (``flow_size``, ``seq``) or a
    flow id at ``2**31`` or past is declined, never wrapped.  Reads the
    active flows and the arrivals before ``end``: the flows the advance
    can emit cells of."""
    if end >= _NARROW:
        return f"end slot {end} does not fit a 32-bit slab record"
    flows = engine.flows
    arriving = [size_cells for arrival, _, _, size_cells, _
                in takewhile(lambda flow: flow[0] < end,
                             engine._pending_flows)]
    largest = max(arriving + [flow.size_cells
                              for flow in flows._active.values()],
                  default=0)
    if largest >= _NARROW:
        return f"a flow of {largest} cells does not fit a 32-bit slab record"
    last = flows._next_id + len(arriving) - 1
    if last >= _NARROW:
        return f"flow id {last} does not fit a 32-bit slab record"
    return None


def _fast_ineligible_reason(engine):
    """Why the slab cannot run this engine state, or None if it can.

    Per-header conditions (failure tokens, control sidecars) are verified
    during packing; this covers everything visible without walking the
    wire.  The reason string
    is recorded as ``Engine.backend_reason`` and feeds the
    de-acceleration notice, so it names the feature that forced the
    reference pipeline.
    """
    cfg = engine.config
    cc = cfg.congestion_control
    hbh = cfg.uses_hop_by_hop
    if cc != "none" and not (hbh or cfg.uses_spray_short):
        return f"congestion_control={cc!r}"
    if hbh:
        if cfg.token_budget != 1 or cfg.first_hop_token_budget not in (0, 1):
            return (f"token_budget={cfg.token_budget}, "
                    f"first_hop_token_budget={cfg.first_hop_token_budget}")
        if cfg.use_fifo_for_hbh:
            return "use_fifo_for_hbh=True"
    if cfg.routing != "vlb":
        return f"routing={cfg.routing!r}"
    if engine.failure_manager is not None:
        return "failure manager attached"
    if engine.monitor is not None:
        return "monitor attached"
    if engine.tracer is not None:
        return "tracer attached"
    if engine.delivery_hook is not None:
        return "delivery hook attached"
    if engine.force_full_scan:
        return "force_full_scan=True"
    if engine.failed_links:
        return "failed links present"
    if type(engine.rng) is not random.Random:
        return "non-standard RNG"
    floor = VectorBackend.TOKEN_SLAB_MIN_N
    if cc != "none" and cfg.n < floor:
        return f"n={cfg.n} below the token-slab size floor ({floor})"
    # state no column holds; an engine that has not left the slab (or not
    # run at all) has no node to carry any
    node = engine._reference_only_node()
    if node is not None:
        return f"node {node} carries non-vectorizable state"
    return None


class _SlabTables:
    """The slab's read-only lookup tables for one ``(schedule, n, h)``.

    Derived from the coordinate system by array arithmetic, exactly as
    ``CoordinateSystem.neighbor_table`` derives each node's — no node need
    exist.  Every table is ``O(L * n)`` (≈ 1 ms and 1.5 MB at n=1296, plus
    ≈ 3 ms and 1.5 MB for :attr:`links`), so each run builds its own and
    they go with it; the next hop is none of them
    (:meth:`_VectorRun._next_hops` computes it from node ids).

    Attributes:
        peer: ``(L, n)``; ``peer[l, i]`` is node ``i``'s neighbour on link
            ``l = phase * (r - 1) + offset - 1``.
        link_table: the link every node transmits on, per slot of the epoch.
    """

    def __init__(self, schedule, coords) -> None:
        n, h, r = coords.n, coords.h, coords.r
        ids = np.arange(n, dtype=np.int64)
        offsets = np.arange(1, r, dtype=np.int64)[:, None]
        blocks = []
        for p in range(h):
            weight = r ** (h - 1 - p)
            digit = (ids // weight) % r
            blocks.append(ids + ((digit + offsets) % r - digit) * weight)
        self.peer = np.concatenate(blocks)
        self.link_table = [
            phase * (r - 1) + offset - 1
            for phase, offset in zip(schedule.phase_table,
                                     schedule.offset_table)
        ]
        self._links = None

    @property
    def links(self):
        """Who sits at the far end of every link, both ways (hop-by-hop
        token return runs against the direction cells travel).

        ``(peer, back, pair_key, pair_link)``: ``back[l]`` is the link on
        which the neighbour on link ``l`` reaches back (None when the
        schedule's links do not pair up uniformly); ``pair_key`` /
        ``pair_link`` map a sorted ``node * n + neighbour`` key to the
        link joining them.
        """
        if self._links is None:
            peer = self.peer
            links, n = peer.shape
            ids = np.arange(n, dtype=np.int64)
            key = (ids * n + peer).reshape(-1)
            order = key.argsort()
            pair_key = key[order]
            pair_link = np.repeat(
                np.arange(links, dtype=np.int64), n
            )[order]
            # the link peer[l, 0] uses to reach node 0, checked for all i
            back = pair_link[np.minimum(
                np.searchsorted(pair_key, peer[:, 0] * n), key.size - 1
            )]
            if not (peer[back[:, None], peer] == ids).all():
                back = None
            self._links = (peer, back, pair_key, pair_link)
        return self._links


class _VectorRun:
    """One packed stretch of vector stepping over a single engine.

    Built and packed by :meth:`VectorBackend._step`, advanced by
    :meth:`advance` — any number of times: between calls the run is the
    engine's state, :meth:`sync` having written back everything that is
    not a node or a transmission — and read back as plain data by
    :meth:`export_model` when a snapshot or the object model needs it.
    ``tables`` is the :class:`_SlabTables` of the engine's size.
    """

    def __init__(self, engine, tables):
        self.engine = engine
        cfg = engine.config
        coords = engine.coords
        self.n = cfg.n
        self.h = cfg.h
        self.hm1 = cfg.h - 1
        self.r = coords.r
        self.rm1 = self.r - 1
        self.L = self.h * self.rm1
        self.delay = cfg.propagation_delay
        self.peer = tables.peer
        self.link_table = tables.link_table
        schedule = engine.schedule
        self.epoch = schedule.epoch_length
        self.phase_table = schedule.phase_table
        # spraying draw constants: randrange(1, r) = 1 + rejection-sampled
        # getrandbits((r-1).bit_length()) accepted below r-1
        self.spray_bits = self.rm1.bit_length()
        self.spray_shift = 32 - self.spray_bits
        # flat digit table, indexed ``p * n + x``: digit ``p`` (weight
        # ``r**(h-1-p)``) of node coordinate ``x`` (one cheap gather
        # instead of a floordiv + mod per cell in the h >= 3 next-hop scan)
        ids = np.arange(self.n, dtype=np.int64)
        self.digits = np.concatenate(
            [(ids // self.r ** (self.h - 1 - p)) % self.r
             for p in range(self.h)]
        )
        if self.h == 2:
            self._hop2 = self._direct_links2()
        # queue columns, one row per link index (plus flat aliases for the
        # RX scatter, which addresses queues as ``link * n + node``).
        # Queues are sentinel-headed, length-delimited linked lists: slab
        # rows [0, L*n) are reserved as one sentinel per queue, whose
        # ``c_nxt`` entry IS the queue's head pointer, and ``q_tail`` holds
        # the last cell's row or the queue's own sentinel (== its flat
        # index) when empty — so an append is an unconditional ``nxt[tail]
        # = cell`` with no empty/non-empty split.  ``q_len`` alone says
        # where a list ends: the last cell's ``nxt`` (and an empty queue's
        # head) is whatever it was, and nothing reads it
        self.Ln = self.L * self.n
        self.q_tail = np.arange(self.Ln, dtype=np.int64).reshape(
            self.L, self.n
        )
        self.q_len = np.zeros((self.L, self.n), dtype=np.int64)
        self.qf_tail = self.q_tail.reshape(-1)
        self.qf_len = self.q_len.reshape(-1)
        # per-node occupancy totals are derived from q_len on demand (at
        # sample windows and export), not maintained per slot
        # flow cursors + waiting lists.  A node's cursor is the record of
        # the next cell its cursor flow emits, all but ``created_at``:
        # the flow's columns (dst, id, sent as the next seq, size) are
        # views of it, and the rest is constant (src = prev hop = the
        # node, ``h-1`` sprays, one hop).  int32 like the slab's records,
        # so an emission stores them without a cast
        self.has_flow = np.zeros(self.n, dtype=bool)
        self._cursor = np.zeros((self.n, _WIDTH), dtype=np.int32)
        self._cursor[:, _SRC] = self._cursor[:, _PREV] = ids
        self._cursor[:, _SPRAYS] = self.hm1
        self._cursor[:, _HOPS] = 1
        self.cur_fid = self._cursor[:, _FID]
        self.cur_dst = self._cursor[:, _DST]
        self.cur_sent = self._cursor[:, _SEQ]
        self.cur_size = self._cursor[:, _FSIZE]
        self.cur_flow: List[Optional[object]] = [None] * self.n
        self.waiting: List[deque] = [deque() for _ in range(self.n)]
        # cells delivered per flow in flight, for completions
        self.delivered = _Delivered()
        # the wire: (arrival, senders, slab rows, receivers) per send slot
        self.batches: deque = deque()
        # scratch: the cell each node sends this slot, by node id
        self._cell_of = np.empty(self.n, dtype=np.int64)
        # digest rows waiting to be folded, in event order, each zero
        # past its width: a delivery's [tag, flow id, seq, src, dst,
        # hops, t], or a subclass's wider events
        self._events_buf = np.zeros(
            (_DIGEST_BLOCK + self.n, self._event_width()), dtype=np.int64)
        self._events_widths = np.empty(len(self._events_buf),
                                       dtype=np.int64)
        self._events_held = 0
        # RNG mirror state (filled by _mirror_rng).  One run draws through
        # exactly one of two cursors over the mirrored word stream: uniform
        # spraying pre-filters bulk words at a fixed bit width (_draw);
        # shortest-queue tie-breaks replay ``randrange(count)`` word by
        # word, because the width is ``count.bit_length()`` per draw
        # (_draw_ties).  Both leave ``words_consumed`` at the number of
        # 32-bit words the object pipeline would have drawn since
        # ``rng_prestate``, which every sync moves up to the engine's RNG.
        self.rng_prestate = None
        self.rng_synced = None      # engine.rng.getstate() at rng_prestate
        self.bg = None
        self._reset_draws()
        self._spray_short = cfg.uses_spray_short
        if self._spray_short:
            # per phase, its r-1 rows of queue lengths (a view)
            self._phase_lens = self.q_len.reshape(self.h, self.rm1, self.n)
            # ``randrange(count)`` takes the top ``count.bit_length()``
            # bits of a 32-bit word: the shift, per tie count
            self._tie_shift = [32 - count.bit_length()
                               for count in range(self.r)]

    def _direct_links2(self):
        """The h=2 direct hop as one gather per cell: per spray phase, the
        link toward the destination, indexed by ``_hop_to[dst] -
        _hop_at[node]``, which encodes both digit differences ``(d0, d1)``
        (node ``x`` has digits ``(x // r, x % r)``).  The phase is the
        batch phase unless its digit already matches (the other then
        cannot: the cell is not home), and phase 1 only while the first
        digit matches."""
        r = self.r
        ids = np.arange(self.n, dtype=np.int64)
        self._hop_at = (ids // r) * (2 * r) + ids % r
        self._hop_to = self._hop_at + 2 * r * r + r
        d0, d1 = (d - r for d in np.divmod(np.arange(4 * r * r), 2 * r))
        return [np.where((d1 == 0) | ((d0 != 0) & (esph == 0)),
                         d0 % r - 1, self.rm1 + d1 % r - 1)
                for esph in (0, 1)]

    # ------------------------------------------------------------------ #
    # slab management

    def _init_slab(self, count: int) -> None:
        cap = self.Ln + max(1024, 2 * (count + self.n))
        self.cap = cap
        # one (row, field) block of int32 records plus the intp list
        # pointers; rows [0, Ln) are the queue sentinels, which use only
        # ``c_nxt``, so their records are never written, never resident
        self._slab = _pages((cap, _WIDTH), np.int32)
        self.c_nxt = _pages(cap)
        self._bind_columns()
        # recycled rows, LIFO; rows from ``bump`` on were never used, and
        # no page of them is touched before the stack runs short and takes
        # them, a slot's worth at a time
        self.free = _pages(cap)
        self.free_top = 0
        self.bump = self.Ln

    def _bind_columns(self) -> None:
        """Point the ``c_*`` column views and ``heads2d`` at the slab."""
        for name, field in _FIELDS.items():
            setattr(self, name, self._slab[:, tables.col("cells", field)])
        self.heads2d = self.c_nxt[: self.Ln].reshape(self.L, self.n)

    def _grow_slab(self, rows: int) -> None:
        """Double the per-cell arrays until ``rows`` rows fit, moving only
        the rows in use (:func:`_regrow`): records ``[Ln, bump)`` — the
        sentinels' are never written — pointers ``[0, bump)`` and the
        free stack."""
        cap = self.cap * 2
        while cap < rows:
            cap *= 2
        self._slab = _regrow(self._slab, (cap, _WIDTH), self.Ln, self.bump)
        self.c_nxt = _regrow(self.c_nxt, cap, 0, self.bump)
        self._bind_columns()
        self.free = _regrow(self.free, cap, 0, self.free_top)
        self.cap = cap

    def _alloc(self, k: int) -> np.ndarray:
        """``k`` slab rows for new cells, off the free stack.  A stack that
        runs short takes rows never used off the bump pointer first — at
        least a slot's worth (``n``), so the next allocations pop."""
        top = self.free_top
        if top < k:
            lo = self.bump
            hi = lo + max(k - top, self.n)
            if hi > self.cap:
                self._grow_slab(hi)
            self.free[top:top + hi - lo] = np.arange(lo, hi)
            top += hi - lo
            self.bump = hi
        self.free_top = top - k
        return self.free[top - k:top].copy()

    def _free_cells(self, ids: np.ndarray) -> None:
        m = ids.size
        self.free[self.free_top : self.free_top + m] = ids
        self.free_top += m

    # ------------------------------------------------------------------ #
    # digest rows: every event of a run goes into one buffer, in the order
    # the object pipeline folds them, and is folded a block at a time

    def _event_width(self) -> int:
        """Fields of this stepper's widest digest event."""
        return _DELIVERY_WIDTH

    def _events(self, k: int, width) -> np.ndarray:
        """The next ``k`` digest rows, ``width`` fields each (one int, or
        one per row), for the caller to fill.  They come zeroed past a
        delivery's width, so a delivery writes its own fields only and a
        wider event writes all of them.  Folds the held rows first once
        they make a block."""
        held = self._events_held
        if held >= _DIGEST_BLOCK:
            self._fold_events()
            held = 0
        self._events_held = held + k
        self._events_widths[held:held + k] = width
        return self._events_buf[held:held + k]

    def _fold_events(self) -> None:
        """Fold the held digest rows, in order, into the engine's digest."""
        held = self._events_held
        if held:
            self.engine.digest.fold_table(self._events_buf[:held],
                                          self._events_widths[:held])
            self._events_buf[:held, _DELIVERY_WIDTH:] = 0
            self._events_held = 0

    # ------------------------------------------------------------------ #
    # RNG mirror

    def _reset_draws(self) -> None:
        """Empty both draw cursors: nothing generated, nothing consumed."""
        self.acc_vals = np.empty(0, dtype=np.int64)
        self.acc_end = np.empty(0, dtype=np.int64)
        self.acc_pos = 0
        self.raw: List[int] = []
        self.raw_pos = 0
        self.words_generated = 0
        self.words_consumed = 0

    def _mirror_rng(self) -> None:
        state = self.engine.rng.getstate()
        if state[0] != 3:
            raise _Decline(f"RNG state version {state[0]} is not MT19937")
        if state[2] is not None:
            raise _Decline("RNG holds a cached gauss() value")
        key = state[1]
        self.rng_prestate = {
            "bit_generator": "MT19937",
            "state": {
                "key": np.array(key[:-1], dtype=np.uint32),
                "pos": int(key[-1]),
            },
        }
        self.rng_synced = state
        self.bg = np.random.MT19937()
        self.bg.state = self.rng_prestate
        self._reset_draws()

    def _refill(self, k: int) -> None:
        m = max(8192, 4 * k)
        words = self.bg.random_raw(m)
        vals = (words >> np.uint64(self.spray_shift)).astype(np.int64) \
            if words.dtype == np.uint64 \
            else (words >> self.spray_shift).astype(np.int64)
        idx = np.flatnonzero(vals < self.rm1)
        pos = self.acc_pos
        self.acc_vals = np.concatenate([self.acc_vals[pos:], vals[idx]])
        self.acc_end = np.concatenate(
            [self.acc_end[pos:],
             self.words_generated + idx.astype(np.int64) + 1]
        )
        self.acc_pos = 0
        self.words_generated += m

    def _draw(self, k: int) -> np.ndarray:
        """The next ``k`` accepted spraying values, in stream order."""
        while self.acc_vals.size - self.acc_pos < k:
            self._refill(k)
        pos = self.acc_pos
        out = self.acc_vals[pos : pos + k]
        self.acc_pos = pos + k
        self.words_consumed = int(self.acc_end[pos + k - 1])
        return out

    def _draw_ties(self, counts: List[int]) -> List[int]:
        """``randrange(count)`` for each tied ``count > 1``, in stream
        order (0, and no draw, for a unique minimum).

        CPython's ``_randbelow`` draws ``count.bit_length()`` bits — the
        top bits of one 32-bit word — until the value fits, so every
        attempt costs one word whatever the width.  A batch that runs
        past the words generated so far is drawn again, from its first
        word, over a longer list.
        """
        shifts = self._tie_shift
        while True:
            words = self.raw
            pos = self.raw_pos
            out = []
            append = out.append
            try:
                for count in counts:
                    if count == 1:
                        append(0)
                        continue
                    shift = shifts[count]
                    v = words[pos] >> shift
                    pos += 1
                    while v >= count:
                        v = words[pos] >> shift
                        pos += 1
                    append(v)
            except IndexError:
                pos = self.raw_pos
                self.raw = words[pos:] + self.bg.random_raw(4096).tolist()
                self.words_generated += pos
                self.raw_pos = 0
                continue
            self.raw_pos = pos
            self.words_consumed = self.words_generated + pos
            return out

    def _sync_rng(self) -> None:
        """Advance the engine's Random past the words the stepper consumed
        and re-base the mirror there: a sync replays only the words drawn
        since the previous one, a block at a time."""
        consumed = self.words_consumed
        if not consumed:
            return
        bg = np.random.MT19937()
        bg.state = self.rng_prestate
        for start in range(0, consumed, _REPLAY_BLOCK):
            bg.random_raw(min(_REPLAY_BLOCK, consumed - start))
        self.rng_prestate = bg.state
        state = self.rng_prestate["state"]
        self.rng_synced = (
            3, tuple(state["key"].tolist()) + (int(state["pos"]),), None
        )
        self.engine.rng.setstate(self.rng_synced)
        # both cursors count words from rng_prestate
        self.acc_vals = self.acc_vals[self.acc_pos:]
        self.acc_end = self.acc_end[self.acc_pos:] - consumed
        self.acc_pos = 0
        self.words_generated -= consumed
        self.words_consumed = 0

    # ------------------------------------------------------------------ #
    # pack / resume / sync / export

    def pack(self, model) -> Optional[str]:
        """Slice ``model`` (the plain model's tables; None for an engine
        that never ran, which packs as tables with no row) into columns;
        None on success, else the reason the state cannot be packed.  The
        model is only read, so a decline leaves the engine untouched."""
        if model is None:
            model = tables.model({})
        try:
            self._init_slab(len(model["cells"]))
            nid = self._pack_wire(model, self._pack_nodes(model))
        except _Decline as declined:
            return str(declined)
        self.delivered = _Delivered(
            (fid, flow.delivered)
            for fid, flow in self.engine.flows._active.items())
        # rows from here on were never used
        self.bump = nid
        return None

    def resume(self, engine, end: int) -> Optional[str]:
        """Ready the run for an ``advance`` on ``engine`` to slot ``end`` —
        a new run before it packs, a parked one before it continues; None,
        or the reason it cannot step: a value the advance would write that
        a record cannot hold (:func:`_narrow_reason`), or an RNG it cannot
        mirror.  Everything else the stepper uses of the engine it reads
        afresh each call, so only an ``engine.rng`` that moved since the
        last sync (or was never mirrored) needs work: a new mirror."""
        self.engine = engine
        reason = _narrow_reason(engine, end)
        if reason is not None:
            return reason
        if engine.rng.getstate() != self.rng_synced:
            try:
                self._mirror_rng()
            except _Decline as declined:
                return str(declined)
        return None

    def sync(self) -> None:
        """Write back everything that is not a node or a transmission, so
        every engine-level attribute reads as after an object run: the
        digest rows still held, flow cursors and delivery counts, and the
        RNG (``engine.t``, the counters and the flow table are kept current
        by the slot loop itself).  Incremental: a second sync is free."""
        self._fold_events()
        engine = self.engine
        sent = self.cur_sent.tolist()
        for i in self.has_flow.nonzero()[0].tolist():
            self.cur_flow[i].sent = sent[i]
        active = engine.flows._active
        for fid, count in self.delivered.items():
            active[fid].delivered = count
        self._sync_rng()

    def _load_cells(self, cells: np.ndarray, nid: int) -> int:
        """Rows of the ``cells`` table into slab records ``nid`` on, as
        they are; returns the next free row."""
        end = nid + len(cells)
        self._slab[nid:end] = cells
        return end

    def _pack_nodes(self, model) -> int:
        """Queues and flow cursors of every node; returns the next free
        slab row (queued cells occupy rows from ``Ln`` on, in the tables'
        node-major, link-minor, FIFO order)."""
        first = self.Ln  # cell rows start past the queue sentinels
        lens = model["queues"][:, _LEN]
        nid = self._load_cells(model["cells"][:lens.sum()], first)
        self._thread_queues(first, lens, 0)
        # the cursors hold Flow objects: a node's first unfinished flow is
        # its cursor, the rest wait in list order
        lookup = self.engine.flows.get
        for i, fid in model["local_flows"].tolist():
            flow = lookup(fid)
            if flow is None or flow.sent >= flow.size_cells:
                continue
            if self.has_flow[i]:
                self.waiting[i].append(flow)
            else:
                self.has_flow[i] = True
                self.cur_fid[i] = fid
                self.cur_dst[i] = flow.dst
                self.cur_sent[i] = flow.sent
                self.cur_size[i] = flow.size_cells
                self.cur_flow[i] = flow
        return nid

    def _thread_queues(self, first: int, lens, lo: int) -> None:
        """Thread the cells in slab rows ``first`` on into the queues of
        nodes ``lo`` on, node-major, link-minor, ``lens`` cells each, in
        row order."""
        # per queue holding cells, in that order: its sentinel (``link * n
        # + node``, the flat queue index) and the end of its run of rows
        held = lens.nonzero()[0]
        lens = lens[held]
        node, link = np.divmod(held, self.L)
        sentinel = link * self.n + node + lo
        ends = first + lens.cumsum()
        self.qf_len[sentinel] = lens
        # sentinel -> rows in order, each list as long as its length
        last = first + int(lens.sum())
        self.c_nxt[first:last] = np.arange(first + 1, last + 1)
        self.c_nxt[sentinel] = ends - lens
        self.qf_tail[sentinel] = ends - 1

    def _pack_wire(self, model, nid: int) -> int:
        """The wire, cut into per-arrival batches (FIFO order preserved),
        its payload cells loaded from slab row ``nid`` on; returns the
        next free row."""
        wire = model["wire"]
        if not len(wire):
            return nid
        if len(model["wire_ctrl"]):
            raise _Decline(_HEADERS)
        senders, recvs, arrivals, payload = wire.T
        payload = payload != 0
        # a bare header is a wire row with no slab row (-1)
        rows = np.where(payload, nid + payload.cumsum() - 1, -1)
        nid = self._load_cells(
            model["cells"][len(model["cells"]) - int(payload.sum()):], nid)
        # every cell of one arrival left in the same TX slot, on its
        # phase: the batch's spray phase is that phase plus one
        esph = (np.asarray(self.phase_table)[
            (arrivals - self.delay) % self.epoch] + 1) % self.h
        fresh = payload & (self.c_sprays[rows] > 0)
        tokens = self._header_codes(model)
        cuts = [0, *(np.flatnonzero(np.diff(arrivals)) + 1).tolist(),
                len(wire)]
        for lo, hi in zip(cuts, cuts[1:]):
            self.batches.append(self._wire_batch(
                int(arrivals[lo]), senders[lo:hi], rows[lo:hi],
                recvs[lo:hi], fresh[lo:hi], int(esph[lo]),
                None if tokens is None else tokens[:, lo:hi],
            ))
        return nid

    def _header_codes(self, model) -> Optional[np.ndarray]:
        """The ``wire_tokens`` table as a ``(tokens_per_header, wire
        rows)`` block of this stepper's token codes, -1 where a header
        holds none — or None, as here, where no header may hold any."""
        if len(model["wire_tokens"]):
            raise _Decline(_HEADERS)
        return None

    def _wire_batch(self, arrival, senders, rows, recvs, fresh, esph, tokens):
        """One arrival slot of a packed wire as a batch tuple of this
        stepper (the shape ``_tx`` appends); ``tokens`` is the batch's
        columns of :meth:`_header_codes`."""
        if (rows < 0).any():
            raise _Decline(_HEADERS)
        return arrival, senders, rows, recvs, fresh, esph

    def _queued_rows(self) -> np.ndarray:
        """The slab row of every queued cell, node-major, link-minor, FIFO:
        all the linked lists walked at once, one position per round, each
        as far as its length."""
        lens = self.q_len.T.reshape(-1)
        ends = lens.cumsum()
        out = np.empty(int(ends[-1]), dtype=np.int64)
        queue = lens.nonzero()[0]
        # each list's next output position, and where its run ends
        pos, end = ends[queue] - lens[queue], ends[queue]
        row = self.heads2d.T.reshape(-1)[queue]
        nxt = self.c_nxt
        while row.size:
            out[pos] = row
            pos += 1
            more = pos < end
            pos, end, row = pos[more], end[more], nxt[row[more]]
        return out

    def export_model(self):
        """The nodes and the wire of a synced run as the plain model's
        tables (:mod:`repro.sim.tables`) — what an object run holds at this
        slot; no occupancy and no active set, which the tables imply.
        Gathers columns only: no object is touched and the run goes on as
        it is."""
        model = tables.model({
            "scalars": np.zeros((self.n, 1), dtype=np.int64),
            "queues": self.q_len.T.reshape(-1, 1).copy(),
        })
        wire = [np.zeros((0, 4), dtype=np.int64)]
        sent = [np.zeros(0, dtype=np.int64)]
        lo = 0
        for batch in self.batches:
            senders, recvs, rows = self._export_batch(model, batch, lo)
            # a bare header (slab row -1) has no ``cells`` row
            wire.append(np.stack((senders, recvs,
                                  np.full(senders.size, batch[0]),
                                  rows >= 0)).T)
            sent.append(rows)
            lo += senders.size
        wire, sent = np.concatenate(wire), np.concatenate(sent)
        cells = self._slab[np.concatenate((self._queued_rows(),
                                           sent[sent >= 0]))]
        model["cells"], model["wire"] = cells.astype(np.int64), wire
        # a node's flows: its cursor, then the ones waiting behind it
        # (Flow objects, so that part is a walk — over flows, not nodes)
        cursor = self.has_flow.nonzero()[0]
        flows = np.concatenate((
            np.stack((cursor, self.cur_fid[cursor])).T,
            tables.table([(i, flow.flow_id) for i in cursor.tolist()
                          for flow in self.waiting[i]], 2),
        ))
        model["local_flows"] = flows[flows[:, 0].argsort(kind="stable")]
        return model

    def _export_batch(self, model, batch, lo: int):
        """The transmissions of wire ``batch`` in wire order, as
        ``(senders, receivers, slab rows)`` (row -1: a bare header), with
        the tokens their headers carry added to ``model`` — none without
        hop-by-hop; ``lo`` is the wire row of the first."""
        return batch[1], batch[3], batch[2]

    # ------------------------------------------------------------------ #
    # per-slot sections (the slab's deliver / inject / tx / sample)

    def _rx(self, t: int) -> None:
        batches = self.batches
        while batches and batches[0][0] <= t:
            _, _, cells, recvs, emask, esph = batches.popleft()
            self._arrive(t, cells, recvs, emask, esph)

    def _arrive(self, t: int, cells, recvs, emask, esph) -> None:
        """One batch of payload cells reaching its receivers: deliver the
        ones that are home, enqueue the rest toward their next hop."""
        engine = self.engine
        digest = engine.digest
        flows = engine.flows
        # the record field that indexes (dst) widens once per batch
        d = self.c_dst[cells].astype(np.intp)
        deliver = d == recvs
        del_ids = deliver.nonzero()[0]
        cnt = del_ids.size
        if cnt:
            dc = cells[del_ids]
            engine.metrics.payload_cells_delivered += cnt
            # the delivered cells' records, which the destination test
            # just read
            rec = self._slab.take(dc, axis=0)
            if digest is not None:
                # one on_delivery event per cell
                ev = self._events(cnt, _DELIVERY_WIDTH)
                ev[:, 0] = _EV_DELIVERY
                ev[:, 1:6] = rec.take(_DELIVERY_FIELDS, axis=1)
                ev[:, 6] = t
            fids = rec[:, _FID]
            complete = self.delivered.deliver(fids, rec[:, _FSIZE])
            if np.count_nonzero(complete):
                for fid in fids[complete].tolist():
                    flow = flows._active.get(fid)
                    if flow is None:
                        continue
                    flow.delivered = flow.size_cells
                    engine._finish_flow(flow, t)
            self._free_cells(dc)
            fwd_ids = (~deliver).nonzero()[0]
            if fwd_ids.size:
                self._forward(cells[fwd_ids], recvs[fwd_ids],
                              d[fwd_ids], emask[fwd_ids], esph)
        elif cells.size:
            self._forward(cells, recvs, d, emask, esph)
        engine._in_flight_payload -= cells.size

    def _next_hops(self, fc, rv, dd, emask, esph):
        """Next-hop link index per forwarded cell (the arguments are
        :meth:`_forward`'s).

        Every cell of the batch sprays next on phase ``esph`` (its send
        slot's phase plus one).  Spraying cells take one
        ``randrange(1, r)`` draw each, in batch (= node-id) order, on that
        phase; direct cells take the first phase, from ``esph`` on, whose
        digit differs between receiver and destination
        (``Node._direct_link``).
        """
        n = self.n
        h = self.h
        r = self.r
        if h == 1:
            # single digit (coordinate == node id), no spraying: the
            # offset is the coordinate distance to the destination
            link = dd - rv
            np.add(link, r, out=link, where=link < 0)
            link -= 1
            return link
        if h == 2:
            link = self._hop2[esph][self._hop_to[dd] - self._hop_at[rv]]
            # the batch's emissions are its spraying cells, all on the
            # batch phase
            sids = emask.nonzero()[0]
            if sids.size:
                link[sids] = self._spray_offsets(sids, rv, esph) \
                    + esph * self.rm1
            return link
        digits = self.digits
        p = esph
        nphase = np.full(fc.size, -1, dtype=np.int64)
        offd = np.empty(fc.size, dtype=np.int64)
        for _ in range(h):
            mine = digits[p * n + rv]
            want = digits[p * n + dd]
            mm = (nphase < 0) & (mine != want)
            if mm.any():
                nphase[mm] = p
                offd[mm] = (want[mm] - mine[mm]) % r
            p = p + 1 if p < h - 1 else 0
        if (nphase < 0).any():
            raise AssertionError("direct-hop cell already at destination")
        sids = (self.c_sprays[fc] > 0).nonzero()[0]
        if sids.size:
            nphase[sids] = esph
            offd[sids] = self._spray_offsets(sids, rv, esph) + 1
        return nphase * self.rm1 + offd - 1

    def _spray_offsets(self, sids, rv, sph: int) -> np.ndarray:
        """Spraying choice (round-robin offset minus one) for the cells at
        batch positions ``sids``, whose receivers are ``rv[sids]``, on
        spray phase ``sph``: :meth:`_shortest_queue` under spray-short,
        else one ``randrange(1, r)`` draw each (a test, not a bound method
        stored on the run, which would make a cycle that keeps a dropped
        run's columns alive until the collector runs)."""
        if self._spray_short:
            return self._shortest_queue(sids, rv, sph)
        return self._draw(sids.size)

    def _shortest_queue(self, sids, rv, sph: int) -> np.ndarray:
        """spray-short's :meth:`_spray_offsets`: the shortest queue of the
        batch phase at each receiver; ties draw ``randrange(count)`` and
        take the drawn tie in offset order, exactly as
        ``Node.enqueue_forward`` does (receivers are distinct within a
        batch, so no choice sees another's enqueue)."""
        lens = self._phase_lens[sph].take(rv[sids], axis=1)  # (r-1, k)
        rank = (lens == lens.min(axis=0)).cumsum(axis=0)
        pick = self._draw_ties(rank[-1].tolist())
        # the pick-th tie sits after exactly the positions ranked <= pick
        return (rank <= pick).sum(axis=0)

    def _forward(self, fc, rv, dd, emask, esph) -> None:
        """Enqueue forwarded cells at their receivers.

        ``dd`` is the cells' destination column (already gathered by the
        caller), ``emask`` flags same-slot emissions within the batch (the
        spraying cells at h <= 2) and ``esph`` is the batch's spray phase.
        Receivers within a batch are distinct (the slot schedule is a
        permutation), so every scatter is conflict free.
        """
        lin = self._next_hops(fc, rv, dd, emask, esph)
        lin *= self.n
        lin += rv
        tail = self.qf_tail
        qlen = self.qf_len
        # sentinel tails make the append unconditional: an empty queue's
        # tail is its own sentinel row, whose nxt entry is the head pointer
        self.c_nxt[tail[lin]] = fc
        tail[lin] = fc
        newlen = qlen[lin] + 1
        qlen[lin] = newlen
        metrics = self.engine.metrics
        mx = int(newlen.max())
        if mx > metrics.max_queue_length:
            metrics.max_queue_length = mx

    def _inject(self, t: int) -> None:
        engine = self.engine
        pending = engine._pending_flows
        while pending and pending[0][0] <= t:
            arrival, src, dst, size_cells, size_bytes = pending.popleft()
            flow = engine._start_flow(
                t, arrival, src, dst, size_cells, size_bytes
            )
            self.delivered.add(flow.flow_id)
            if self.has_flow[src]:
                self.waiting[src].append(flow)
            else:
                self.has_flow[src] = True
                self.cur_fid[src] = flow.flow_id
                self.cur_dst[src] = dst
                self.cur_sent[src] = 0
                self.cur_size[src] = size_cells
                self.cur_flow[src] = flow

    def _new_cells(self, rec: np.ndarray) -> np.ndarray:
        """Slab rows holding the records ``rec``, one new cell each."""
        rows = self._alloc(len(rec))
        self._slab[rows] = rec
        return rows

    def _emit(self, e, t, late: Optional[np.ndarray] = None) -> np.ndarray:
        """Admit one cell from the cursor flow of every node in ``e`` and
        advance the cursors; returns the cells' slab rows — followed by
        those of the records ``late`` (cells admitted another way), which
        are stored with them."""
        rec = self._cursor.take(e, axis=0)
        s = rec[:, _SEQ] + 1
        self.cur_sent[e] = s
        self.engine.metrics.cells_injected += e.size
        done = s >= rec[:, _FSIZE]
        if late is not None:
            rec = np.concatenate((rec, late))
        rec[:, _CREATED] = t
        rows = self._new_cells(rec)
        if np.count_nonzero(done):
            for i in e[done].tolist():
                flow = self.cur_flow[i]
                flow.sent = flow.size_cells
                queue = self.waiting[i]
                if queue:
                    nf = queue.popleft()
                    self.cur_fid[i] = nf.flow_id
                    self.cur_dst[i] = nf.dst
                    self.cur_sent[i] = nf.sent
                    self.cur_size[i] = nf.size_cells
                    self.cur_flow[i] = nf
                else:
                    self.has_flow[i] = False
                    self.cur_flow[i] = None
        return rows

    def _tx(self, t: int, slot: int, phase: int) -> None:
        engine = self.engine
        link = self.link_table[slot]
        lens = self.q_len[link]
        pop = lens > 0
        pop_ids = pop.nonzero()[0]
        if pop_ids.size:
            head = self.heads2d[link]
            c = head[pop_ids]
            head[pop_ids] = self.c_nxt[c]
            left = lens[pop_ids] - 1
            lens[pop_ids] = left
            # a queue emptied by this pop gets its tail re-pointed at its
            # own sentinel, so the next append lands on the head pointer
            emt = (left == 0).nonzero()[0]
            if emt.size:
                ids = pop_ids[emt]
                self.q_tail[link][ids] = link * self.n + ids
            if self.hm1 <= 1:
                # h <= 2: every queued cell has at most one spray left,
                # so the saturating decrement always lands on zero
                self.c_sprays[c] = 0
            else:
                sp = self.c_sprays[c]
                self.c_sprays[c] = sp - (sp > 0)
            self.c_prev[c] = pop_ids
            self.c_hops[c] += 1
            self._cell_of[pop_ids] = c
        emit = self.has_flow & ~pop
        e = emit.nonzero()[0]
        if e.size:
            self._cell_of[e] = self._emit(e, t)
        # pops and emissions as one sender-ascending batch (a node either
        # pops or emits, never both)
        senders = (pop | emit).nonzero()[0]
        m = senders.size
        if not m:
            return
        self.batches.append((
            t + self.delay, senders, self._cell_of[senders],
            self.peer[link][senders], emit[senders], (phase + 1) % self.h,
        ))
        metrics = engine.metrics
        metrics.cells_sent += m
        engine._in_flight_payload += m

    def _active_buckets(self) -> int:
        """Most active hop-by-hop buckets at any node (none without it)."""
        return 0

    def _sample(self, t: int) -> None:
        # per-node totals summed from the queue lengths, then every queue
        # in memory order, empty ones too: the tally is by value and skips
        # zeros
        self.engine._close_window(
            t, self.q_len.sum(axis=0), self.qf_len, self._active_buckets(),
        )

    # ------------------------------------------------------------------ #
    # the slot loop

    def advance(self, end: int, drain: bool) -> None:
        """The slab's slot loop: ``Engine.step``'s order over the columns
        (no faults or monitor section — either would have made the engine
        ineligible)."""
        engine = self.engine
        metrics = engine.metrics
        pending = engine._pending_flows
        batches = self.batches
        epoch = self.epoch
        phase_table = self.phase_table
        warmup = metrics.warmup
        interval = metrics.sample_interval
        rx, inject, tx, sample = self._rx, self._inject, self._tx, self._sample
        profiler = engine.profiler
        if profiler is not None:
            rx = profiler.timed("deliver", rx)
            inject = profiler.timed("inject", inject)
            tx = profiler.timed("tx", tx)
            sample = profiler.timed("sample", sample)
        t = engine.t
        while t < end and (not drain or engine.has_pending_work):
            if not metrics._measuring and t >= warmup:
                engine._enter_measurement()
            slot = t % epoch
            if batches and batches[0][0] <= t:
                rx(t)
            if pending and pending[0][0] <= t:
                inject(t)
            tx(t, slot, phase_table[slot])
            if t >= warmup and t % interval == 0:
                sample(t)
            t += 1
        engine.t = t


@register_backend("vector")
class VectorBackend(EngineBackend):
    """Vectorized numpy slot stepper with per-state fallback.

    See the module docstring for the column layout and the RNG
    bit-exactness strategy; ``tests/test_backends.py`` pins equivalence
    against the object backend.
    """

    __slots__ = ()

    #: smallest ``n`` at which the token family (spray-short, hop-by-hop,
    #: hbh+spray) steps on the slab.  The slab's per-slot cost is a fixed number of
    #: small array operations while the object pipeline's follows the
    #: active-node count, so below the crossover the slab loses; smaller
    #: networks run the reference pipeline and say so.  Measured, not
    #: configurable — the crossover table is in DESIGN.md §11.
    TOKEN_SLAB_MIN_N = 100

    def _step(self, engine, end: int, drain: bool) -> Optional[str]:
        """Step one stretch on the slab — on the run parked on the engine,
        or on one freshly packed from its plain model — then sync and park
        it; None when it ran, else why the state would not pack or the
        parked run cannot continue (the engine is untouched)."""
        run = parked = engine._parked
        if run is None:
            tables = _SlabTables(engine.schedule, engine.coords)
            if engine.config.uses_hop_by_hop:
                from .token_slab import TokenRun

                if tables.links[1] is None:
                    return "schedule links do not pair up for token return"
                run = TokenRun(engine, tables)
            else:
                run = _VectorRun(engine, tables)
            # the run keeps only the tables it steps with
            del tables
        # a value no record holds and the RNG mirror first: they are the
        # cheap declines, and the plain model of built objects is a full
        # encode
        reason = run.resume(engine, end)
        if reason is None and parked is None:
            reason = run.pack(engine._plain_model())
        if reason is None:
            run.advance(end, drain)
            run.sync()
            engine._park(run)
        return reason

    def advance(self, engine, end: int, drain: bool) -> None:
        reason = _fast_ineligible_reason(engine)
        if reason is None:
            reason = self._step(engine, end, drain)
            if reason is None:
                return
        # without a failure manager nothing can change eligibility
        # mid-segment, and with one the segment is ineligible throughout,
        # so finishing on the reference loop is both correct and stable
        # (its first read of the object model loads a parked run's export)
        engine.note_backend_effective("object", reason)
        advance_reference(engine, end, drain)
