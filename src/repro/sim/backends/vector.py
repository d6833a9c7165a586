"""The vectorized numpy slot stepper.

Instead of one Python object pipeline per node per slot, this backend keeps
the whole network's mutable hot state in flat int64 columns and advances
every node in a timeslot with a handful of array operations:

* **cell slab** — one row per live cell, holding the eleven integer fields
  of :class:`~repro.core.cell.Cell` plus a ``nxt`` pointer that threads
  cells into per-(node, link) FIFO linked lists (the queue ``head`` /
  ``tail`` / ``qlen`` / ``peak`` columns are ``(L, n)`` arrays, one row per
  link index).  A freelist recycles slab rows as cells are delivered.
* **flow cursors** — per-node columns for the currently emitting flow
  (id, dst, sent, size) with the waiting flows in per-node Python lists;
  per-flow ``delivered`` / ``size`` columns detect completions by array
  compare instead of per-cell object updates.
* **wire** — in-flight transmissions as per-arrival-slot batches of
  (senders, slab rows, receivers) arrays; the send order within a batch is
  node-id order, exactly the FIFO order the object wire produces.

The backend is *bit-exact* with the object pipeline for the states it
accelerates, including RNG consumption: spraying draws are CPython's
``randrange(1, r)`` rejection loop, which the stepper reproduces by
mirroring the engine's Mersenne Twister into ``numpy.random.MT19937``
(word-for-word the same generator), bulk-generating raw 32-bit words, and
applying the same top-``bits`` / reject-``>= r-1`` rule — the k-th accepted
word *is* the k-th draw.  On unpack the engine's ``random.Random`` is
resynchronised by replaying exactly the consumed word count from the packed
state, so object-mode code continues the identical stream.

Anything outside the fast path — congestion-control machinery, non-vlb
routing, failure state, attached monitors/tracers/hooks — falls back to the
reference loop (:func:`repro.sim.backends.object_backend.advance`),
keeping every configuration correct at the cost of speed.  Eligibility is
decided once per ``advance`` call: without a failure manager attached, no
mid-run event can create failure state, so an eligible segment stays
eligible.
"""

from __future__ import annotations

import random
from collections import deque
from typing import List, Optional

import numpy as np

from ...core.cell import Cell
from ..node import Transmission
from . import EngineBackend, register_backend
from .object_backend import advance as advance_reference

__all__ = ["VectorBackend"]

#: slab column names, in Cell.state() order (minus ``dummy``, always False
#: on the fast path) plus the queue linked-list pointer
_SLAB_COLS = (
    "c_src", "c_dst", "c_fid", "c_seq", "c_sprays", "c_prev",
    "c_created", "c_sphase", "c_fsize", "c_hops", "c_enqat", "c_nxt",
)

_EV_DELIVERY = 1  # DeterminismDigest delivery tag (see repro.sim.digest)


def _fast_ineligible_reason(engine):
    """Why the engine state is not vectorizable, or None if it is.

    Per-cell conditions (header tokens, dummies, unset spray hints) are
    verified during packing; this covers everything visible without
    walking queues.  The reason string feeds the de-acceleration notice
    (``Engine.note_backend_effective``), so it names the feature that
    forced the reference pipeline.
    """
    cfg = engine.config
    if cfg.congestion_control != "none":
        return f"congestion_control={cfg.congestion_control!r}"
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
    if engine.force_full_scan or engine.failed_links:
        return "failed links present"
    if type(engine.rng) is not random.Random:
        return "non-standard RNG"
    for node in engine.nodes:
        if (
            node.failed
            or node.failed_neighbors
            or node.known_failed
            or node.link_invalid
            or node._force_dummy
            or node.pending_tokens
            or node.pending_ctrl
            or node.rtx_queue
        ):
            return f"node {node.node_id} carries non-vectorizable state"
    return None


def _fast_eligible(engine) -> bool:
    """Cheap checks that the engine state is vectorizable."""
    return _fast_ineligible_reason(engine) is None


def build_hop_tables(n: int, h: int, r: int):
    """The h=2 flat next-hop tables ``(qsel, nsel)``, or None.

    Indexed ``phase * n**2 + receiver * n + dst``: ``qsel`` holds
    ``link_index * n`` for the direct hop out of ``receiver`` toward
    ``dst`` at ``phase`` (or the other phase's when that digit already
    matches) and ``nsel`` the spray-phase hint for the next hop.  None for
    other ``h`` and for sizes where the 2*n**2 tables stop paying for
    themselves.  Shared by the vector backend and the shard workers (each
    worker rebuilds them locally instead of shipping 2*n**2 entries).
    """
    if h != 2 or 2 * n * n > 8_000_000:
        return None
    rm1 = r - 1
    ids = np.arange(n, dtype=np.int64)
    qbase = []
    match = []
    for p in (0, 1):
        digit = (ids // r ** (h - 1 - p)) % r
        off = (digit[None, :] - digit[:, None]) % r
        qbase.append(((p * rm1 + off - 1) * n).reshape(-1))
        match.append((off == 0).reshape(-1))
    nn = n * n
    qsel = np.empty(2 * nn, dtype=np.int64)
    nsel = np.empty(2 * nn, dtype=np.int64)
    for p in (0, 1):
        # a cell hinted at phase p takes phase p when that digit
        # mismatches, else the other phase (it cannot be home:
        # matched-everywhere cells get delivered, not forwarded); the
        # stored hint for the NEXT hop is the phase it did not take
        take_other = match[p]
        qsel[p * nn:(p + 1) * nn] = np.where(
            take_other, qbase[p ^ 1], qbase[p]
        )
        nsel[p * nn:(p + 1) * nn] = np.where(take_other, p, p ^ 1)
    return qsel, nsel


class _VectorRun:
    """One packed stretch of vector stepping over a single engine.

    Built by :meth:`VectorBackend._pack`, advanced by :meth:`advance`,
    written back by :meth:`unpack`.  The object model is stale while a run
    is packed and authoritative again after ``unpack``.
    """

    def __init__(self, engine, nbr, link_table, qt):
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
        self.nbr = nbr
        self.link_table = link_table
        # h=2 next-hop table (see VectorBackend._tables); None for other h
        self.qsel, self.nsel = qt if qt is not None else (None, None)
        self.nn = self.n * self.n
        schedule = engine.schedule
        self.epoch = schedule.epoch_length
        self.phase_table = schedule.phase_table
        # digit weights of the coordinate system: weights[p] = r**(h-1-p)
        self.weights = np.array(
            [self.r ** (self.h - 1 - p) for p in range(self.h)],
            dtype=np.int64,
        )
        # spraying draw constants: randrange(1, r) = 1 + rejection-sampled
        # getrandbits((r-1).bit_length()) accepted below r-1
        self.spray_bits = self.rm1.bit_length()
        self.spray_shift = 32 - self.spray_bits
        # flat digit table, indexed ``p * n + x``: digit ``p`` of node
        # coordinate ``x`` (one cheap gather instead of a floordiv + mod
        # per cell in the next-hop scan)
        ids = np.arange(self.n, dtype=np.int64)
        self.digits = np.concatenate(
            [(ids // self.weights[p]) % self.r for p in range(self.h)]
        )
        # queue columns, one row per link index (plus flat aliases for the
        # RX scatter, which addresses queues as ``link * n + node``).
        # Queues are sentinel-headed linked lists: slab rows [0, L*n) are
        # reserved as one sentinel per queue, whose ``c_nxt`` entry IS the
        # queue's head pointer, and ``q_tail`` holds the last cell's row or
        # the queue's own sentinel (== its flat index) when empty — so an
        # append is an unconditional ``nxt[tail] = cell`` with no
        # empty/non-empty split
        self.Ln = self.L * self.n
        self.q_tail = np.arange(self.Ln, dtype=np.int64).reshape(
            self.L, self.n
        )
        self.q_len = np.zeros((self.L, self.n), dtype=np.int64)
        self.q_peak = np.zeros((self.L, self.n), dtype=np.int64)
        self.qf_tail = self.q_tail.reshape(-1)
        self.qf_len = self.q_len.reshape(-1)
        self.qf_peak = self.q_peak.reshape(-1)
        # per-node occupancy totals are derived from q_len on demand (at
        # sample windows and unpack), not maintained per slot
        # flow cursor columns + waiting lists
        self.has_flow = np.zeros(self.n, dtype=bool)
        self.cur_fid = np.zeros(self.n, dtype=np.int64)
        self.cur_dst = np.zeros(self.n, dtype=np.int64)
        self.cur_sent = np.zeros(self.n, dtype=np.int64)
        self.cur_size = np.zeros(self.n, dtype=np.int64)
        self.cur_flow: List[Optional[object]] = [None] * self.n
        self.waiting: List[deque] = [deque() for _ in range(self.n)]
        # per-flow completion columns
        self.f_cap = 64
        self.f_del = np.zeros(self.f_cap, dtype=np.int64)
        self.f_size = np.zeros(self.f_cap, dtype=np.int64)
        # per-destination delivery deltas, folded into the metrics dict at
        # unpack (the dict itself is too slow to touch per slot)
        self.delivered_vec = np.zeros(self.n, dtype=np.int64)
        # the wire: (arrival, senders, slab rows, receivers) per send slot
        self.batches: deque = deque()
        # constant emission-mask views for single-kind wire batches
        self._em_false = np.zeros(self.n, dtype=bool)
        self._em_true = np.ones(self.n, dtype=bool)
        # scratch: one column block per emission slot, scattered into the
        # slab in a single 2-D write
        self._ev = np.empty((len(_SLAB_COLS), self.n), dtype=np.int64)
        # RNG mirror state (filled by pack)
        self.rng_prestate = None
        self.bg = None
        self.acc_vals = np.empty(0, dtype=np.int64)
        self.acc_end = np.empty(0, dtype=np.int64)
        self.acc_pos = 0
        self.words_generated = 0
        self.words_consumed = 0

    # ------------------------------------------------------------------ #
    # slab management

    def _init_slab(self, count: int) -> None:
        cap = self.Ln + max(1024, 2 * (count + self.n))
        self.cap = cap
        # one (column, row) block; the per-column attributes are row views
        # into it, so emissions can write all twelve fields of a cell with
        # a single 2-D scatter.  Rows [0, Ln) are the queue sentinels.
        self._slab = np.zeros((len(_SLAB_COLS), cap), dtype=np.int64)
        for i, name in enumerate(_SLAB_COLS):
            setattr(self, name, self._slab[i])
        self.c_nxt.fill(-1)
        self.heads2d = self.c_nxt[: self.Ln].reshape(self.L, self.n)
        self.free = np.empty(cap, dtype=np.int64)
        self.free_top = 0

    def _grow_slab(self, need: int) -> None:
        old = self.cap
        cap = old * 2
        while cap - old < need:
            cap *= 2
        slab = np.zeros((len(_SLAB_COLS), cap), dtype=np.int64)
        slab[:, :old] = self._slab
        self._slab = slab
        for i, name in enumerate(_SLAB_COLS):
            setattr(self, name, slab[i])
        self.heads2d = self.c_nxt[: self.Ln].reshape(self.L, self.n)
        self.free = np.concatenate(
            [self.free[: self.free_top], np.arange(old, cap, dtype=np.int64),
             np.zeros(old - self.free_top, dtype=np.int64)]
        )
        self.free_top += cap - old
        self.cap = cap

    def _alloc(self, k: int) -> np.ndarray:
        if self.free_top < k:
            self._grow_slab(k)
        top = self.free_top - k
        ids = self.free[top : self.free_top].copy()
        self.free_top = top
        return ids

    def _free_cells(self, ids: np.ndarray) -> None:
        m = ids.size
        self.free[self.free_top : self.free_top + m] = ids
        self.free_top += m

    def _ensure_flow(self, fid: int) -> None:
        if fid >= self.f_cap:
            cap = self.f_cap * 2
            while cap <= fid:
                cap *= 2
            pad = np.zeros(cap - self.f_cap, dtype=np.int64)
            self.f_del = np.concatenate([self.f_del, pad])
            self.f_size = np.concatenate([self.f_size, pad])
            self.f_cap = cap

    # ------------------------------------------------------------------ #
    # RNG mirror

    def _mirror_rng(self) -> bool:
        state = self.engine.rng.getstate()
        if state[0] != 3 or state[2] is not None:
            return False
        key = state[1]
        self.rng_prestate = {
            "bit_generator": "MT19937",
            "state": {
                "key": np.array(key[:-1], dtype=np.uint32),
                "pos": int(key[-1]),
            },
        }
        self.bg = np.random.MT19937()
        self.bg.state = self.rng_prestate
        return True

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

    def _resync_rng(self) -> None:
        """Advance the engine's Random past the words the stepper consumed."""
        if not self.words_consumed:
            return
        bg = np.random.MT19937()
        bg.state = self.rng_prestate
        bg.random_raw(self.words_consumed)
        s = bg.state["state"]
        self.engine.rng.setstate(
            (3, tuple(int(x) for x in s["key"]) + (int(s["pos"]),), None)
        )

    # ------------------------------------------------------------------ #
    # pack / unpack

    def pack(self) -> bool:
        """Read the object model into columns; True on success.

        Purely read-only until the final commit (clearing the object wire),
        so a mid-scan disqualification leaves the engine untouched.
        """
        engine = self.engine
        if not self._mirror_rng():
            return False
        count = sum(node.total_enqueued for node in engine.nodes)
        count += len(engine._in_flight)
        self._init_slab(count)
        nid = self.Ln  # cell rows start past the queue sentinels
        c_src = self.c_src
        c_dst = self.c_dst
        c_fid = self.c_fid
        c_seq = self.c_seq
        c_sprays = self.c_sprays
        c_prev = self.c_prev
        c_created = self.c_created
        c_sphase = self.c_sphase
        c_fsize = self.c_fsize
        c_hops = self.c_hops
        c_enqat = self.c_enqat
        c_nxt = self.c_nxt

        def load_cell(cell, row):
            c_src[row] = cell.src
            c_dst[row] = cell.dst
            c_fid[row] = cell.flow_id
            c_seq[row] = cell.seq
            c_sprays[row] = cell.sprays_remaining
            c_prev[row] = cell.prev_hop
            c_created[row] = cell.created_at
            c_sphase[row] = cell.spray_phase
            c_fsize[row] = cell.flow_size
            c_hops[row] = cell.hops
            c_enqat[row] = cell.enqueued_at

        n = self.n
        for i, node in enumerate(engine.nodes):
            for l, queue in enumerate(node.link_queues):
                items = queue._items
                self.q_peak[l, i] = queue.peak_occupancy
                self.q_len[l, i] = len(items)
                prev_row = l * n + i  # the queue's sentinel
                for cell in items:
                    if cell.dummy or cell.spray_phase < 0:
                        return False
                    load_cell(cell, nid)
                    c_nxt[prev_row] = nid
                    prev_row = nid
                    nid += 1
                self.q_tail[l, i] = prev_row
            live = [f for f in node.local_flows if f.sent < f.size_cells]
            if live:
                cursor = live[0]
                self.has_flow[i] = True
                self.cur_fid[i] = cursor.flow_id
                self.cur_dst[i] = cursor.dst
                self.cur_sent[i] = cursor.sent
                self.cur_size[i] = cursor.size_cells
                self.cur_flow[i] = cursor
                self.waiting[i].extend(live[1:])
        # the wire, grouped into per-arrival batches (FIFO order preserved)
        arr = None
        senders: List[int] = []
        cells: List[int] = []
        recvs: List[int] = []
        emask: List[bool] = []
        esph = 0

        def flush():
            if senders:
                self.batches.append((
                    arr,
                    np.array(senders, dtype=np.int64),
                    np.array(cells, dtype=np.int64),
                    np.array(recvs, dtype=np.int64),
                    np.array(emask, dtype=bool),
                    esph,
                ))

        for tx in engine._in_flight:
            cell = tx.cell
            if tx.tokens or tx.ctrl or cell is None or cell.dummy \
                    or cell.spray_phase < 0:
                return False
            if tx.arrival != arr:
                flush()
                arr = tx.arrival
                senders, cells, recvs, emask = [], [], [], []
                esph = 0
            load_cell(cell, nid)
            senders.append(tx.sender)
            cells.append(nid)
            recvs.append(tx.receiver)
            spraying = cell.sprays_remaining > 0
            emask.append(spraying)
            if spraying:
                # all spraying cells in one batch left the same TX slot,
                # so they share one spray phase
                esph = cell.spray_phase
            nid += 1
        flush()
        # flow completion columns for every active flow
        flows = engine.flows
        for fid, flow in flows._active.items():
            self._ensure_flow(fid)
            self.f_del[fid] = flow.delivered
            self.f_size[fid] = flow.size_cells
        # commit: remaining rows form the freelist; the object wire empties
        self.free[: self.cap - nid] = np.arange(nid, self.cap, dtype=np.int64)
        self.free_top = self.cap - nid
        engine._in_flight.clear()
        return True

    def _materialize_rows(self, rows: List[int]) -> List[Cell]:
        """Cells for slab ``rows``, built from one bulk gather per column.

        One fancy gather + ``tolist`` per column replaces per-cell numpy
        scalar reads; the remaining per-cell cost is twelve attribute
        stores.
        """
        if not rows:
            return []
        ra = np.array(rows, dtype=np.int64)
        out: List[Cell] = []
        append = out.append
        new = Cell.__new__
        for src, dst, fid, seq, spr, prv, cre, sph, fsz, hp, enq in zip(
            self.c_src[ra].tolist(), self.c_dst[ra].tolist(),
            self.c_fid[ra].tolist(), self.c_seq[ra].tolist(),
            self.c_sprays[ra].tolist(), self.c_prev[ra].tolist(),
            self.c_created[ra].tolist(), self.c_sphase[ra].tolist(),
            self.c_fsize[ra].tolist(), self.c_hops[ra].tolist(),
            self.c_enqat[ra].tolist(),
        ):
            cell = new(Cell)
            cell.src = src
            cell.dst = dst
            cell.flow_id = fid
            cell.seq = seq
            cell.sprays_remaining = spr
            cell.prev_hop = prv
            cell.created_at = cre
            cell.spray_phase = sph
            cell.flow_size = fsz
            cell.dummy = False
            cell.hops = hp
            cell.enqueued_at = enq
            append(cell)
        return out

    def unpack(self) -> None:
        """Write the columns back; the object model becomes authoritative."""
        engine = self.engine
        # first pass: walk every linked list with plain python ints,
        # collecting all live rows (queues first, then the wire) so the
        # cells can be materialized in one columnar sweep
        nxt = self.c_nxt.tolist()
        heads = self.heads2d.T.tolist()
        peaks = self.q_peak.T.tolist()
        all_rows: List[int] = []
        append = all_rows.append
        qmarks: List[int] = []
        for i, node in enumerate(engine.nodes):
            hrow = heads[i]
            prow = peaks[i]
            for l, queue in enumerate(node.link_queues):
                row = hrow[l]
                start = len(all_rows)
                while row >= 0:
                    append(row)
                    row = nxt[row]
                qmarks.append(len(all_rows) - start)
                queue.peak_occupancy = prow[l]
            flows_left = []
            if self.has_flow[i]:
                cursor = self.cur_flow[i]
                cursor.sent = int(self.cur_sent[i])
                flows_left.append(cursor)
            flows_left.extend(self.waiting[i])
            node.local_flows = flows_left
        wire_start = len(all_rows)
        for _, _, cells, _, _, _ in self.batches:
            all_rows.extend(cells.tolist())
        made = self._materialize_rows(all_rows)
        # second pass: hand each queue its slice of the materialized cells
        pos = 0
        mark = 0
        for node in engine.nodes:
            for queue in node.link_queues:
                cnt = qmarks[mark]
                mark += 1
                # the per-link list object is aliased by the node's TX
                # caches, so it is mutated in place, never rebound
                queue._items[:] = made[pos:pos + cnt]
                pos += cnt
        # the wire
        in_flight = engine._in_flight
        pos = wire_start
        for arr, senders, cells, recvs, _, _ in self.batches:
            for s, r, cell in zip(senders.tolist(), recvs.tolist(),
                                  made[pos:pos + senders.size]):
                tx = Transmission(s, r, cell, (), ())
                tx.arrival = arr
                in_flight.append(tx)
            pos += senders.size
        # flow delivery counters
        for fid, flow in engine.flows._active.items():
            if fid < self.f_cap:
                flow.delivered = int(self.f_del[fid])
        # per-destination delivery counts
        per_node = engine.metrics.delivered_per_node
        for i, v in enumerate(self.delivered_vec.tolist()):
            if v:
                per_node[i] = per_node.get(i, 0) + v
        # per-node occupancy totals, derived from the queue lengths
        total_enq = self._node_occupancy()
        for i, v in enumerate(total_enq.tolist()):
            engine.nodes[i].total_enqueued = v
        # the active set: exactly the nodes with pending work (a legal
        # instance of the engine's superset invariant — nothing else can
        # owe work in a vector-eligible state)
        engine._active_ids.clear()
        engine._active_ids.update(
            np.flatnonzero((total_enq > 0) | self.has_flow).tolist()
        )
        self._resync_rng()

    # ------------------------------------------------------------------ #
    # per-slot sections (the slab's deliver / inject / tx / sample)

    def _rx(self, t: int) -> None:
        engine = self.engine
        metrics = engine.metrics
        digest = engine.digest
        flows = engine.flows
        events = engine.events
        batches = self.batches
        while batches and batches[0][0] <= t:
            _, _, cells, recvs, emask, esph = batches.popleft()
            d = self.c_dst[cells]
            deliver = d == recvs
            del_ids = deliver.nonzero()[0]
            cnt = del_ids.size
            if cnt:
                dc = cells[del_ids]
                metrics.cells_delivered += cnt
                metrics.payload_cells_delivered += cnt
                metrics._window_delivered += cnt
                latencies = metrics.cell_latencies
                room = metrics._cell_latency_cap - len(latencies)
                if room > 0:
                    lats = t - self.c_created[dc]
                    latencies.extend(
                        lats.tolist() if room >= cnt else lats[:room].tolist()
                    )
                self.delivered_vec[recvs[del_ids]] += 1
                if digest is not None:
                    fold = digest._fold
                    for fid, seq, src, dd, hp in zip(
                        self.c_fid[dc].tolist(), self.c_seq[dc].tolist(),
                        self.c_src[dc].tolist(), d[del_ids].tolist(),
                        self.c_hops[dc].tolist(),
                    ):
                        fold((_EV_DELIVERY, fid, seq, src, dd, hp, t))
                fids = self.c_fid[dc]
                fd = self.f_del[fids] + 1
                self.f_del[fids] = fd
                complete = fd >= self.f_size[fids]
                if np.count_nonzero(complete):
                    for fid in fids[complete].tolist():
                        flow = flows._active.get(fid)
                        if flow is None:
                            continue
                        flow.delivered = int(self.f_del[fid])
                        record = flows.finalize(flow, t)
                        if events is not None:
                            events.emit(t, "flow_end", {
                                "flow": record.flow_id, "src": record.src,
                                "dst": record.dst,
                                "cells": record.size_cells,
                                "fct": record.fct,
                            })
                self._free_cells(dc)
                fwd_ids = (~deliver).nonzero()[0]
                if fwd_ids.size:
                    self._forward(cells[fwd_ids], recvs[fwd_ids], t,
                                  d[fwd_ids], emask[fwd_ids], esph)
            elif cells.size:
                self._forward(cells, recvs, t, d, emask, esph)
            engine._in_flight_payload -= cells.size

    def _next_hops(self, fc, rv, dd):
        """Next-hop (phase, offset) per forwarded cell.

        Spraying cells take one ``randrange(1, r)`` draw each, in batch
        (= node-id) order; direct cells run the first-mismatched-digit scan
        from the carried phase hint.
        """
        n = self.n
        h = self.h
        digits = self.digits
        sph = self.c_sphase[fc]
        if h == 1:
            # single digit (coordinate == node id), no spraying: the
            # offset is the coordinate distance to the destination
            off = dd - rv
            np.add(off, self.r, out=off, where=off < 0)
            return sph, off
        if h == 2:
            # two rounds unrolled branch-free: if the hinted digit already
            # matches, the other one must differ (the cell isn't home yet)
            pn = sph * n
            mine0 = digits[pn + rv]
            want0 = digits[pn + dd]
            m0 = mine0 != want0
            p1 = sph ^ 1
            p1n = p1 * n
            mine1 = digits[p1n + rv]
            want1 = digits[p1n + dd]
            nphase = np.where(m0, sph, p1)
            offd = np.where(m0, want0 - mine0, want1 - mine1)
            np.add(offd, self.r, out=offd, where=offd < 0)
        else:
            p = self.c_sphase[fc].copy()
            nphase = np.full(fc.size, -1, dtype=np.int64)
            offd = np.empty(fc.size, dtype=np.int64)
            for _ in range(h):
                pn = p * n
                mine = digits[pn + rv]
                want = digits[pn + dd]
                mm = (nphase < 0) & (mine != want)
                if mm.any():
                    nphase[mm] = p[mm]
                    offd[mm] = (want[mm] - mine[mm]) % self.r
                p += 1
                p[p >= h] = 0
            if (nphase < 0).any():
                raise AssertionError("direct-hop cell already at destination")
        smask = self.c_sprays[fc] > 0
        ks = np.count_nonzero(smask)
        if ks:
            sv = np.empty(fc.size, dtype=np.int64)
            sv[smask] = self._draw(ks) + 1
            nphase = np.where(smask, sph, nphase)
            off = np.where(smask, sv, offd)
        else:
            off = offd
        return nphase, off

    def _forward(self, fc, rv, t, dd, emask, esph) -> None:
        """Enqueue forwarded cells at their receivers.

        ``dd`` is the cells' destination column (already gathered by the
        caller), ``emask`` flags same-slot emissions within the batch (the
        spraying cells at h <= 2) and ``esph`` is their common spray
        phase.  Receivers within a batch are distinct (the slot schedule
        is a permutation), so the scatter is conflict free.
        """
        if self.qsel is not None:
            # h=2 fast path: the precomputed tables resolve phase choice,
            # queue index and next-hop hint in two gathers, with spraying
            # draws overriding per spray cell in batch order
            idx = self.c_sphase[fc] * self.nn
            idx += rv * self.n
            idx += dd
            qn = self.qsel[idx]
            npl = self.nsel[idx]
            ks = np.count_nonzero(emask)
            if ks:
                sids = emask.nonzero()[0]
                # draw == randrange(1, r) - 1, which is the in-phase
                # queue offset the tables encode as (q * n); all sprays
                # in a batch share the emission slot's spray phase
                qn[sids] = self._draw(ks) * self.n + esph * self.rm1 * self.n
                npl[sids] = esph ^ 1
            lin = qn + rv
        else:
            nphase, off = self._next_hops(fc, rv, dd)
            lin = (nphase * self.rm1 + off - 1) * self.n + rv
            npl = nphase + 1
            npl[npl == self.h] = 0
        self.c_sphase[fc] = npl
        self.c_enqat[fc] = t
        tail = self.qf_tail
        qlen = self.qf_len
        peak = self.qf_peak
        nxt = self.c_nxt
        # sentinel tails make the append unconditional: an empty queue's
        # tail is its own sentinel row, whose nxt entry is the head pointer
        nxt[tail[lin]] = fc
        tail[lin] = fc
        nxt[fc] = -1
        newlen = qlen[lin] + 1
        qlen[lin] = newlen
        peak[lin] = np.maximum(peak[lin], newlen)
        metrics = self.engine.metrics
        mx = int(newlen.max())
        if mx > metrics.max_queue_length:
            metrics.max_queue_length = mx

    def _inject(self, t: int) -> None:
        engine = self.engine
        pending = engine._pending_flows
        flows = engine.flows
        events = engine.events
        while pending and pending[0][0] <= t:
            arrival, src, dst, size_cells, size_bytes = pending.popleft()
            flow = flows.new_flow(
                src, dst, size_cells, arrival, size_bytes=size_bytes
            )
            fid = flow.flow_id
            self._ensure_flow(fid)
            self.f_del[fid] = 0
            self.f_size[fid] = size_cells
            if self.has_flow[src]:
                self.waiting[src].append(flow)
            else:
                self.has_flow[src] = True
                self.cur_fid[src] = fid
                self.cur_dst[src] = dst
                self.cur_sent[src] = 0
                self.cur_size[src] = size_cells
                self.cur_flow[src] = flow
            if events is not None:
                events.emit(t, "flow_start", {
                    "flow": fid, "src": src, "dst": dst,
                    "cells": size_cells,
                })

    def _tx(self, t: int, slot: int, phase: int) -> None:
        engine = self.engine
        link = self.link_table[slot]
        head = self.heads2d[link]
        pop = head >= 0
        pop_ids = pop.nonzero()[0]
        npop = pop_ids.size
        if npop:
            c = head[pop_ids]
            nh = self.c_nxt[c]
            head[pop_ids] = nh
            # a queue emptied by this pop gets its tail re-pointed at its
            # own sentinel, so the next append lands on the head pointer
            emt = (nh < 0).nonzero()[0]
            if emt.size:
                ids = pop_ids[emt]
                self.q_tail[link][ids] = link * self.n + ids
            self.q_len[link][pop_ids] -= 1
            if self.hm1 <= 1:
                # h <= 2: every queued cell has at most one spray left,
                # so the saturating decrement always lands on zero
                self.c_sprays[c] = 0
            else:
                sp = self.c_sprays[c]
                self.c_sprays[c] = sp - (sp > 0)
            self.c_prev[c] = pop_ids
            self.c_hops[c] += 1
        emit = self.has_flow & ~pop
        e = emit.nonzero()[0]
        k = e.size
        esph = (phase + 1) % self.h
        if k:
            rows = self._alloc(k)
            # field order matches _SLAB_COLS
            V = self._ev[:, :k]
            V[0] = e                    # src
            V[1] = self.cur_dst[e]      # dst
            V[2] = self.cur_fid[e]      # flow id
            s = self.cur_sent[e]
            V[3] = s                    # seq
            V[4] = self.hm1             # sprays remaining
            V[5] = e                    # prev hop
            V[6] = t                    # created at
            V[7] = esph                 # spray phase hint
            sz = self.cur_size[e]
            V[8] = sz                   # flow size
            V[9] = 1                    # hops
            V[10] = t                   # enqueued at
            V[11] = -1                  # nxt
            self._slab[:, rows] = V
            s += 1
            self.cur_sent[e] = s
            engine.metrics.cells_injected += k
            done = s >= sz
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
        # merge pops and emissions into one sender-ascending batch (a node
        # either pops or emits, never both, so the id sets are disjoint)
        if npop and k:
            cat = np.concatenate((pop_ids, e))
            perm = cat.argsort(kind="stable")
            senders = cat[perm]
            cells = np.concatenate((c, rows))[perm]
            em = perm >= npop
        elif npop:
            senders = pop_ids
            cells = c
            em = self._em_false[:npop]
        elif k:
            senders = e
            cells = rows
            em = self._em_true[:k]
        else:
            return
        m = senders.size
        self.batches.append((
            t + self.delay, senders, cells, self.nbr[slot][senders],
            em, esph,
        ))
        metrics = engine.metrics
        metrics.cells_sent += m
        engine._in_flight_payload += m

    def _node_occupancy(self) -> np.ndarray:
        """Per-node total enqueued cells, summed from the queue lengths."""
        return self.q_len.sum(axis=0)

    def _sample(self, t: int) -> None:
        engine = self.engine
        metrics = engine.metrics
        total_enq = self._node_occupancy()
        metrics._buffer_samples.extend(total_enq)
        mb = int(total_enq.max()) if self.n else 0
        if mb > metrics.max_buffer_occupancy:
            metrics.max_buffer_occupancy = mb
        qt = self.q_len.T  # (n, L): node-major, link order within a node
        metrics._queue_samples.extend(qt[qt > 0])
        pk = int(self.q_peak.max())
        if pk > metrics.max_pieo_length:
            metrics.max_pieo_length = pk
        metrics.end_sample_window()
        if engine.telemetry is not None:
            engine.telemetry.on_window_stats(
                engine, t,
                queued=int(total_enq.sum()),
                max_queue=int(self.q_len.max()),
                max_buffer=mb,
                active_buckets=0,
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

    __slots__ = ("_nbr", "_link_table", "_qt")

    def __init__(self) -> None:
        self._nbr = None
        self._link_table = None
        self._qt = None

    def _tables(self, engine):
        """Per-slot link indices, the (epoch, n) neighbor table, and (for
        h=2) the flat next-hop table.

        Built once per backend (the engine's schedule and coordinate
        system are immutable).  The neighbor table comes from the nodes'
        own tables, so any registered schedule strategy works unchanged.
        The next-hop table, indexed ``phase * n**2 + receiver * n + dst``,
        holds ``link_index * n`` for the direct hop out of ``receiver``
        toward ``dst`` at ``phase`` — or -1 when that digit already
        matches — turning the per-cell digit scan into one gather per
        candidate phase.
        """
        if self._nbr is None:
            schedule = engine.schedule
            r = engine.coords.r
            rm1 = r - 1
            link_table = [
                schedule.phase_table[s] * rm1 + schedule.offset_table[s] - 1
                for s in range(schedule.epoch_length)
            ]
            n = engine.config.n
            h = engine.config.h
            nbr = np.empty((schedule.epoch_length, n), dtype=np.int64)
            for s in range(schedule.epoch_length):
                link = link_table[s]
                nbr[s] = [node.neighbors_flat[link] for node in engine.nodes]
            self._qt = build_hop_tables(n, h, r)
            self._link_table = link_table
            self._nbr = nbr
        return self._nbr, self._link_table, self._qt

    def advance(self, engine, end: int, drain: bool) -> None:
        reason = _fast_ineligible_reason(engine)
        if reason is None:
            run = _VectorRun(engine, *self._tables(engine))
            if run.pack():
                run.advance(end, drain)
                run.unpack()
                return
            reason = "queued cells carry non-vectorizable headers"
        # without a failure manager nothing can change eligibility
        # mid-segment, and with one the segment is ineligible throughout,
        # so finishing on the reference loop is both correct and stable
        engine.note_backend_effective("object", reason)
        advance_reference(engine, end, drain)
