"""The sharded multi-process slot stepper.

Partitions the network's nodes into ``K`` contiguous ranges along EBS
phase-group boundaries (digit-0 blocks are contiguous runs of ``n/r``
node ids, so when ``K <= r`` every block lands wholly inside one shard)
and advances each range in its own persistent worker process.  Workers
run the same vectorized stepper as the ``"vector"`` backend
(:class:`~repro.sim.backends.vector._VectorRun`), restricted to their
node range, and exchange cross-shard cells through deterministic
per-slot mailboxes.

Lockstep protocol (one *round* = ``min(delay, slots left)`` timeslots):

* Within a round every worker steps its slots locally.  A cell sent at
  slot ``s`` arrives at ``s + delay``, so with rounds no longer than the
  propagation delay every arrival of round ``R`` was sent in an earlier
  round and is already sitting in the receiver's arrival buffer.
* At the round boundary each worker sends exactly one message per peer:
  the per-slot sub-batches destined to that peer, the per-slot *trigger
  lists* (ascending sender ids of every cell that will consume a
  spraying draw on arrival), and per-slot liveness bits.  Messages are
  tagged ``(segment, round, source shard)`` and re-ordered receiver-side,
  so queue interleaving never reaches the simulation.
* Receivers concatenate sub-batches in shard order, which restores the
  single-process batch: ascending-sender order, exactly what the object
  wire and the vector stepper produce.

Determinism of the spraying RNG is the crux: every worker mirrors the
*same* engine Mersenne Twister and, at each arrival slot, draws the
*global* number of accepted ``randrange(1, r)`` values (the trigger
lists give the exact count and order), then keeps only the draws whose
position matches its own arriving cells.  All workers therefore consume
identical word counts from identical streams, a ``K``-shard run is
bit-exact with the single-process backends, and the shard count never
needs to enter cache keys or checkpoints.

Termination under draining uses the same per-slot liveness bits: a slot
is globally quiescent when every shard reported no pending flow
arrivals, no active flow cursors, no queued cells and no in-flight
cells at its top.  Slots stepped past the first quiescent slot are
provable no-ops (nothing can be sent, drawn or delivered), so workers
may overrun to the round boundary; the parent rewinds ``engine.t`` to
the quiescent slot and drops the overrun sample windows.

The parent engine stays authoritative between segments: after a gather
it replays delivery digests, flow completions, injections and sample
windows in exact single-process order, rebuilds the object model (its
queues via :meth:`~repro.sim.node.Node.absorb_shard_state`), and
resynchronises the engine's ``random.Random`` past the consumed words.
"""

from __future__ import annotations

import time
import traceback
from collections import deque
from typing import Any, Dict, List, Optional

import numpy as np

from ...core.cell import Cell
from .. import tables
from ..node import Transmission
from ..parallel import ShardCrash, ShardWorkerError, get_shard_pool
from . import EngineBackend, default_shards, register_backend
from .object_backend import advance as advance_reference
from .vector import (
    _CREATED,
    _Delivered,
    _EV_DELIVERY,
    _FSIZE,
    _SEQ,
    _SlabTables,
    _VectorRun,
    _fast_ineligible_reason,
    _narrow_reason,
    VectorBackend,
)

__all__ = ["ShardBackend", "shard_ranges"]

#: a message carries slab records as a ``(fields, cells)`` column block:
#: one row per ``cells`` table column
_CELL_COLS = len(tables.TABLES["cells"])

#: what a worker records per delivered cell when a digest is attached:
#: slot and sender (the merge order) plus the delivery event's fields
_REC_FIELDS = ("t", "s", "fid", "seq", "src", "dst", "hops")


def shard_ranges(n: int, r: int, count: int):
    """``count`` contiguous ``[lo, hi)`` node ranges covering ``0..n``.

    When ``count <= r`` and ``n`` divides evenly into digit-0 blocks the
    bounds are block-aligned, so every EBS phase group (a contiguous run
    of ``n // r`` node ids sharing digit 0) lives wholly inside one
    shard.  Alignment is a locality nicety, never a correctness
    requirement — the fallback is a plain even split.
    """
    count = max(1, min(int(count), n))
    if count <= r and n % r == 0:
        block = n // r
        bounds = [((k * r) // count) * block for k in range(count)]
    else:
        bounds = [(k * n) // count for k in range(count)]
    bounds.append(n)
    return [(bounds[k], bounds[k + 1]) for k in range(count)]


def _cells_from_cols(cols: np.ndarray) -> List[Cell]:
    """Materialize :class:`Cell` objects from a ``(_CELL_COLS, m)``
    column block."""
    return list(map(Cell.from_state, zip(*cols.tolist())))


def _rng_state_payload(rng):
    """The engine RNG's MT19937 state as (key array, pos), or None."""
    state = rng.getstate()
    if state[0] != 3 or state[2] is not None:
        return None
    key = state[1]
    return (np.array(key[:-1], dtype=np.uint32), int(key[-1]))


def _resync_engine_rng(engine, payload, words: int) -> None:
    """Advance the engine's ``random.Random`` past ``words`` raw words."""
    if not words:
        return
    key, pos = payload
    bg = np.random.MT19937()
    bg.state = {
        "bit_generator": "MT19937",
        "state": {"key": key, "pos": pos},
    }
    bg.random_raw(words)
    s = bg.state["state"]
    engine.rng.setstate(
        (3, tuple(int(x) for x in s["key"]) + (int(s["pos"]),), None)
    )


class _Proxy:
    """A plain attribute bag standing in for engine sub-objects."""

    def __init__(self, **kw):
        self.__dict__.update(kw)


class _WorkerRun(_VectorRun):
    """One shard's view of a packed stretch, living in a worker process.

    Reuses the parent class's slab, queue, flow-cursor and RNG-mirror
    machinery over *global-width* arrays (only the columns of the local
    node range ``[lo, hi)`` ever hold data), and overrides the per-slot
    sections to exchange cross-shard cells through the mailbox mesh
    instead of an in-process wire.
    """

    def __init__(self, idx, count, tables, task, mail_queues):
        engine = _Proxy(
            config=_Proxy(
                n=tables["n"], h=tables["h"],
                propagation_delay=tables["delay"],
                uses_spray_short=False,
            ),
            coords=_Proxy(r=tables["r"]),
            schedule=_Proxy(
                epoch_length=tables["epoch"],
                phase_table=tables["phase_table"],
            ),
            metrics=_Proxy(max_queue_length=0),
        )
        _VectorRun.__init__(self, engine, _Proxy(
            nbr=tables["nbr"], link_table=tables["link_table"],
        ))
        self.k = idx
        self.K = count
        self.mail = mail_queues
        self.mymail = mail_queues[idx]
        self.seg = task["seg"]
        self.ranges = task["ranges"]
        self.lo, self.hi = self.ranges[idx]
        self.starts = np.array(
            [lo for lo, _ in self.ranges], dtype=np.int64
        )
        self.t0 = task["t0"]
        self.t_end = task["t1"]
        self.drain = task["drain"]
        self.warmup = task["warmup"]
        self.interval = task["interval"]
        self.want_digest = task["digest"]
        self._empty = np.empty(0, dtype=np.int64)
        # segment counters (cumulative over this segment)
        self.m_del = 0      # cells delivered at local nodes
        self.m_inj = 0      # cells injected by local flows
        self.m_sent = 0     # cells sent by local nodes
        self.m_arr = 0      # arrived cells processed (wire departures)
        # per-delivery replay records (filled only for a digest)
        self.rec: Dict[str, List[np.ndarray]] = {
            name: [] for name in _REC_FIELDS
        }
        self.comps: List[tuple] = []     # (t, sender, flow id)
        self.windows: List[dict] = []
        # arrival buffers: slot -> (senders, slab rows, recvs, esph) and
        # slot -> global ascending trigger-sender array
        self.rxbuf: Dict[int, tuple] = {}
        self.trigbuf: Dict[int, np.ndarray] = {}
        # liveness bookkeeping
        self.init_arrs: List[int] = []
        self.init_ptr = 0
        self.sent_hist: deque = deque()  # (slot, sent count)
        self.sent_sum = 0
        self.q_cells = 0
        self.n_has_flow = 0
        # draw stash: this shard's slice of the current slot's global draws
        self._stash = self._empty
        self._stash_pos = 0
        # round exchange state
        self.round_slots: List[dict] = []
        self.round_live: List[bool] = []
        self.backlog: Dict[tuple, list] = {}
        self.load(task)

    # ------------------------------------------------------------------ #
    # task load (columns shipped by the parent's scatter)

    def load(self, task) -> None:
        lo, hi = self.lo, self.hi
        queues = task["queues"]
        counts = queues["counts"]      # (local_n, L)
        qcols = queues["cols"]         # (_CELL_COLS, total), walk order
        wire_total = sum(e[1].size for e in task["wire"])
        m = qcols.shape[1]
        self._init_slab(m + wire_total)
        nid = self.Ln
        if m:
            self._put_cols(np.arange(nid, nid + m), qcols)
        # the per-queue linked lists over the consecutive rows
        self._thread_queues(nid, counts.reshape(-1), lo)
        nid += m
        self.q_cells = m
        # the initial wire: one pre-split sub-batch per arrival slot
        for arr, senders, cols, recvs, esph in task["wire"]:
            w = senders.size
            rows = np.arange(nid, nid + w, dtype=np.int64)
            if w:
                self._put_cols(rows, cols)
                self.rxbuf[arr] = (senders, rows, recvs, esph)
                self.init_arrs.append(arr)
            nid += w
        self.init_arrs.sort()
        for arr, trig in task["wire_trig"]:
            self.trigbuf[arr] = trig
        # rows from here on were never used
        self.bump = nid
        # flow cursors (waiting entries are (fid, dst, sent, size) tuples)
        cur = task["cursor"]
        self.has_flow[lo:hi] = cur["has"]
        self.cur_fid[lo:hi] = cur["fid"]
        self.cur_dst[lo:hi] = cur["dst"]
        self.cur_sent[lo:hi] = cur["sent"]
        self.cur_size[lo:hi] = cur["size"]
        for li, wl in enumerate(cur["waiting"]):
            if wl:
                self.waiting[lo + li].extend(wl)
        self.n_has_flow = int(np.count_nonzero(cur["has"]))
        # pending flow arrivals for local sources, in global deque order,
        # each carrying its precomputed flow id
        self.pending = task["pending"]
        self.pend_ptr = 0
        # delivered counts of the flows destined to this shard
        self.delivered = _Delivered(task["fdel"])
        # the shared RNG mirror
        key, kpos = task["rng"]
        self.rng_prestate = {
            "bit_generator": "MT19937",
            "state": {"key": key, "pos": kpos},
        }
        self.bg = np.random.MT19937()
        self.bg.state = self.rng_prestate

    # ------------------------------------------------------------------ #
    # message blocks <-> slab records

    def _cols(self, rows: np.ndarray) -> np.ndarray:
        """The ``(_CELL_COLS, k)`` message block of slab rows ``rows``."""
        return self._slab[rows].T

    def _put_cols(self, rows: np.ndarray, cols: np.ndarray) -> None:
        """Write the message block ``cols`` into slab rows ``rows``."""
        self._slab[rows] = cols.T

    # ------------------------------------------------------------------ #
    # the draw stash: _forward/_next_hops call _draw for spraying cells;
    # the worker pre-drew the slot's global batch in _rx2 and serves its
    # own slice here, so stream position stays identical across shards

    def _draw(self, k: int) -> np.ndarray:
        pos = self._stash_pos
        self._stash_pos = pos + k
        return self._stash[pos:pos + k]

# ------------------------------------------------------------------ #
    # per-slot sections

    def _live(self, tau: int) -> bool:
        """This shard's contribution to the drain predicate at slot top.

        The global OR across shards equals the single-process predicate
        ``pending or flows._active or in_flight_payload`` exactly: queued
        or cursor state is live at the owning shard, in-flight cells are
        live at their *sender* for lockstep sends (sent within the last
        ``delay`` slots) and at their *receiver* for initial-wire cells.
        """
        if self.pend_ptr < len(self.pending):
            return True
        arrs = self.init_arrs
        ptr = self.init_ptr
        while ptr < len(arrs) and arrs[ptr] < tau:
            ptr += 1
        self.init_ptr = ptr
        if ptr < len(arrs):
            return True
        hist = self.sent_hist
        edge = tau - self.delay
        while hist and hist[0][0] < edge:
            self.sent_sum -= hist.popleft()[1]
        return bool(self.sent_sum or self.n_has_flow or self.q_cells)

    def _rx2(self, t: int) -> None:
        gtrig = self.trigbuf.pop(t, None)
        gvals = None
        if gtrig is not None and gtrig.size:
            gvals = _VectorRun._draw(self, int(gtrig.size))
        self._stash = self._empty
        self._stash_pos = 0
        batch = self.rxbuf.pop(t, None)
        if batch is None:
            return
        senders, cells, recvs, esph = batch
        m = senders.size
        self.m_arr += m
        d = self.c_dst[cells].astype(np.intp)
        deliver = d == recvs
        emask = self.c_sprays[cells] > 0
        if gvals is not None:
            mine = senders[emask & ~deliver]
            if mine.size:
                self._stash = gvals[np.searchsorted(gtrig, mine)]
        del_ids = deliver.nonzero()[0]
        cnt = del_ids.size
        if cnt:
            dc = cells[del_ids]
            self.m_del += cnt
            if self.want_digest:
                rec = self.rec
                rec["t"].append(np.full(cnt, t, dtype=np.int64))
                rec["s"].append(senders[del_ids])
                rec["fid"].append(self.c_fid[dc])
                rec["seq"].append(self.c_seq[dc])
                rec["src"].append(self.c_src[dc])
                rec["dst"].append(d[del_ids])
                rec["hops"].append(self.c_hops[dc])
            fids = self.c_fid[dc]
            complete = self.delivered.deliver(fids, self.c_fsize[dc])
            if np.count_nonzero(complete):
                comps = self.comps
                for s_, f_ in zip(
                    senders[del_ids][complete].tolist(),
                    fids[complete].tolist(),
                ):
                    comps.append((t, s_, f_))
            self._free_cells(dc)
            fwd_ids = (~deliver).nonzero()[0]
            if fwd_ids.size:
                self.q_cells += fwd_ids.size
                self._forward(cells[fwd_ids], recvs[fwd_ids],
                              d[fwd_ids], emask[fwd_ids], esph)
        elif m:
            self.q_cells += m
            self._forward(cells, recvs, d, emask, esph)

    def _inject2(self, t: int) -> None:
        pend = self.pending
        ptr = self.pend_ptr
        while ptr < len(pend) and pend[ptr][0] <= t:
            _, src, dst, size_cells, _, fid = pend[ptr]
            ptr += 1
            if self.has_flow[src]:
                self.waiting[src].append((fid, dst, 0, size_cells))
            else:
                self.has_flow[src] = True
                self.cur_fid[src] = fid
                self.cur_dst[src] = dst
                self.cur_sent[src] = 0
                self.cur_size[src] = size_cells
                self.n_has_flow += 1
        self.pend_ptr = ptr

    def _tx2(self, t: int, slot: int, phase: int) -> None:
        lo, hi = self.lo, self.hi
        n = self.n
        link = self.link_table[slot]
        lens = self.q_len[link]
        pop = lens[lo:hi] > 0
        pop_ids = pop.nonzero()[0]
        npop = pop_ids.size
        if npop:
            gids = pop_ids + lo
            head = self.heads2d[link]
            c = head[gids]
            head[gids] = self.c_nxt[c]
            left = lens[gids] - 1
            lens[gids] = left
            emt = (left == 0).nonzero()[0]
            if emt.size:
                g = gids[emt]
                self.q_tail[link][g] = link * n + g
            self.q_cells -= npop
            if self.hm1 <= 1:
                self.c_sprays[c] = 0
            else:
                sp = self.c_sprays[c]
                self.c_sprays[c] = sp - (sp > 0)
            self.c_prev[c] = gids
            self.c_hops[c] += 1
        emit = self.has_flow[lo:hi] & ~pop
        e = emit.nonzero()[0]
        k = e.size
        if k:
            ge = e + lo
            rec = self._cursor.take(ge, axis=0)
            rec[:, _CREATED] = t
            rows = self._new_cells(rec)
            s = rec[:, _SEQ] + 1
            self.cur_sent[ge] = s
            self.m_inj += k
            done = s >= rec[:, _FSIZE]
            if np.count_nonzero(done):
                for gi in ge[done].tolist():
                    queue = self.waiting[gi]
                    if queue:
                        fid2, dst2, sent2, size2 = queue.popleft()
                        self.cur_fid[gi] = fid2
                        self.cur_dst[gi] = dst2
                        self.cur_sent[gi] = sent2
                        self.cur_size[gi] = size2
                    else:
                        self.has_flow[gi] = False
                        self.n_has_flow -= 1
        entry = {"ents": [None] * self.K, "own": None, "trig": self._empty}
        if npop and k:
            cat = np.concatenate((pop_ids + lo, e + lo))
            perm = cat.argsort(kind="stable")
            senders = cat[perm]
            cells = np.concatenate((c, rows))[perm]
        elif npop:
            senders = pop_ids + lo
            cells = c
        elif k:
            senders = e + lo
            cells = rows
        else:
            self.round_slots.append(entry)
            return
        m = senders.size
        recvs = self.nbr[slot][senders]
        dsts = self.c_dst[cells]
        tmask = (self.c_sprays[cells] > 0) & (recvs != dsts)
        if tmask.any():
            entry["trig"] = senders[tmask]
        ws = np.searchsorted(self.starts, recvs, side="right") - 1
        own_mask = ws == self.k
        if own_mask.all():
            entry["own"] = (senders, cells)
        else:
            for j in range(self.K):
                mask = ws == j
                if not mask.any():
                    continue
                if j == self.k:
                    entry["own"] = (senders[mask], cells[mask])
                else:
                    entry["ents"][j] = (
                        senders[mask], self._cols(cells[mask])
                    )
            self._free_cells(cells[~own_mask])
        self.m_sent += m
        self.sent_hist.append((t, m))
        self.sent_sum += m
        self.round_slots.append(entry)

    def _sample2(self, t: int) -> None:
        lo, hi = self.lo, self.hi
        q = self.q_len[:, lo:hi]
        qt = q.T
        self.windows.append({
            "t": t,
            "dcum": self.m_del,
            "icum": self.m_inj,
            "scum": self.m_sent,
            "net": self.m_sent - self.m_arr,
            "buf": q.sum(axis=0),
            "qnz": qt[qt > 0],
        })

    # ------------------------------------------------------------------ #
    # the round loop and the mailbox exchange

    def run_segment(self) -> dict:
        t = self.t0
        end = self.t_end
        round_idx = 0
        t_star = end
        while t < end:
            B = min(self.delay, end - t)
            self.round_slots = []
            self.round_live = []
            for i in range(B):
                tau = t + i
                self.round_live.append(
                    self._live(tau) if self.drain else True
                )
                slot = tau % self.epoch
                if tau in self.trigbuf or tau in self.rxbuf:
                    self._rx2(tau)
                pend = self.pending
                if self.pend_ptr < len(pend) \
                        and pend[self.pend_ptr][0] <= tau:
                    self._inject2(tau)
                self._tx2(tau, slot, self.phase_table[slot])
                if tau >= self.warmup and tau % self.interval == 0:
                    self._sample2(tau)
            dead_at = self._exchange(t, B, round_idx)
            t += B
            round_idx += 1
            if dead_at is not None:
                t_star = dead_at
                break
        return self._result(t_star, t)

    def _exchange(self, r0: int, B: int, round_idx: int):
        """Swap one round of sub-batches; returns the first globally
        quiescent slot of the round (drain mode), else None."""
        K = self.K
        k = self.k
        slots = self.round_slots
        lives = self.round_live
        for j in range(K):
            if j == k:
                continue
            payload = [
                (slots[i]["ents"][j], slots[i]["trig"], lives[i])
                for i in range(B)
            ]
            self.mail[j].put((self.seg, round_idx, k, payload))
        contrib: Dict[int, list] = {}
        backlog = self.backlog
        for src in range(K):
            if src == k:
                continue
            got = backlog.pop((round_idx, src), None)
            if got is not None:
                contrib[src] = got
        while len(contrib) < K - 1:
            seg, rnd, src, payload = self.mymail.get()
            if seg != self.seg:
                continue
            if rnd != round_idx:
                backlog[(rnd, src)] = payload
                continue
            contrib[src] = payload
        all_dead = [self.drain] * B
        for i in range(B):
            tau = r0 + i
            arr = tau + self.delay
            sslot = tau % self.epoch
            subs_s: List[np.ndarray] = []
            subs_r: List[np.ndarray] = []
            trigs: List[np.ndarray] = []
            for src in range(K):
                if src == k:
                    ent = slots[i]["own"]
                    tg = slots[i]["trig"]
                    lv = lives[i]
                else:
                    ent, tg, lv = contrib[src][i]
                    if ent is not None:
                        senders, cols = ent
                        rows = self._alloc(senders.size)
                        self._put_cols(rows, cols)
                        ent = (senders, rows)
                if lv:
                    all_dead[i] = False
                if ent is not None:
                    subs_s.append(ent[0])
                    subs_r.append(ent[1])
                if tg is not None and tg.size:
                    trigs.append(tg)
            if trigs:
                self.trigbuf[arr] = (
                    trigs[0] if len(trigs) == 1 else np.concatenate(trigs)
                )
            if subs_s:
                senders = (
                    subs_s[0] if len(subs_s) == 1
                    else np.concatenate(subs_s)
                )
                rows = (
                    subs_r[0] if len(subs_r) == 1
                    else np.concatenate(subs_r)
                )
                self.rxbuf[arr] = (
                    senders, rows, self.nbr[sslot][senders],
                    (self.phase_table[sslot] + 1) % self.h,
                )
        if self.drain:
            for i in range(B):
                if all_dead[i]:
                    return r0 + i
        return None

    # ------------------------------------------------------------------ #
    # result gather

    def _result(self, t_star: int, t_end: int) -> dict:
        lo, hi = self.lo, self.hi
        # only this shard's nodes hold cells
        queued = self._queued_rows()
        rec = {
            name: (
                np.concatenate(chunks) if chunks else
                np.empty(0, dtype=np.int64)
            )
            for name, chunks in self.rec.items()
        }
        wire = []
        for arr in sorted(self.rxbuf):
            senders, rows, recvs, _ = self.rxbuf[arr]
            wire.append((arr, senders, self._cols(rows), recvs))
        return {
            "queues": {
                "counts": self.q_len[:, lo:hi].T.copy(),
                "cols": self._cols(queued),
            },
            "cursor": {
                "has": self.has_flow[lo:hi].copy(),
                "fid": self.cur_fid[lo:hi].copy(),
                "dst": self.cur_dst[lo:hi].copy(),
                "sent": self.cur_sent[lo:hi].copy(),
                "size": self.cur_size[lo:hi].copy(),
                "waiting": [
                    list(self.waiting[i]) for i in range(lo, hi)
                ],
            },
            "fdel": self.delivered.items(),
            "rec": rec,
            "comps": self.comps,
            "windows": self.windows,
            "final": {
                "dcum": self.m_del,
                "icum": self.m_inj,
                "scum": self.m_sent,
                "net": self.m_sent - self.m_arr,
                "maxq": self.engine.metrics.max_queue_length,
            },
            "wire": wire,
            "words": self.words_consumed,
            "t_star": t_star,
        }


def _shard_worker_main(idx, count, task_queue, result_queue, mail_queues):
    """Entry point of one persistent shard worker process."""
    tables_cache: Dict[Any, dict] = {}
    while True:
        msg = task_queue.get()
        if msg is None:
            return
        _, segment, task = msg
        try:
            key = task["tables_key"]
            shipped = task.get("tables")
            if shipped is not None:
                tables_cache[key] = shipped
            task["seg"] = segment
            run = _WorkerRun(
                idx, count, tables_cache[key], task, mail_queues
            )
            result_queue.put((idx, segment, "ok", run.run_segment()))
        except Exception:
            result_queue.put(
                (idx, segment, "error", traceback.format_exc())
            )


@register_backend("shard")
class ShardBackend(EngineBackend):
    """Multi-process sharded stepper with per-state fallback.

    Scatter/gather happens once per segment (an :meth:`advance` call,
    split only at the warm-up boundary), not per slot: the parent packs
    the object model into per-shard column payloads, the workers advance
    in lockstep rounds,
    and the parent replays the results back into the authoritative
    object model (see the module docstring for the protocol).  States
    the vector stepper cannot accelerate fall back to the reference
    pipeline exactly as ``"vector"`` does; configurations the workers do
    not carry columns for (spray-short, the hop-by-hop token family) or
    where sharding cannot pay (one shard, zero propagation delay, no
    ``fork``) run on the in-process vector stepper instead — still
    accelerated, so
    ``backend_effective`` stays ``"shard"`` and manifests remain
    shard-count-invariant.
    """

    __slots__ = ("_inner", "dispatches")

    def __init__(self) -> None:
        self._inner = VectorBackend()
        #: pool segments dispatched (observability + tests' engage guard)
        self.dispatches = 0

    # -------------------------------------------------------------- #
    # driver

    def advance(self, engine, end: int, drain: bool) -> None:
        # two questions: can the slab run this state at all (else the
        # reference pipeline, reason recorded), and can *workers* run it
        reason = _fast_ineligible_reason(engine)
        if reason is not None:
            engine.note_backend_effective("object", reason)
            advance_reference(engine, end, drain)
            return
        cfg = engine.config
        ranges = shard_ranges(cfg.n, engine.coords.r, default_shards())
        if (
            cfg.congestion_control != "none"
            or len(ranges) < 2
            or cfg.propagation_delay < 1
        ):
            # workers carry no spray-short or token columns, and with one
            # shard or no lockstep window there is nothing to scatter: run
            # the in-process vector stepper — still accelerated, so this
            # is not a reference fallback and backend_effective is
            # unchanged
            self._inner.advance(engine, end, drain)
            return
        try:
            pool = get_shard_pool(len(ranges), _shard_worker_main)
        except (ImportError, OSError, ValueError):
            self._inner.advance(engine, end, drain)
            return
        metrics = engine.metrics
        while engine.t < end and (not drain or engine.has_pending_work):
            # the measurement crossing is a per-slot check in the
            # single-process loops; workers cannot make it, so a segment
            # stops at the warm-up boundary and the crossing happens here,
            # at exactly the same slot (and, like there, only after the
            # drain test above has had its say)
            seg_end = end
            if not metrics._measuring:
                if engine.t >= metrics.warmup:
                    engine._enter_measurement()
                elif metrics.warmup < end:
                    seg_end = metrics.warmup
            self._segment(engine, seg_end, drain, ranges, pool)

    # -------------------------------------------------------------- #
    # one scatter -> lockstep -> gather segment

    def _segment(self, engine, end, drain, ranges, pool) -> None:
        t0 = engine.t
        started = time.perf_counter()
        scat = self._scatter(engine, t0, end, drain, ranges)
        if scat is None:
            # per-cell disqualification (headers the column layout cannot
            # carry, values a 32-bit record cannot hold): the inner vector
            # backend re-derives the reason and notes the de-acceleration
            # itself
            self._inner.advance(engine, end, drain)
            return
        tasks, init, rngpay = scat
        key = tasks[0]["tables_key"]
        results = None
        for attempt in range(2):
            if not pool.alive():
                pool.respawn()
            tables = None
            if key not in pool.shipped_tables:
                tables = self._tables_payload(engine)
            for task in tasks:
                task["tables"] = tables
            try:
                results = pool.run_segment(tasks)
                pool.shipped_tables.add(key)
                break
            except ShardWorkerError:
                pool.respawn()
                raise
            except ShardCrash:
                # the scatter was read-only, so the engine still holds
                # the authoritative pre-segment state: respawn and retry
                # the identical segment once, then fall back in-process
                pool.respawn()
                if attempt:
                    self._inner.advance(engine, end, drain)
                    return
        self._apply(engine, results, ranges, init, rngpay, t0, drain)
        self.dispatches += 1
        if engine.profiler is not None:
            # the workers' sections are invisible from here: the whole
            # dispatched segment is booked as TX, with the slots it advanced
            engine.profiler.add(
                "tx", time.perf_counter() - started, engine.t - t0
            )

    def _tables_payload(self, engine) -> dict:
        tables = _SlabTables(engine.schedule, engine.coords)
        cfg = engine.config
        schedule = engine.schedule
        return {
            "n": cfg.n,
            "h": cfg.h,
            "r": engine.coords.r,
            "delay": cfg.propagation_delay,
            "epoch": schedule.epoch_length,
            "phase_table": list(schedule.phase_table),
            "link_table": list(tables.link_table),
            "nbr": tables.nbr,
        }

    # -------------------------------------------------------------- #
    # scatter: object model -> per-shard column payloads (read-only)

    def _scatter(self, engine, t0, end, drain, ranges):
        rngpay = _rng_state_payload(engine.rng)
        if rngpay is None or _narrow_reason(engine, end) is not None:
            return None
        cfg = engine.config
        n = cfg.n
        K = len(ranges)
        metrics = engine.metrics
        flows = engine.flows
        h, rm1 = cfg.h, engine.coords.r - 1
        L = h * rm1
        schedule = engine.schedule
        shard_of = np.empty(n, dtype=np.int64)
        for k, (lo, hi) in enumerate(ranges):
            shard_of[lo:hi] = k
        shard_of_l = shard_of.tolist()

        queues = []
        cursors = []
        for lo, hi in ranges:
            counts = np.zeros((hi - lo, L), dtype=np.int64)
            rows: List[tuple] = []
            has = np.zeros(hi - lo, dtype=bool)
            cfid = np.zeros(hi - lo, dtype=np.int64)
            cdst = np.zeros(hi - lo, dtype=np.int64)
            csent = np.zeros(hi - lo, dtype=np.int64)
            csize = np.zeros(hi - lo, dtype=np.int64)
            waitlists = []
            for li in range(hi - lo):
                node = engine.nodes[lo + li]
                for l, items in enumerate(node.link_queues):
                    counts[li, l] = len(items)
                    rows.extend(map(Cell.state, items))
                live = [
                    f for f in node.local_flows if f.sent < f.size_cells
                ]
                wl: List[tuple] = []
                if live:
                    cursor = live[0]
                    has[li] = True
                    cfid[li] = cursor.flow_id
                    cdst[li] = cursor.dst
                    csent[li] = cursor.sent
                    csize[li] = cursor.size_cells
                    wl = [
                        (f.flow_id, f.dst, f.sent, f.size_cells)
                        for f in live[1:]
                    ]
                waitlists.append(wl)
            queues.append({
                "counts": counts,
                "cols": (
                    np.array(rows, dtype=np.int64).T if rows
                    else np.empty((_CELL_COLS, 0), dtype=np.int64)
                ),
            })
            cursors.append({
                "has": has, "fid": cfid, "dst": cdst,
                "sent": csent, "size": csize, "waiting": waitlists,
            })
        # the wire, grouped into per-arrival batches and split by the
        # receiver's shard; the global trigger list (ascending senders of
        # draw-consuming cells) ships to every shard
        batches: List[tuple] = []
        cur = None
        for tx in engine._in_flight:
            cell = tx.cell
            if tx.tokens or tx.ctrl or cell is None:
                return None
            if cur is None or tx.arrival != cur[0]:
                cur = (tx.arrival, [], [], [])
                batches.append(cur)
            cur[1].append(tx.sender)
            cur[2].append(cell.state())
            cur[3].append(tx.receiver)
        wire: List[list] = [[] for _ in range(K)]
        wire_trig: List[tuple] = []
        for arr, sl, rl, vl in batches:
            senders = np.array(sl, dtype=np.int64)
            if senders.size > 1 and np.any(np.diff(senders) <= 0):
                return None  # non-FIFO wire order: not shardable
            cols = np.array(rl, dtype=np.int64).T
            recvs = np.array(vl, dtype=np.int64)
            spraying = cols[4] > 0
            trig = senders[spraying & (recvs != cols[1])]
            if trig.size:
                wire_trig.append((arr, trig))
            # every cell of the batch left on its send slot's phase
            send = (arr - cfg.propagation_delay) % schedule.epoch_length
            esph = (schedule.phase_table[send] + 1) % h
            ws = shard_of[recvs]
            for k in range(K):
                mask = ws == k
                if mask.any():
                    wire[k].append(
                        (arr, senders[mask], cols[:, mask],
                         recvs[mask], esph)
                    )
        # pending flow arrivals, bucketed by source shard with their
        # flow ids precomputed from the global injection order, and the
        # delivered count of every flow the advance can deliver cells of
        # (active, or arriving before ``end``), at its destination's shard
        # only, so every worker report is authoritative for its flows
        pend: List[list] = [[] for _ in range(K)]
        fdel: List[list] = [[] for _ in range(K)]
        for fid, flow in flows._active.items():
            fdel[shard_of_l[flow.dst]].append((fid, flow.delivered))
        next_id = flows._next_id
        for off, entry in enumerate(engine._pending_flows):
            arrival, src, dst, size_cells, size_bytes = entry
            pend[shard_of_l[src]].append(
                (arrival, src, dst, size_cells, size_bytes,
                 next_id + off)
            )
            if arrival < end:
                fdel[shard_of_l[dst]].append((next_id + off, 0))
        tables_key = (
            getattr(cfg, "schedule", ""), n, cfg.h, engine.coords.r,
            cfg.propagation_delay,
        )
        tasks = []
        for k in range(K):
            tasks.append({
                "t0": t0, "t1": end, "drain": drain,
                "warmup": metrics.warmup,
                "interval": metrics.sample_interval,
                "digest": engine.digest is not None,
                "ranges": ranges,
                "rng": rngpay,
                "tables_key": tables_key,
                "queues": queues[k],
                "cursor": cursors[k],
                "wire": wire[k],
                "wire_trig": wire_trig,
                "pending": pend[k],
                "fdel": fdel[k],
            })
        init = {
            "delivered": metrics.payload_cells_delivered,
            "injected": metrics.cells_injected,
            "sent": metrics.cells_sent,
            "ifp": engine._in_flight_payload,
            "maxq": metrics.max_queue_length,
        }
        return tasks, init, rngpay

    # -------------------------------------------------------------- #
    # gather: worker results -> authoritative object model

    def _apply(self, engine, results, ranges, init, rngpay, t0, drain):
        metrics = engine.metrics
        flows = engine.flows
        digest = engine.digest
        K = len(ranges)
        t_star = results[0]["t_star"]
        words = results[0]["words"]
        for res in results[1:]:
            if res["t_star"] != t_star or res["words"] != words:
                raise AssertionError(
                    "shard workers diverged (stop slot / RNG words)"
                )
        # delivery records, merged back into global batch order: within
        # a slot batches are ascending-sender, so (t, sender) sorts the
        # per-worker record streams into the single-process fold order
        if digest is not None:
            rec = {
                name: np.concatenate([r["rec"][name] for r in results])
                for name in _REC_FIELDS
            }
            order = np.lexsort((rec["s"], rec["t"]))
            digest.fold_table(np.column_stack(
                [np.full(order.size, _EV_DELIVERY, dtype=np.int64)]
                + [rec[name][order]
                   for name in ("fid", "seq", "src", "dst", "hops", "t")]
            ))
        # flow completions (ascending (t, sender) restores the in-batch
        # finalize order), injections and sample windows replay in one
        # time-ordered sweep with the single-process within-slot order:
        # completions, then injections, then the window close
        comps = sorted(c for r in results for c in r["comps"])
        pending = engine._pending_flows
        injections = []
        while pending:
            arrival = pending[0][0]
            t_inj = arrival if arrival > t0 else t0
            if t_inj >= t_star:
                break
            injections.append((t_inj,) + tuple(pending.popleft()))
        win_rows: Dict[int, list] = {}
        for k, res in enumerate(results):
            for row in res["windows"]:
                win_rows.setdefault(row["t"], [None] * K)[k] = row
        win_ts = sorted(win_rows)
        sweep_ts = sorted(
            {c[0] for c in comps}
            | {i[0] for i in injections}
            | {t for t in win_ts if t < t_star}
        )
        def set_counters(parts):
            """The absolute counters as of the workers' ``parts`` (one
            window row, or the final report, per shard)."""
            metrics.payload_cells_delivered = init["delivered"] + sum(
                p["dcum"] for p in parts)
            metrics.cells_injected = init["injected"] + sum(
                p["icum"] for p in parts)
            metrics.cells_sent = init["sent"] + sum(p["scum"] for p in parts)
            engine._in_flight_payload = init["ifp"] + sum(
                p["net"] for p in parts)

        ci = ii = 0
        for t in sweep_ts:
            while ci < len(comps) and comps[ci][0] == t:
                _, _, fid = comps[ci]
                ci += 1
                flow = flows._active.get(fid)
                if flow is None:
                    continue
                flow.delivered = flow.size_cells
                engine._finish_flow(flow, t)
            while ii < len(injections) and injections[ii][0] == t:
                _, arrival, src, dst, size_cells, size_bytes = \
                    injections[ii]
                ii += 1
                engine._start_flow(
                    t, arrival, src, dst, size_cells, size_bytes
                )
            rows = win_rows.get(t)
            if rows is None or t >= t_star:
                continue
            if any(r is None for r in rows):
                raise AssertionError("shard sample windows diverged")
            set_counters(rows)
            # shards own ascending node ranges, so joining their rows in
            # shard order restores node-id order
            engine._close_window(
                t,
                np.concatenate([r["buf"] for r in rows]),
                np.concatenate([r["qnz"] for r in rows]),
                active_buckets=0,  # workers step cc=none only: no buckets
            )
        # final counters and the queue maximum.  The buffer maximum comes
        # only from the replayed (valid) windows above, while
        # max_queue_length is enqueue-driven and overrun slots past the
        # quiescent stop provably enqueue nothing, so the worker cums are
        # exact.
        finals = [r["final"] for r in results]
        set_counters(finals)
        maxq = max(init["maxq"], max(f["maxq"] for f in finals))
        if maxq > metrics.max_queue_length:
            metrics.max_queue_length = maxq
        for res in results:
            for fid, delivered in res["fdel"]:
                flow = flows._active.get(fid)
                if flow is not None:
                    flow.delivered = delivered
        # queues, cursors and the nodes with work
        busy = []
        placed = set()
        for k, res in enumerate(results):
            lo, hi = ranges[k]
            q = res["queues"]
            made = _cells_from_cols(q["cols"])
            counts = q["counts"].tolist()
            cur = res["cursor"]
            has_l = cur["has"].tolist()
            fid_l = cur["fid"].tolist()
            sent_l = cur["sent"].tolist()
            pos = 0
            for li in range(hi - lo):
                node = engine.nodes[lo + li]
                per_link = []
                for cnt in counts[li]:
                    per_link.append(made[pos:pos + cnt])
                    pos += cnt
                node.absorb_shard_state(per_link)
                local = []
                if has_l[li]:
                    flow = flows._active[fid_l[li]]
                    flow.sent = sent_l[li]
                    local.append(flow)
                    placed.add(fid_l[li])
                for wfid, _, wsent, _ in cur["waiting"][li]:
                    flow = flows._active[wfid]
                    flow.sent = wsent
                    local.append(flow)
                    placed.add(wfid)
                node.local_flows = local
                if local or node.total_enqueued:
                    busy.append(lo + li)
        engine._set_active(busy)
        # every other active flow has finished sending (it is held by no
        # cursor or waiting list), so its cursor position is its size
        for fid, flow in flows._active.items():
            if fid not in placed:
                flow.sent = flow.size_cells
        # the wire: leftover arrival batches, re-merged in send order
        in_flight = engine._in_flight
        in_flight.clear()
        ents = []
        for res in results:
            for arr, senders, cols, recvs in res["wire"]:
                for s, r, cell in zip(
                    senders.tolist(), recvs.tolist(),
                    _cells_from_cols(cols),
                ):
                    ents.append((arr, s, r, cell))
        ents.sort(key=lambda e: (e[0], e[1]))
        for arr, s, r, cell in ents:
            tx = Transmission(s, r, cell, (), ())
            tx.arrival = arr
            in_flight.append(tx)
        _resync_engine_rng(engine, rngpay, words)
        engine.t = t_star
