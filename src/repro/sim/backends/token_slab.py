"""Hop-by-hop tokens on the vector slab.

:class:`TokenRun` extends the ``cc="none"`` stepper
(:class:`~repro.sim.backends.vector._VectorRun`) with the paper's
hop-by-hop flow control (Section 3.3.2) at the uniform budget
``T = T_F = 1``, bit-exact with ``Node.transmit`` / ``Node.receive``:

* **ledger** — the outstanding ``(node, link, dst, sprays)`` charges.  With
  a budget of one a pair either has its credit or has spent it, so the
  ledger is a *set*; it is kept as one sorted int64 key column per link
  (key ``(node * n + dst) * h + sprays``), because every ledger operation
  of a slot touches a single link: the TX link for the eligibility lookups
  and charges, the link the arriving batch came in on for the credits.
  Its size is the number of tokens outstanding, not ``n * L * n * h``.
* **PIEO pick** — "first eligible cell, final hop free" runs as scan
  rounds over the linked-list queues: round one tests every non-empty
  queue's head, round ``k`` the ``k``-th cell of the queues still blocked
  and at least ``k`` long.  A mid-list pick unlinks through its
  predecessor, so FIFO order holds.
* **token return** — per-(node, link) FIFOs of bucket codes (``dst * h +
  sprays + 1``; 0 is no token), the oldest first and 0 past the last,
  drained ``tokens_per_header`` at a time into whatever the node sends
  toward that neighbour, or into a bare header when it sends no cell.  A
  wire batch carries only its token-bearing headers, as their receivers
  and a ``(headers, tokens_per_header)`` block of codes (0 where a header
  holds fewer).
* **active buckets** — dense per-(node, bucket) reference counts and each
  node's count of active buckets.

See DESIGN.md §11 for the column layout and the within-slot event order.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from ...core.header import TOKEN_REGULAR
from .vector import (_DST, _FID, _FSIZE, _HEADERS, _SEQ, _Decline, _pages,
                     _regrow, _VectorRun)

__all__ = ["TokenRun"]

_EV_TOKENS = 4  # DeterminismDigest token tag (see repro.sim.digest)

#: closes every ledger column, so a lookup never indexes past the end
_LEDGER_END = np.iinfo(np.int64).max

#: the record fields a waiting flow's cell takes from the flow
_FLOW_FIELDS = [_DST, _FID, _SEQ, _FSIZE]


def _positions(keys: np.ndarray):
    """For ``keys`` whose equal values are adjacent: each entry's position
    within its run, and every run's length."""
    first = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])[: keys.size]
    held = np.diff(np.r_[first, keys.size])
    return np.arange(keys.size) - np.repeat(first, held), held


class TokenRun(_VectorRun):
    """One packed stretch of hop-by-hop stepping (see the module docstring)."""

    #: initial token-FIFO capacity (a power of two, at least
    #: ``tokens_per_header``; a FIFO that fills doubles them all)
    RING_SLOTS = 4

    def __init__(self, engine, tables):
        super().__init__(engine, tables)
        self.peer, back, self.pair_key, self.pair_link = tables.links
        self.back = back.tolist()
        n, h, L = self.n, self.h, self.L
        nh = self.nh = n * h
        tph = self.tph = engine.config.tokens_per_header
        self.ledger = [
            np.array([_LEDGER_END], dtype=np.int64) for _ in range(L)
        ]
        # active-bucket tracker: ref[node * nh + dst * h + sprays]
        self.tr_ref = _pages(n * nh, np.int32)
        self.tr_active = np.zeros(n, dtype=np.int64)
        # token-return FIFOs, one per queue index ``link * n + node``
        self.tq_cap = self.RING_SLOTS
        while self.tq_cap < tph:
            self.tq_cap *= 2
        self.tq = _pages((self.Ln, self.tq_cap))
        self.tq_len = np.zeros(self.Ln, dtype=np.int64)
        # the FIFO index ``link * n`` of the batch being received: its
        # receivers owe the tokens of its cells on that link
        self._rx_fifo = 0
        # per-slot TX scratch: whether the cell a node sends (``_cell_of``,
        # -1: none) is a fresh emission
        self._fresh = np.zeros(n, dtype=bool)
        # a bucket's code is ``dst * h + sprays + 1``, and node ``i``'s key
        # for it ``_node_base[i] + code`` (the ledger's and the tracker's
        # ``(i * n + dst) * h + sprays``)
        ids = np.arange(n, dtype=np.int64)
        self._node_base = ids * nh - 1
        self._dst_code = ids * h + 1
        self._first_key = self._node_base + self.hm1
        dst, sprays = np.divmod(np.arange(-1, nh, dtype=np.int64), h)
        onward = sprays - (sprays > 0)
        #: per code: the code of the bucket a forwarded cell takes at the
        #: next hop, and that bucket's sprays (int32, as the records hold it)
        self._onward_code = dst * h + onward + 1
        self._onward = onward.astype(np.int32)
        #: per code: a token's digest fields (dest, sprays, kind); code 0,
        #: no token, has none
        self._token_fields = np.stack(
            (dst, sprays, np.full(nh + 1, TOKEN_REGULAR)), axis=1)
        self._token_fields[0] = 0
        #: on_tokens row width by tokens carried
        self._token_width = 4 + 3 * np.arange(tph + 1)

    def _event_width(self) -> int:
        # on_tokens rows: [tag, sender, receiver, t, (dest, sprays, kind)
        # per token], never narrower than a delivery's
        return max(super()._event_width(),
                   4 + 3 * self.engine.config.tokens_per_header)

    # ------------------------------------------------------------------ #
    # slab management: one more per-cell column, beside the record block,
    # whose rows stay exactly the ``cells`` table's

    def _init_slab(self, count: int) -> None:
        super()._init_slab(count)
        #: the FIFO (``link * n + holder``) of the token the cell's
        #: current holder owes ``c_prev``
        self.c_back = _pages(self.cap)

    def _grow_slab(self, rows: int) -> None:
        super()._grow_slab(rows)
        self.c_back = _regrow(self.c_back, self.cap, self.Ln, self.bump)

    # ------------------------------------------------------------------ #
    # pack / export

    def _link_between(self, nodes, neighbors) -> np.ndarray:
        """The link on which each of ``nodes`` reaches its ``neighbors``."""
        key = np.asarray(nodes, dtype=np.int64) * self.n \
            + np.asarray(neighbors, dtype=np.int64)
        pos = np.minimum(self.pair_key.searchsorted(key),
                         self.pair_key.size - 1)
        if (self.pair_key[pos] != key).any():
            raise _Decline(_HEADERS)
        return self.pair_link[pos]

    def _pack_nodes(self, model) -> int:
        nid = super()._pack_nodes(model)
        n, h, nh = self.n, self.h, self.nh
        # queued cells sit in rows [Ln, nid) in node-major walk order
        holders = np.repeat(np.arange(n), self.q_len.sum(axis=0))
        self.c_back[self.Ln:nid] = self._link_between(
            holders, self.c_prev[self.Ln:nid]
        ) * n + holders
        holder, nb, dst, sprays, _, first_hop = model["ledger"].T
        if first_hop.any():
            raise _Decline("ledger carries first-hop markings")
        # with T = T_F = 1 every recorded pair holds exactly one charge
        link = self._link_between(holder, nb)
        key = (holder * n + dst) * h + sprays
        order = np.lexsort((key, link))
        key = key[order]
        cuts = link[order].searchsorted(np.arange(self.L + 1)).tolist()
        self.ledger = [np.append(key[lo:hi], _LEDGER_END)
                       for lo, hi in zip(cuts, cuts[1:])]
        holder, dst, sprays, count = model["tracker"].T
        self.tr_ref[holder * nh + dst * h + sprays] = count
        self.tr_active[:] = np.bincount(holder, minlength=n)
        holder, nb, *token = model["tokens"].T
        if holder.size:
            q = self._link_between(holder, nb) * n + holder
            slot, held = _positions(q)
            while self.tq_cap < held.max():
                self._grow_rings()
            self.tq[q, slot] = self._token_codes(*token)
            self.tq_len[q[slot == 0]] = held
        return nid

    def _header_codes(self, model):
        wire, *token = model["wire_tokens"].T
        slot, held = _positions(wire)
        if held.size and held.max() > self.tph:
            raise _Decline(_HEADERS)
        codes = np.zeros((self.tph, len(model["wire"])), dtype=np.int64)
        codes[slot, wire] = self._token_codes(*token)
        return codes

    def _wire_batch(self, arrival, senders, rows, recvs, fresh, esph, tokens):
        # one TX slot, one link: every receiver hears its sender on the
        # same return link
        back = self._link_between(recvs, senders)
        if (back != back[0]).any():
            raise _Decline(_HEADERS)
        headers = tokens[0] > 0
        payload = rows >= 0
        if (~payload & ~headers).any():
            raise _Decline(_HEADERS)  # a header with nothing in it
        tokens = (recvs[headers], tokens[:, headers].T.copy()) \
            if headers.any() else None
        return (arrival, senders[payload], rows[payload], recvs[payload],
                fresh[payload], esph, tokens, int(back[0]))

    def _token_codes(self, dest, sprays, kind) -> np.ndarray:
        """The bucket code of each token, all regular (the only kind a
        FIFO or a header holds on the slab)."""
        if (kind != TOKEN_REGULAR).any():
            raise _Decline(_HEADERS)
        return dest * self.h + sprays + 1

    def _export_batch(self, model, batch, lo: int):
        senders, rows, recvs = batch[1], batch[2], batch[3]
        if batch[6] is None:
            return senders, recvs, rows
        # the token-bearing headers, and the bare ones among them, merged
        # into the payload transmissions in sender order
        back, (heard, codes) = batch[7], batch[6]
        owing = self.peer[back, heard]
        bare = ~np.isin(owing, senders)
        senders = np.concatenate((senders, owing[bare]))
        order = senders.argsort()
        senders = senders[order]
        recvs = np.concatenate((recvs, heard[bare]))[order]
        rows = np.concatenate((rows, np.full(bare.sum(), -1)))[order]
        # by transmission, then header position
        held = codes > 0
        at = lo + senders.searchsorted(owing)
        model["wire_tokens"] = np.concatenate((
            model["wire_tokens"],
            self._token_rows(codes[held], np.repeat(at, held.sum(axis=1))),
        ))
        return senders, recvs, rows

    def _token_rows(self, codes, *keys) -> np.ndarray:
        """``(*keys, dest, sprays, kind)`` rows for the tokens ``codes``."""
        return np.column_stack((*keys, self._token_fields[codes]))

    def export_model(self):
        model = super().export_model()
        n, h, nh = self.n, self.h, self.nh
        # ledger charges, every link's column, in (holder, neighbour,
        # dest, sprays) order
        key = np.concatenate([column[:-1] for column in self.ledger])
        link = np.repeat(
            np.arange(self.L), [column.size - 1 for column in self.ledger]
        )
        holder, code = np.divmod(key, nh)
        ledger = np.stack((
            holder, self.peer[link, holder], *np.divmod(code, h),
            np.ones_like(key), np.zeros_like(key),
        ))
        model["ledger"] = ledger[:, np.lexsort(ledger[3::-1])].T
        live = self.tr_ref.nonzero()[0]
        holder, code = np.divmod(live, nh)
        model["tracker"] = np.stack(
            (holder, *np.divmod(code, h), self.tr_ref[live])).T
        # token FIFOs in (holder, neighbour) order, each oldest first
        used = self.tq_len.nonzero()[0]
        nb = self.peer.reshape(-1)[used]
        order = np.lexsort((nb, used % n))
        used, nb = used[order], nb[order]
        held = self.tq_len[used]
        model["tokens"] = self._token_rows(
            self.tq[used][np.arange(self.tq_cap) < held[:, None]],
            np.repeat(used % n, held), np.repeat(nb, held),
        )
        return model

    # ------------------------------------------------------------------ #
    # ledger columns

    def _spent(self, link: int, key) -> np.ndarray:
        column = self.ledger[link]
        return column[column.searchsorted(key)] == key

    def _charge(self, link: int, keys: List[np.ndarray]) -> None:
        self.ledger[link] = np.sort(
            np.concatenate((*keys, self.ledger[link]))
        )

    def _credit(self, link: int, key) -> None:
        column = self.ledger[link]
        pos = column.searchsorted(key)
        # a token for an un-charged pair is a tolerated no-op
        pos = pos[column[pos] == key]
        keep = np.empty(column.size, dtype=bool)
        keep.fill(True)
        keep[pos] = False
        self.ledger[link] = column[keep]

    # ------------------------------------------------------------------ #
    # active-bucket tracker (ActiveBucketTracker acquire / release over
    # distinct nodes)

    def _release(self, nodes, idx) -> None:
        count = self.tr_ref[idx]
        self.tr_ref[idx] = count - (count > 0)
        self.tr_active[nodes] -= count == 1

    def _active_buckets(self) -> int:
        return int(self.tr_active.max())

    # ------------------------------------------------------------------ #
    # token-return FIFOs

    def _grow_rings(self) -> None:
        self.tq = _regrow(self.tq, (self.Ln, 2 * self.tq_cap), 0, self.Ln)
        self.tq_cap *= 2

    def _queue_tokens(self, q, code) -> None:
        """Append one token per FIFO in ``q`` (distinct FIFOs)."""
        length = self.tq_len[q]
        if length.max() >= self.tq_cap:
            self._grow_rings()
        self.tq[q, length] = code
        self.tq_len[q] = length + 1

    def _drain_tokens(self, link: int):
        """Up to ``tokens_per_header`` codes from every non-empty FIFO
        toward this slot's neighbour: ``(nodes, codes (k, tph) padded with
        0, how many each node sends)``, or None when no node owes any."""
        lo = link * self.n
        owed = self.tq_len[lo:lo + self.n]
        owing = owed.nonzero()[0]
        if not owing.size:
            return None
        q = owing + lo
        tph = self.tph
        held = self.tq.take(q, axis=0)
        # the rest move to the front, and 0 fills in behind them
        self.tq[q, :-tph] = held[:, tph:]
        self.tq[q, -tph:] = 0
        length = owed[owing]
        taken = np.minimum(length, tph)
        owed[owing] = length - taken
        return owing, held[:, :tph], taken

    # ------------------------------------------------------------------ #
    # per-slot sections

    def _rx(self, t: int) -> None:
        batches = self.batches
        while batches and batches[0][0] <= t:
            _, _, cells, recvs, fresh, esph, tokens, back = batches.popleft()
            if tokens is not None:
                self._receive_tokens(*tokens, back)
            self._rx_fifo = back * self.n
            if cells.size:
                self._arrive(t, cells, recvs, fresh, esph)

    def _receive_tokens(self, recvs, codes, back: int) -> None:
        """Header tokens at their receivers: restore the ledger credit and
        release the bucket, header position by header position (so two
        tokens in one header act in order; every header holds a first)."""
        base = self._node_base[recvs]
        keys = base + codes[:, 0]
        self._release(recvs, keys)
        for col in codes.T[1:]:
            have = col.nonzero()[0]
            if not have.size:
                break
            key = base[have] + col[have]
            self._release(recvs[have], key)
            keys = np.concatenate((keys, key))
        self._credit(back, keys)

    def _forward(self, fc, rv, dd, emask, esph) -> None:
        super()._forward(fc, rv, dd, emask, esph)
        self.c_back[fc] = rv + self._rx_fifo
        # the cell now occupies bucket (dst, sprays) at its receiver
        idx = self._node_base[rv] + self._dst_code[dd] + self.c_sprays[fc]
        count = self.tr_ref[idx]
        self.tr_ref[idx] = count + 1
        # no node's count exceeds the recorded peak, so the receivers'
        # largest count is the peak's candidate
        active = self.tr_active[rv] + (count == 0)
        self.tr_active[rv] = active
        mx = int(active.max())
        metrics = self.engine.metrics
        if mx > metrics.max_active_buckets:
            metrics.max_active_buckets = mx

    def _headers(self, ids, cells, nb):
        """For cells ``cells`` held by ``ids``: the code of the bucket each
        occupies here, the ledger key of the bucket it takes at the next
        hop, and whether that hop is its last."""
        dst = self.c_dst[cells].astype(np.intp)
        code = self._dst_code[dst] + self.c_sprays[cells]
        key = self._node_base[ids] + self._onward_code[code]
        return code, key, nb[ids] == dst

    def _pick(self, link: int, ids, nb):
        """PIEO extraction on every non-empty queue of ``link``: the first
        cell that is on its final hop or whose next-hop bucket has credit.

        Returns ``(nodes, cells, pred, left, code, key, final)``: the
        picked cells with their list predecessors and the cells from each
        to its queue's tail, then :meth:`_headers` of the picks.
        """
        nxt = self.c_nxt
        column = self.ledger[link]
        pred = ids + link * self.n      # round one: the queue sentinels
        cells = nxt[pred]
        left = self.q_len[link][ids]
        code, key, final = self._headers(ids, cells, nb)
        ok = final | (column[column.searchsorted(key)] != key)
        if np.count_nonzero(ok) == ok.size:
            return ids, cells, pred, left, code, key, final
        # later rounds: the next cell of every queue still blocked that
        # has one; a pick takes its queue's place in the round-one arrays
        blocked = (~ok & (left > 1)).nonzero()[0]
        before = cells[blocked]
        depth = 1
        while blocked.size:
            here = nxt[before]
            _, key, final = self._headers(ids[blocked], here, nb)
            hit = final | (column[column.searchsorted(key)] != key)
            at = blocked[hit]
            cells[at] = here[hit]
            pred[at] = before[hit]
            left[at] -= depth
            ok[at] = True
            depth += 1
            more = ~hit & (left[blocked] > depth)
            blocked = blocked[more]
            before = here[more]
        picked = ok.nonzero()[0]
        ids, cells = ids[picked], cells[picked]
        return (ids, cells, pred[picked], left[picked],
                *self._headers(ids, cells, nb))

    def _admit_blocked(self, link: int, blocked, t: int):
        """``Node._pick_flow``'s fallback for sources whose cursor flow has
        no first-hop credit: the first waiting flow that has.

        Returns ``(nodes, records, keys)`` of the cells admitted this way
        (``records`` without ``created_at``), or None when there are none.
        """
        waiting = self.waiting
        n, h, hm1 = self.n, self.h, self.hm1
        options = [(i, flow) for i in blocked.tolist() if waiting[i]
                   for flow in waiting[i]]
        if not options:
            return None
        key = np.array([(i * n + flow.dst) * h + hm1 for i, flow in options],
                       dtype=np.int64)
        chosen: Dict[int, tuple] = {}
        for (i, flow), k, spent in zip(options, key.tolist(),
                                       self._spent(link, key).tolist()):
            if not spent and i not in chosen:
                chosen[i] = (flow, k)
        if not chosen:
            return None
        nodes = np.array(list(chosen), dtype=np.int64)
        records = self._cursor.take(nodes, axis=0)
        records[:, _FLOW_FIELDS] = [
            (flow.dst, flow.flow_id, flow.sent, flow.size_cells)
            for flow, _ in chosen.values()
        ]
        for i, (flow, _) in chosen.items():
            flow.sent += 1
            if flow.sent >= flow.size_cells:
                waiting[i].remove(flow)
        self.engine.metrics.cells_injected += nodes.size
        return nodes, records, np.array([k for _, k in chosen.values()],
                                        dtype=np.int64)

    def _send_forwards(self, link: int, nb, charges: list) -> int:
        """The PIEO pick on every non-empty queue of ``link``, with what
        forwarding a cell entails: unlink it, token upstream, bucket
        release, header update.  Returns the number of cells picked."""
        qlen = self.q_len[link]
        queued = qlen.nonzero()[0]
        if not queued.size:
            return 0
        ids, cells, pred, left, code, key, final = self._pick(
            link, queued, nb
        )
        if not ids.size:
            return 0
        # a last cell's nxt is past its list's end: its predecessor, the
        # new tail, takes it unread
        nxt = self.c_nxt
        nxt[pred] = nxt[cells]
        last = (left == 1).nonzero()[0]
        if last.size:
            self.q_tail[link][ids[last]] = pred[last]
        qlen[ids] -= 1
        # the token names the bucket the cell occupied here
        self._queue_tokens(self.c_back[cells], code)
        self._release(ids, self._node_base[ids] + code)
        self.c_sprays[cells] = self._onward[code]
        self.c_prev[cells] = ids
        self.c_hops[cells] += 1
        self._cell_of[ids] = cells
        charges.append(key[~final])
        return ids.size

    def _send_admissions(self, link: int, t: int, charges: list) -> int:
        """First-hop admission for every source with nothing to forward,
        against the bucket ``(neighbour, flow.dst, h-1)`` — charged even
        when the neighbour is the destination, as ``_emit_flow_cell``
        does.  Returns the number of cells admitted."""
        cell_of = self._cell_of
        e = (self.has_flow & (cell_of < 0)).nonzero()[0]
        if not e.size:
            return 0
        key = self._first_key[e] \
            + self._dst_code[self.cur_dst[e].astype(np.intp)]
        spent = self._spent(link, key)
        late = None
        if np.count_nonzero(spent):
            late = self._admit_blocked(link, e[spent], t)
            go = ~spent
            e, key = e[go], key[go]
        charges.append(key)
        if late is None:
            cell_of[e] = self._emit(e, t)
        else:
            nodes, records, keys = late
            charges.append(keys)
            rows = self._emit(e, t, records)
            e = np.concatenate((e, nodes))
            cell_of[e] = rows
        self._fresh[e] = True
        return e.size

    def _tx(self, t: int, slot: int, phase: int) -> None:
        engine = self.engine
        link = self.link_table[slot]
        nb = self.peer[link]
        cell_of = self._cell_of
        cell_of.fill(-1)
        self._fresh.fill(False)
        charges: List[np.ndarray] = []
        payload = self._send_forwards(link, nb, charges) \
            + self._send_admissions(link, t, charges)
        if charges:
            self._charge(link, charges)
        drained = self._drain_tokens(link)
        metrics = engine.metrics
        # transmissions: the payload ones, plus a bare header from every
        # node that owes tokens and sends no cell
        m = payload
        tokens = None
        if drained is not None:
            owing, codes, taken = drained
            heard = nb[owing]
            tokens = (heard, codes)
            m += int(np.count_nonzero(cell_of[owing] < 0))
            metrics.tokens_sent += int(taken.sum())
            if engine.digest is not None:
                # one on_tokens event per token-bearing header, in sender
                # order; an absent token's fields are the zero row
                ev = self._events(owing.size, self._token_width[taken])
                ev[:, 0] = _EV_TOKENS
                ev[:, 1] = owing
                ev[:, 2] = heard
                ev[:, 3] = t
                ev[:, 4:4 + 3 * self.tph] = self._token_fields.take(
                    codes, axis=0).reshape(owing.size, -1)
        if not m:
            return
        senders = (cell_of >= 0).nonzero()[0]
        self.batches.append((
            t + self.delay, senders, cell_of[senders], nb[senders],
            self._fresh[senders], (phase + 1) % self.h, tokens,
            self.back[link],
        ))
        metrics.cells_sent += m
        metrics.dummy_cells_sent += m - payload
        engine._in_flight_payload += payload
