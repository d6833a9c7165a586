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
* **token return** — per-(node, link) ring buffers of ``dst * h + sprays``
  codes, drained ``tokens_per_header`` at a time into whatever the node
  sends toward that neighbour, or into a bare header (a wire row whose
  cell is ``-1``) when it sends nothing else.
* **active buckets** — dense per-(node, bucket) reference counts with the
  per-node active count and its high-water mark.

See DESIGN.md §11 for the column layout and the within-slot event order.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from ...core.header import TOKEN_REGULAR
from .vector import _HEADERS, _Decline, _VectorRun

__all__ = ["TokenRun"]

_EV_TOKENS = 4  # DeterminismDigest token tag (see repro.sim.digest)

#: closes every ledger column, so a lookup never indexes past the end
_LEDGER_END = np.iinfo(np.int64).max


def _positions(keys: np.ndarray):
    """For ``keys`` whose equal values are adjacent: each entry's position
    within its run, and every run's length."""
    first = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])[: keys.size]
    held = np.diff(np.r_[first, keys.size])
    return np.arange(keys.size) - np.repeat(first, held), held


class TokenRun(_VectorRun):
    """One packed stretch of hop-by-hop stepping (see the module docstring)."""

    #: initial token-ring capacity (a power of two; rings double when full)
    RING_SLOTS = 4

    def __init__(self, engine, tables):
        super().__init__(engine, tables)
        self.peer, back, self.pair_key, self.pair_link = tables.links
        self.back = back.tolist()
        n, h, L = self.n, self.h, self.L
        self.nh = n * h
        self.tph = engine.config.tokens_per_header
        self.ledger = [
            np.array([_LEDGER_END], dtype=np.int64) for _ in range(L)
        ]
        # active-bucket tracker: ref[node * nh + dst * h + sprays]
        self.tr_ref = np.zeros(n * self.nh, dtype=np.int32)
        self.tr_active = np.zeros(n, dtype=np.int64)
        # token-return rings, one per queue index ``link * n + node``
        self.tq_cap = self.RING_SLOTS
        self.tq = np.zeros((self.Ln, self.tq_cap), dtype=np.int64)
        # heads run free: positions are read modulo the capacity
        self.tq_head = np.zeros(self.Ln, dtype=np.int64)
        self.tq_len = np.zeros(self.Ln, dtype=np.int64)
        # the link on which the batch being received reaches its senders
        self._rx_back = 0
        # per-slot TX scratch: whether the cell a node sends (``_cell_of``,
        # -1: none) is a fresh emission
        self._fresh = np.zeros(n, dtype=bool)
        self._tok_field = np.arange(4 + 3 * self.tph)
        self._header_slot = np.arange(self.tph)

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
        #: link on which the cell's current holder reaches ``c_prev``
        self.c_back = np.zeros(self.cap, dtype=np.int64)

    def _grow_slab(self, need: int) -> None:
        old = self.c_back
        super()._grow_slab(need)
        self.c_back = np.zeros(self.cap, dtype=np.int64)
        self.c_back[: old.size] = old

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
        )
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
        codes = np.full((self.tph, len(model["wire"])), -1, dtype=np.int64)
        codes[slot, wire] = self._token_codes(*token)
        return codes

    def _wire_batch(self, arrival, senders, rows, recvs, fresh, esph, tokens):
        # one TX slot, one link: every receiver hears its sender on the
        # same return link
        back = self._link_between(recvs, senders)
        if (back != back[0]).any():
            raise _Decline(_HEADERS)
        if not ((tokens >= 0).any() or (rows < 0).any()):
            tokens = None
        return (arrival, senders, rows, recvs, fresh, esph, tokens,
                int(back[0]))

    def _token_codes(self, dest, sprays, kind) -> np.ndarray:
        """The ``dest * h + sprays`` code of each token, all regular (the
        only kind a ring or a header holds on the slab)."""
        if (kind != TOKEN_REGULAR).any():
            raise _Decline(_HEADERS)
        return dest * self.h + sprays

    def _export_headers(self, model, batch, lo: int) -> None:
        if batch[6] is not None:
            # by transmission, then header position
            tokens = batch[6].T
            held = tokens >= 0
            model["wire_tokens"] = np.concatenate((
                model["wire_tokens"],
                self._token_rows(tokens[held], lo + held.nonzero()[0]),
            ))

    def _token_rows(self, codes, *keys) -> np.ndarray:
        """``(*keys, dest, sprays, kind)`` rows for the tokens ``codes``."""
        return np.stack((
            *keys, *np.divmod(codes, self.h),
            np.full(codes.size, TOKEN_REGULAR),
        )).T

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
        # token rings in (holder, neighbour) order, each in FIFO order
        used = self.tq_len.nonzero()[0]
        nb = self.peer.reshape(-1)[used]
        order = np.lexsort((nb, used % n))
        used, nb = used[order], nb[order]
        held = self.tq_len[used]
        order = (self.tq_head[used, None] + np.arange(self.tq_cap)) \
            & (self.tq_cap - 1)
        codes = self.tq[used[:, None], order]
        model["tokens"] = self._token_rows(
            codes[np.arange(self.tq_cap) < held[:, None]],
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
        keep = np.ones(column.size, dtype=bool)
        keep[pos] = False
        self.ledger[link] = column[keep]

    # ------------------------------------------------------------------ #
    # active-bucket tracker (ActiveBucketTracker acquire / release over
    # distinct nodes)

    def _release(self, nodes, idx) -> None:
        count = self.tr_ref[idx]
        self.tr_ref[idx] = count - (count > 0)
        gone = (count == 1).nonzero()[0]
        if gone.size:
            self.tr_active[nodes[gone]] -= 1

    def _active_buckets(self) -> int:
        return int(self.tr_active.max())

    # ------------------------------------------------------------------ #
    # token-return rings

    def _grow_rings(self) -> None:
        cap = self.tq_cap
        order = (self.tq_head[:, None] + np.arange(cap)) & (cap - 1)
        grown = np.zeros((self.Ln, 2 * cap), dtype=np.int64)
        grown[:, :cap] = np.take_along_axis(self.tq, order, axis=1)
        self.tq = grown
        # contents now start at position 0
        self.tq_head = np.zeros(self.Ln, dtype=np.int64)
        self.tq_cap = 2 * cap

    def _queue_tokens(self, q, code) -> None:
        """Append one token per ring in ``q`` (distinct rings)."""
        length = self.tq_len[q]
        if int(length.max()) >= self.tq_cap:
            self._grow_rings()
        self.tq[q, (self.tq_head[q] + length) & (self.tq_cap - 1)] = code
        self.tq_len[q] = length + 1

    # ------------------------------------------------------------------ #
    # per-slot sections

    def _rx(self, t: int) -> None:
        batches = self.batches
        while batches and batches[0][0] <= t:
            _, _, cells, recvs, fresh, esph, tokens, back = batches.popleft()
            if tokens is not None:
                self._receive_tokens(recvs, tokens, back)
                payload = cells >= 0
                if not payload.all():
                    cells = cells[payload]
                    recvs = recvs[payload]
                    fresh = fresh[payload]
            self._rx_back = back
            if cells.size:
                self._arrive(t, cells, recvs, fresh, esph)

    def _receive_tokens(self, recvs, tokens, back: int) -> None:
        """Header tokens at their receivers: restore the ledger credit and
        release the bucket, header position by header position (so two
        tokens in one header act in order)."""
        keys = []
        for col in tokens:
            have = (col >= 0).nonzero()[0]
            if not have.size:
                break
            nodes = recvs[have]
            idx = nodes * self.nh + col[have]
            keys.append(idx)
            self._release(nodes, idx)
        if keys:
            self._credit(back, keys[0] if len(keys) == 1
                         else np.concatenate(keys))

    def _forward(self, fc, rv, dd, emask, esph) -> None:
        super()._forward(fc, rv, dd, emask, esph)
        self.c_back[fc] = self._rx_back
        # the cell now occupies bucket (dst, sprays) at its receiver
        idx = rv * self.nh + dd * self.h + self.c_sprays[fc]
        count = self.tr_ref[idx] + 1
        self.tr_ref[idx] = count
        fresh = (count == 1).nonzero()[0]
        if fresh.size:
            nodes = rv[fresh]
            active = self.tr_active[nodes] + 1
            self.tr_active[nodes] = active
            metrics = self.engine.metrics
            mx = int(active.max())
            if mx > metrics.max_active_buckets:
                metrics.max_active_buckets = mx

    def _pick(self, link: int, ids, nb):
        """PIEO extraction on every non-empty queue of ``link``: the first
        cell that is on its final hop or whose next-hop bucket has credit.

        Returns ``(nodes, cells, pred, last, dst, sprays, onward, keys)``:
        the picked cells with their list predecessors and whether each was
        its queue's last cell, their headers (``onward`` is the sprays left
        after this hop) and the ledger keys to charge (the picks that were
        not final hops).
        """
        n, h = self.n, self.h
        nxt = self.c_nxt
        column = self.ledger[link]
        pred = ids + link * n      # round one: the queue sentinels
        cells = nxt[pred]
        left = self.q_len[link][ids]  # cells from this one to the tail
        found = []
        while True:
            dst = self.c_dst[cells]
            sprays = self.c_sprays[cells]
            onward = sprays - (sprays > 0)
            key = (ids * n + dst) * h + onward
            final = nb[ids] == dst
            ok = final | (column[column.searchsorted(key)] != key)
            if ok.all():
                found.append((ids, cells, pred, left == 1, dst, sprays,
                              onward, key[~final]))
                break
            hit = ok.nonzero()[0]
            found.append((ids[hit], cells[hit], pred[hit], left[hit] == 1,
                          dst[hit], sprays[hit], onward[hit],
                          key[hit][~final[hit]]))
            # next round: the following cell of every still-blocked queue
            # that has one
            more = ~ok & (left > 1)
            ids = ids[more]
            if not ids.size:
                break
            pred = cells[more]
            cells = nxt[pred]
            left = left[more] - 1
        if len(found) == 1:
            return found[0]
        return tuple(np.concatenate(part) for part in zip(*found))

    def _admit_blocked(self, link: int, blocked, t: int):
        """``Node._pick_flow``'s fallback for sources whose cursor flow has
        no first-hop credit: the first waiting flow that has.

        Returns ``(nodes, rows, keys)`` of the cells admitted this way, or
        None when there are none.
        """
        n, h, hm1 = self.n, self.h, self.hm1
        waiting = [(i, flow) for i in blocked.tolist()
                   for flow in self.waiting[i]]
        if not waiting:
            return None
        key = np.array([(i * n + flow.dst) * h + hm1 for i, flow in waiting],
                       dtype=np.int64)
        chosen: Dict[int, tuple] = {}
        for (i, flow), k, spent in zip(waiting, key.tolist(),
                                       self._spent(link, key).tolist()):
            if not spent and i not in chosen:
                chosen[i] = (flow, k)
        if not chosen:
            return None
        nodes = np.array(list(chosen), dtype=np.int64)
        flows = [flow for flow, _ in chosen.values()]
        rows = self._new_cells(
            nodes,
            [flow.dst for flow in flows], [flow.flow_id for flow in flows],
            [flow.sent for flow in flows], [flow.size_cells for flow in flows],
            t,
        )
        for i, flow in zip(chosen, flows):
            flow.sent += 1
            if flow.sent >= flow.size_cells:
                self.waiting[i].remove(flow)
        self.engine.metrics.cells_injected += nodes.size
        return nodes, rows, np.array([k for _, k in chosen.values()],
                                     dtype=np.int64)

    def _send_forwards(self, link: int, nb, charges: list) -> int:
        """The PIEO pick on every non-empty queue of ``link``, with what
        forwarding a cell entails: unlink it, token upstream, bucket
        release, header update.  Returns the number of cells picked."""
        n, h = self.n, self.h
        queued = (self.q_len[link] > 0).nonzero()[0]
        if not queued.size:
            return 0
        ids, cells, pred, last, dst, sprays, onward, keys = self._pick(
            link, queued, nb
        )
        if not ids.size:
            return 0
        # a last cell's nxt is past its list's end: its predecessor, the
        # new tail, takes it unread
        self.c_nxt[pred] = self.c_nxt[cells]
        last = last.nonzero()[0]
        if last.size:
            self.q_tail[link][ids[last]] = pred[last]
        self.q_len[link][ids] -= 1
        # the token names the bucket the cell occupied here
        code = dst * h + sprays
        self._queue_tokens(self.c_back[cells] * n + ids, code)
        self._release(ids, ids * self.nh + code)
        self.c_sprays[cells] = onward
        self.c_prev[cells] = ids
        self.c_hops[cells] += 1
        self._cell_of[ids] = cells
        if keys.size:
            charges.append(keys)
        return ids.size

    def _send_admissions(self, link: int, t: int, charges: list) -> int:
        """First-hop admission for every source with nothing to forward,
        against the bucket ``(neighbour, flow.dst, h-1)`` — charged even
        when the neighbour is the destination, as ``_emit_flow_cell``
        does.  Returns the number of cells admitted."""
        cell_of, fresh = self._cell_of, self._fresh
        e = (self.has_flow & (cell_of < 0)).nonzero()[0]
        if not e.size:
            return 0
        admitted = 0
        key = (e * self.n + self.cur_dst[e]) * self.h + self.hm1
        spent = self._spent(link, key)
        if spent.any():
            other = self._admit_blocked(link, e[spent], t)
            if other is not None:
                late, rows, keys = other
                admitted = late.size
                cell_of[late] = rows
                fresh[late] = True
                charges.append(keys)
            e = e[~spent]
            key = key[~spent]
        if e.size:
            admitted += e.size
            cell_of[e] = self._emit(e, t)
            fresh[e] = True
            charges.append(key)
        return admitted

    def _drain_tokens(self, link: int):
        """Up to ``tokens_per_header`` codes from every non-empty ring
        toward this slot's neighbour: ``(nodes, codes (k, tph) padded with
        -1, how many each node sends)``."""
        lo = link * self.n
        owed = self.tq_len[lo:lo + self.n]
        owing = owed.nonzero()[0]
        if not owing.size:
            return owing, None, None
        q = owing + lo
        head = self.tq_head[q]
        length = owed[owing]
        codes = self.tq[
            q[:, None],
            (head[:, None] + self._header_slot) & (self.tq_cap - 1),
        ]
        codes[self._header_slot >= length[:, None]] = -1
        taken = np.minimum(length, self.tph)
        self.tq_head[q] = head + taken
        owed[owing] = length - taken
        return owing, codes, taken

    def _tx(self, t: int, slot: int, phase: int) -> None:
        engine = self.engine
        link = self.link_table[slot]
        nb = self.nbr[slot]
        esph = (phase + 1) % self.h
        cell_of = self._cell_of
        cell_of.fill(-1)
        self._fresh.fill(False)
        charges: List[np.ndarray] = []
        payload = self._send_forwards(link, nb, charges)
        payload += self._send_admissions(link, t, charges)
        if charges:
            self._charge(link, charges)
        owing, codes, taken = self._drain_tokens(link)
        send = cell_of >= 0
        if owing.size:
            send[owing] = True  # bare headers where no cell goes
        senders = send.nonzero()[0]
        m = senders.size
        if not m:
            return
        metrics = engine.metrics
        tokens = None
        if owing.size:
            # every owing node sends, so its position among the senders
            # is a search in an ascending list
            tokens = np.full((self.tph, m), -1, dtype=np.int64)
            tokens[:, senders.searchsorted(owing)] = codes.T
            metrics.tokens_sent += int(taken.sum())
            if engine.digest is not None:
                # one on_tokens event per token-bearing header, in sender
                # order (``owing`` is ascending), each row zero past its
                # header's tokens
                width = 4 + 3 * taken
                ev = self._events(owing.size, width)
                ev[:, 0] = _EV_TOKENS
                ev[:, 1] = owing
                ev[:, 2] = nb[owing]
                ev[:, 3] = t
                ev[:, 4::3], ev[:, 5::3] = np.divmod(codes, self.h)
                ev[:, 6::3] = TOKEN_REGULAR
                ev[self._tok_field >= width[:, None]] = 0
        self.batches.append((
            t + self.delay, senders, cell_of[senders], nb[senders],
            self._fresh[senders], esph, tokens, self.back[link],
        ))
        metrics.cells_sent += m
        metrics.dummy_cells_sent += m - payload
        engine._in_flight_payload += payload
