"""The plain model: a network's nodes and wire as integer tables.

A Shale node's whole state is a few small integer tables (paper §4, Fig 7),
and the ``r**h`` coordinates make every piece of it index-addressable.  The
plain model says so: one dict of named 2-D int64 arrays, in one canonical
row order, so that equal networks give byte-equal tables whichever form —
built objects, a restored checkpoint's pending model, a run parked on the
slab — produced them.  The schema is written here once and read by its four
users: the slab's ``pack`` slices the tables into its cell records (each
a ``cells`` row as it is) and columns and its ``export_model`` gathers
them back (:mod:`repro.sim.backends`), ``Node.state_rows`` /
``Node.load_state`` encode and fill objects (:mod:`repro.sim.node`), and
the checkpoint file stores the tables as they are
(:mod:`repro.sim.checkpoint`).

A table holds what a header carries and nothing the schedule implies: a
bare header (no payload) is a ``wire`` row with ``payload`` 0 and no
``cells`` row, and no column holds a cell's next spray phase — a queued
cell's is its link's phase plus one, an in-flight cell's its send slot's.
Nor does a table hold anything another table or the cell implies: a
queued cell's PIEO rank is its ``created_at + flow_size * epoch``, a
node's occupancy and its owed tokens and control messages are the lengths
of its ``queues``, ``tokens`` and ``ctrl_out`` rows, the cells on the wire
are its ``payload`` column's sum, and the nodes with work are
:func:`busy_nodes` of the tables.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence

import numpy as np

__all__ = [
    "CTRL_KINDS", "PlainModel", "TABLES", "busy_nodes", "col",
    "model", "node_states", "occupancy", "reference_only_node", "table",
    "wire_states",
]

PlainModel = Dict[str, np.ndarray]

#: control-message kinds; a table holds a kind as its index here
CTRL_KINDS = ("pull", "trim", "rtx", "probe")

#: ``Cell.state()``'s fields, in its order
_CELL = ("src", "dst", "flow_id", "seq", "sprays_remaining", "prev_hop",
         "created_at", "flow_size", "hops")
_CTRL = ("kind", "flow_id", "src", "dst", "seq", "sprays_remaining")

#: table -> columns.  A node has ``L = h * (r - 1)`` links; queue ``q`` is
#: link ``q % L`` of node ``q // L``.  Row order is part of the schema.
TABLES: Dict[str, Sequence[str]] = {
    # one row per node / per queue, in id order
    "scalars": ("failed",),
    "queues": ("len",),
    # the queued cells — node-major, link-minor, in queue order — then one
    # cell per payload row of ``wire``, in wire order
    "cells": _CELL,
    # transmissions in flight, FIFO, and their header sidecars in header
    # order (``wire`` is the row of the transmission carrying them); a
    # ``payload`` of 0 is a bare header, which has no ``cells`` row
    "wire": ("sender", "receiver", "arrival", "payload"),
    "wire_tokens": ("wire", "dest", "sprays", "kind"),
    "wire_ctrl": ("wire",) + _CTRL,
    # (node, ...) rows, node-major; within a node in the order noted
    "local_flows": ("node", "flow_id"),                        # list order
    "tokens": ("node", "neighbor", "dest", "sprays", "kind"),  # neighbor, FIFO
    "ledger": ("node", "neighbor", "dest", "sprays", "spent", "first_hop"),
    "tracker": ("node", "dest", "sprays", "count"),            # sorted
    # ... and the state only the reference pipeline carries
    "rtx_queue": ("node", "flow_id", "dst", "seq"),            # FIFO
    "ctrl_out": ("node", "link") + _CTRL,                      # link, FIFO
    "failed_neighbors": ("node", "neighbor"),                  # sorted
    "known_failed": ("node", "dest"),
    "link_invalid": ("node", "via", "dest"),
    "fail_cause": ("node", "neighbor", "cause"),
    "force_dummy": ("node", "neighbor"),
    "recv_counts": ("node", "flow_id", "count"),
}

#: the ``(node, ...)`` tables
_NODE_ROWS = tuple(TABLES)[tuple(TABLES).index("local_flows"):]


def col(name: str, column: str) -> int:
    """Index of ``column`` in table ``name``."""
    return TABLES[name].index(column)


def table(rows, width: int) -> np.ndarray:
    """``rows`` — a list of ``width``-long int tuples, or an array of that
    shape — as a ``(k, width)`` int64 table.  Anything but integers, or
    another width, is refused, not truncated or reshaped."""
    out = np.asarray(rows)
    if not out.size:
        return np.zeros((0, width), dtype=np.int64)
    if out.dtype.kind not in "iub" or out.shape[1:] != (width,):
        raise TypeError(f"want an integer (k, {width}) table, "
                        f"got {out.dtype}{out.shape}")
    return out.astype(np.int64, copy=False)


def model(parts: Dict[str, object]) -> PlainModel:
    """The model holding ``parts`` — per table, rows or a ready array as
    :func:`table` takes them; the tables ``parts`` lacks are empty."""
    return {name: table(parts.get(name, ()), len(columns))
            for name, columns in TABLES.items()}


def reference_only_node(model: PlainModel, hbh: bool) -> Optional[int]:
    """The first node holding state no slab column holds (None if none):
    a failure marking, control traffic, or a token owed without
    hop-by-hop (``fail_cause`` rows come with ``failed_neighbors``,
    ``recv_counts`` only under rd / ndp)."""
    failed = model["scalars"][:, col("scalars", "failed")]
    names = ("ctrl_out", "rtx_queue", "failed_neighbors", "known_failed",
             "link_invalid", "force_dummy") + (() if hbh else ("tokens",))
    found = np.concatenate([failed.nonzero()[0][:1]]
                           + [model[name][:1, 0] for name in names])
    return int(found.min()) if found.size else None


def occupancy(model: PlainModel) -> np.ndarray:
    """The cells queued at each node, in id order."""
    n = len(model["scalars"])
    return model["queues"][:, col("queues", "len")].reshape(n, -1).sum(1)


def busy_nodes(model: PlainModel) -> List[int]:
    """The nodes with work, in id order: queued cells, a local flow or an
    rtx request, tokens or control messages owed, a suspect neighbour to
    probe, a probe reply owed — everything that can make a node send
    (the engine's visit sets hold at least these)."""
    found = np.concatenate([occupancy(model).nonzero()[0]] + [
        model[name][:, 0]
        for name in ("local_flows", "rtx_queue", "tokens", "ctrl_out",
                     "failed_neighbors", "force_dummy")])
    return np.unique(found).tolist()


# ---------------------------------------------------------------------- #
# tables -> plain lists, for the one loader that fills objects
# (``Engine._materialize``)

def _groups(keys: np.ndarray, count: int) -> List[int]:
    """``count + 1`` bounds cutting sorted ``keys`` into runs 0, 1, ..."""
    return keys.searchsorted(np.arange(count + 1)).tolist()


def node_states(model: PlainModel) -> Iterator[Dict[str, list]]:
    """Per node, in id order, its rows of every node-keyed table as plain
    lists (what ``Node.load_state`` reads): ``scalars`` one row, ``queues``
    one per link, ``cells`` its queued cells, the ``(node, ...)`` tables
    its rows with the node column still on."""
    n = len(model["scalars"])
    ids = np.arange(n + 1)
    links = len(model["queues"]) // max(1, n)
    queued = np.concatenate(
        ([0], model["queues"][:, col("queues", "len")].cumsum())
    )[ids * links]
    bounds = {name: cut.tolist() for name, cut in (
        ("scalars", ids), ("queues", ids * links), ("cells", queued))}
    for name in _NODE_ROWS:
        bounds[name] = _groups(model[name][:, 0], n)
    rows = {name: model[name].tolist() for name in bounds}
    for i in range(n):
        yield {name: rows[name][cut[i]:cut[i + 1]]
               for name, cut in bounds.items()}


def wire_states(model: PlainModel) -> Iterator[tuple]:
    """Per transmission in flight, FIFO: ``(sender, receiver, arrival,
    cell, token rows, control rows)`` as plain lists — ``cell`` None for
    a bare header —, the sidecar rows without their ``wire`` column (what
    ``Transmission.from_state`` reads)."""
    wire = model["wire"][:, :3].tolist()
    payload = model["wire"][:, col("wire", "payload")]
    cells = iter(model["cells"][len(model["cells"])
                                - int(payload.sum()):].tolist())
    sidecars = []
    for name in ("wire_tokens", "wire_ctrl"):
        cut = _groups(model[name][:, 0], len(wire))
        rows = model[name][:, 1:].tolist()
        sidecars.append([rows[lo:hi] for lo, hi in zip(cut, cut[1:])])
    for row, carries, tokens, ctrl in zip(wire, payload.tolist(),
                                          *sidecars):
        yield (*row, next(cells) if carries else None, tokens, ctrl)
