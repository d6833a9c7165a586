#!/usr/bin/env python3
"""CI record: what the object model holds at n=1296, per container family.

Builds the object model of an n=1296, h=2 hbh+spray engine (Poisson short
flows at ``load_for(2)``), runs 300 slots, and prints the MB each family
of per-node containers holds, then the process's RSS growth and peak.
The families are the send queues (the per-link lists of cells and the
per-node views of them; also printed per queue), the control queues, the
token-return queues, the engine's token intern table, the per-node
neighbour tables (``neighbors_flat``, link -> peer) and their inverse
(``_link_of``, peer -> link), and the cells queued or on the wire.  A
family's figure is the bytes of the objects only it holds
(``sys.getsizeof`` over its containers and their members), so it is
exact and repeats run to run; tracemalloc is not used there, because its
own traces would swell the RSS reading next to it.

Last, it prints what the run's history costs: the bytes a completed flow
adds, on both pipelines (n=256 hbh+spray; the traced bytes held at slot
5 000 over those at 3 000, per flow completed between, so buffers that
fill once are past; after everything above is read).  It gates nothing.

Run from the repo root::

    python scripts/ci_object_memory.py
"""

import pathlib
import random
import resource
import sys
import time
import tracemalloc
from sys import getsizeof

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core.cell import Cell  # noqa: E402
from repro.experiments.common import load_for  # noqa: E402
from repro.sim.config import SimConfig  # noqa: E402
from repro.sim.engine import Engine  # noqa: E402
from repro.workloads.distributions import ShortFlowDistribution  # noqa: E402
from repro.workloads.generators import poisson_workload  # noqa: E402

N, H, SLOTS = 1296, 2, 300
MB = 2 ** 20
#: the history run: size, first slot read, slots between the readings
FLOW_N, FLOW_FROM, FLOW_SLOTS = 256, 3000, 2000


def rss_mb() -> float:
    """Current resident set size (Linux ``/proc``)."""
    with open("/proc/self/statm") as statm:
        pages = int(statm.read().split()[1])
    return pages * resource.getpagesize() / MB


def families(engine) -> dict:
    """Bytes held per container family."""
    nodes = engine.nodes
    interned = engine._token_cache
    shared = {id(token) for token in interned.values()}
    send = control = tokens = neighbours = index = cells = 0
    for node in nodes:
        send += getsizeof(node.link_queues) + getsizeof(node._phase_items) \
            + sum(map(getsizeof, node._phase_items))
        for queue in node.link_queues:
            send += getsizeof(queue)
            cells += sum(map(getsizeof, queue))
        control += getsizeof(node.ctrl_out) + sum(
            getsizeof(held) + sum(map(getsizeof, held))
            for held in node.ctrl_out.values())
        tokens += getsizeof(node.token_return) + sum(
            getsizeof(held) + sum(getsizeof(token) for token in held
                                  if id(token) not in shared)
            for held in node.token_return.values())
        # a peer id above 256 is an int of its own (CPython caches the
        # small ones); the index's keys are these same objects
        neighbours += getsizeof(node.neighbors_flat) + sum(
            getsizeof(peer) for peer in node.neighbors_flat if peer > 256)
        index += getsizeof(node._link_of)
    # a bare header carries no cell (``tx.cell is None``): nothing to count
    cells += sum(getsizeof(tx.cell) for tx in engine._in_flight
                 if tx.cell is not None)
    table = getsizeof(interned) + sum(
        getsizeof(key) + getsizeof(token) for key, token in interned.items())
    return {
        "send queues": send,
        "control queues": control,
        "token-return queues": tokens,
        "token intern table": table,
        "neighbour tables": neighbours,
        "link index (_link_of)": index,
        "cells": cells,
    }


def bytes_per_completed_flow(backend: str):
    """(pipeline that ran, flows completed between the readings, traced
    bytes they added per flow) of the history run, traced from slot
    ``FLOW_FROM - FLOW_SLOTS`` on."""
    config = SimConfig(n=FLOW_N, h=H, seed=1,
                       duration=FLOW_FROM + FLOW_SLOTS,
                       congestion_control="hbh+spray", backend=backend)
    flows = poisson_workload(config, ShortFlowDistribution(),
                             load=load_for(H), rng=random.Random(1))
    engine = Engine(config, flows)
    engine.run(FLOW_FROM - FLOW_SLOTS)
    tracemalloc.start()
    try:
        engine.run(FLOW_SLOTS)
        held, done = tracemalloc.get_traced_memory()[0], \
            len(engine.flows.completed)
        engine.run(FLOW_SLOTS)
        held = tracemalloc.get_traced_memory()[0] - held
    finally:
        tracemalloc.stop()
    completed = len(engine.flows.completed) - done
    return engine.backend_effective, completed, held / completed


def main() -> int:
    config = SimConfig(n=N, h=H, seed=1, duration=SLOTS,
                       congestion_control="hbh+spray", backend="object")
    flows = poisson_workload(config, ShortFlowDistribution(),
                             load=load_for(H), rng=random.Random(1))
    engine = Engine(config, flows)
    base = rss_mb()
    started = time.perf_counter()
    engine.nodes  # build the object model
    built = rss_mb()
    engine.run(SLOTS)
    wall = time.perf_counter() - started
    assert engine.backend_effective == "object"
    after = rss_mb()
    held = families(engine)
    print(f"n={N} h={H} hbh+spray object model, {SLOTS} slots "
          f"({wall:.2f} s), {engine.metrics.payload_cells_delivered} "
          f"cells delivered, {engine.metrics.control_messages} control "
          f"messages")
    for name, size in held.items():
        print(f"  {name:<24} {size / MB:8.2f} MB")
    print(f"  {'total':<24} {sum(held.values()) / MB:8.2f} MB")
    queues = sum(len(node.link_queues) for node in engine.nodes)
    print(f"send queues: {queues}, {held['send queues'] / queues:.1f} B "
          f"each with the per-node views")
    bare = sum(tx.cell is None for tx in engine._in_flight)
    print(f"wire: {len(engine._in_flight)} transmissions, {bare} of them "
          f"bare headers (no cell); one Cell is {getsizeof(Cell(0, 0))} B")
    print(f"RSS growth: build {built - base:+.1f} MB, "
          f"build + {SLOTS} slots {after - base:+.1f} MB")
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"peak RSS: {peak:.1f} MB")
    for backend in ("object", "vector"):
        ran, completed, per_flow = bytes_per_completed_flow(backend)
        print(f"history, n={FLOW_N} hbh+spray on {ran}: {per_flow:.0f} B "
              f"per completed flow ({completed} flows over slots "
              f"{FLOW_FROM}-{FLOW_FROM + FLOW_SLOTS})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
