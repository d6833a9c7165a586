"""The object model's footprint follows the traffic, not ``n * L``.

A node has ``L = h * (r - 1)`` links, but only some per-link containers
are needed by every run: the send queues are, while control queues exist
only for links that carried a control message, token-return queues only
for peers a cell came from, and regular tokens are interned once per
engine.  Measured with tracemalloc after 500 slots of Poisson hbh+spray
at ``load_for(2)``, n=256, h=2, object backend (CPython 3.11): 17.3 MB
when every node built ``L`` control deques, a deque per peer and its own
intern table; 4.0 MB with the containers made on first use.
"""

import random
import tracemalloc

from repro.experiments.common import load_for
from repro.sim.config import SimConfig
from repro.sim.engine import Engine
from repro.workloads.distributions import ShortFlowDistribution
from repro.workloads.generators import poisson_workload

N, H, SLOTS = 256, 2, 500
BUDGET_MB = 8.0


def _run_traced():
    """The engine after ``SLOTS`` slots, and the MB tracemalloc saw the
    object model (nodes, wire, flows, metrics) hold at the end."""
    config = SimConfig(n=N, h=H, seed=1, duration=SLOTS,
                       congestion_control="hbh+spray", backend="object")
    flows = poisson_workload(config, ShortFlowDistribution(),
                             load=load_for(H), rng=random.Random(1))
    engine = Engine(config, flows)
    tracemalloc.start()
    try:
        engine.run(SLOTS)
        traced, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return engine, traced / 2 ** 20


def test_footprint_follows_traffic():
    engine, traced_mb = _run_traced()
    assert engine.backend_effective == "object"
    assert engine.metrics.cells_injected > 0
    assert traced_mb <= BUDGET_MB, (
        f"object model holds {traced_mb:.1f} MB after {SLOTS} slots "
        f"(budget {BUDGET_MB} MB)")
    nodes = engine.nodes
    # hbh+spray sends no control message, so no node made a control queue
    assert engine.metrics.control_messages == 0
    assert not any(node.ctrl_out for node in nodes)
    # one intern table for the whole engine, one token per bucket at most
    table = engine._token_cache
    assert all(node._token_cache is table for node in nodes)
    assert 0 < len(table) <= N * H
