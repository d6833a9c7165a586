#!/usr/bin/env python3
"""CI check: the per-link visit sets change nothing in a serve-shaped session.

The live service (``python -m repro serve --n 64 --cc hbh+spray``) is below
the token slab's size floor, so it always runs the object pipeline, where
``object_backend.run_tx`` visits only the nodes on this slot's link's
visit set.  This script runs that session shape in process twice — n=64,
hbh+spray, a diurnal ``OpenLoopSource`` with the benchmark's two tenants,
telemetry on, 40 quanta of 256 slots — once on the visit sets and once
with ``force_full_scan`` (every live node offered every slot), asserts the
digests, the telemetry rows and ``metrics.summary()`` (which carries the
run's high-water marks, ``max_queue_length`` and ``max_active_buckets``;
no telemetry column does) are identical, and prints
both wall times.  A second, untimed pass of each counts ``Node.transmit``
calls and the ``None`` they return, printed per slot so the visit count
is on record per commit.

Run from the repo root::

    python scripts/ci_visit_sets.py          # exit 1 on any difference
"""

import pathlib
import sys
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.api import open_session  # noqa: E402
from repro.sim.config import SimConfig  # noqa: E402
from repro.sim.node import Node  # noqa: E402
from repro.workloads.distributions import (  # noqa: E402
    HeavyTailedDistribution,
    ShortFlowDistribution,
)
from repro.workloads.streaming import (  # noqa: E402
    OpenLoopSource,
    TenantProfile,
    diurnal_curve,
)

QUANTA = 40
QUANTUM = 256


def session_run(full_scan: bool):
    """Digest, telemetry rows, metrics summary and wall seconds of one
    session."""
    config = SimConfig(n=64, h=2, seed=1, congestion_control="hbh+spray",
                       metrics_sample_interval=50, backend="object")
    tenants = [
        TenantProfile("web", weight=3.0, distribution=ShortFlowDistribution()),
        TenantProfile("batch", weight=1.0,
                      distribution=HeavyTailedDistribution()),
    ]
    source = OpenLoopSource(config, tenants, load=0.2,
                            curve=diurnal_curve(20_000, 0.25, 1.0))
    session = open_session(config, source=source, telemetry=True,
                           digest=True)
    session.engine.force_full_scan = full_scan
    started = time.perf_counter()
    for _ in range(QUANTA):
        session.advance(QUANTUM)
    wall = time.perf_counter() - started
    assert session.engine.backend_effective == "object"
    rows = session.telemetry_rows()
    digest = session.engine.digest.hexdigest()
    summary = session.engine.metrics.summary()
    session.finish()
    return digest, rows, summary, wall


def counted_run(full_scan: bool):
    """``(transmit calls, None returns)`` of one session."""
    transmit = Node.transmit
    counts = [0, 0]

    def counted(node, t, phase, offset):
        tx = transmit(node, t, phase, offset)
        counts[0] += 1
        counts[1] += tx is None
        return tx

    Node.transmit = counted
    try:
        session_run(full_scan)
    finally:
        Node.transmit = transmit
    return counts


def main() -> int:
    fast_digest, fast_rows, fast_summary, fast_wall = session_run(False)
    ref_digest, ref_rows, ref_summary, ref_wall = session_run(True)
    slots = QUANTA * QUANTUM
    for name, wall, full_scan in (("visit sets", fast_wall, False),
                                  ("full scan", ref_wall, True)):
        calls, empty = counted_run(full_scan)
        print(f"{name + ':':<11} {wall:.3f} s "
              f"({wall / slots * 1e6:.1f} us/slot), "
              f"{calls / slots:.2f} transmit calls/slot, "
              f"{empty / slots:.2f} None/slot")
    print(f"digest {fast_digest}, {len(fast_rows)} telemetry rows")
    ok = True
    if fast_digest != ref_digest:
        print(f"FAIL: digest {fast_digest} != full scan's {ref_digest}")
        ok = False
    if fast_rows != ref_rows:
        print("FAIL: telemetry rows differ from the full scan's")
        ok = False
    if fast_summary != ref_summary:
        print("FAIL: metrics.summary() differs from the full scan's")
        ok = False
    if not fast_rows:
        print("FAIL: no telemetry row was recorded")
        ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
