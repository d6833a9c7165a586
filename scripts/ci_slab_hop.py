#!/usr/bin/env python3
"""CI record and check: the slab's cell hop at paper scale.

Runs a cc=none permutation (h=2) on the vector slab for 300 slots at
n=1296 and n=4096 with the step profiler attached, and prints the
microseconds each profiler section costs per node-slot, plus the process's
RSS growth over the run and the bytes one slab cell record takes — the
slab's cost is linear per cell, so these figures are what a paper-scale
run pays.  At n=1296 it also asserts:

* the 100-slot prefix digest is the object backend's;
* a mid-run snapshot, saved to a file in the current checkpoint format,
  loaded and restored, resumes on the slab to the uninterrupted run's
  digest.

No timing is gated: shared CI machines are too noisy to gate on.

Run from the repo root::

    python scripts/ci_slab_hop.py          # exit 1 on any difference
"""

import pathlib
import resource
import sys
import tempfile
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.sim.checkpoint import (  # noqa: E402
    CHECKPOINT_VERSION,
    load_checkpoint,
    restore_engine,
    save_checkpoint,
)
from repro.sim.config import SimConfig  # noqa: E402
from repro.sim.engine import Engine  # noqa: E402
from repro.workloads.generators import permutation_workload  # noqa: E402

SIZES = (1296, 4096)
SLOTS = 300
PREFIX = 100
MB = 2 ** 20


def rss_mb() -> float:
    """Current resident set size (Linux ``/proc``)."""
    with open("/proc/self/statm") as statm:
        pages = int(statm.read().split()[1])
    return pages * resource.getpagesize() / MB


def engine_for(n: int, backend: str) -> Engine:
    config = SimConfig(n=n, h=2, duration=SLOTS, seed=1, backend=backend,
                       congestion_control="none")
    engine = Engine(config, workload=permutation_workload(config, 10 ** 6))
    engine.enable_digest()
    return engine


def on_slab(engine: Engine) -> None:
    assert engine.backend_effective == "vector", engine.backend_reason
    assert engine.model_syncs == 0, engine.model_syncs


def profile(n: int) -> str:
    """Run ``SLOTS`` slots at ``n`` under the profiler; print the per-section
    cost and the RSS growth; return the digest."""
    before = rss_mb()
    engine = engine_for(n, "vector")
    profiler = engine.enable_profiler()
    started = time.perf_counter()
    engine.run(SLOTS)
    wall = time.perf_counter() - started
    on_slab(engine)
    record = engine._parked._slab[0].nbytes
    node_slots = n * SLOTS
    costs = "  ".join(
        f"{name} {seconds * 1e6 / node_slots:.3f}"
        for name, seconds in profiler.totals.items() if seconds)
    print(f"n={n}: {SLOTS} slots in {wall:.2f} s; us/node-slot: {costs}")
    print(f"n={n}: RSS growth {rss_mb() - before:+.1f} MB; "
          f"{record} B per slab cell record")
    return engine.digest.hexdigest()


def check_prefix() -> None:
    """The first ``PREFIX`` slots at n=1296: slab digest == object digest."""
    digests = {}
    for backend in ("object", "vector"):
        engine = engine_for(SIZES[0], backend)
        engine.run(PREFIX)
        digests[backend] = engine.digest.hexdigest()
    on_slab(engine)
    print(f"n={SIZES[0]}: {PREFIX}-slot prefix digest {digests['vector']}")
    assert digests["vector"] == digests["object"], digests


def check_resume(whole: str) -> None:
    """Snapshot at mid-run, through a file, restored: the run resumes on
    the slab to the uninterrupted run's digest ``whole``."""
    engine = engine_for(SIZES[0], "vector")
    engine.run(SLOTS // 2)
    on_slab(engine)
    with tempfile.TemporaryDirectory() as scratch:
        path = pathlib.Path(scratch) / "mid.ckpt"
        save_checkpoint(engine.snapshot(), path)
        checkpoint = load_checkpoint(path)
    assert checkpoint.version == CHECKPOINT_VERSION
    resumed = restore_engine(checkpoint)
    resumed.run(SLOTS - SLOTS // 2)
    on_slab(resumed)
    digest = resumed.digest.hexdigest()
    print(f"n={SIZES[0]}: v{checkpoint.version} snapshot at slot "
          f"{SLOTS // 2} resumed to {digest}")
    assert digest == whole, (digest, whole)


def main() -> int:
    whole = {n: profile(n) for n in SIZES}
    check_prefix()
    check_resume(whole[SIZES[0]])
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"peak RSS: {peak:.1f} MB")
    return 0


if __name__ == "__main__":
    sys.exit(main())
