#!/usr/bin/env python3
"""CI record and check: the slab's cell hop at paper scale, and what the
token family costs on it.

First it prints the process's ``VmRSS`` / ``VmHWM`` after each of three
consecutive 300-slot cc=none permutation runs at n=1296, each dropped
before the next — flat from the second on, since every slab array is on
pages the slab owns — and then the bytes the last run's slab arrays map
against the bytes of them resident.

Then it runs with the step profiler attached and prints the microseconds
each profiler section costs per node-slot:

* a cc=none permutation (h=2) for 300 slots at n=1296 and n=4096, with the
  process's RSS growth over the run and the bytes one slab cell record
  takes — the slab's cost is linear per cell, so these figures are what a
  paper-scale run pays;
* hbh+spray on Poisson short flows at the paper's load (``load_for(2)``)
  at n=256 (the benchmark's ``hbh_shortflow`` shape) and n=1296, timed
  over 300 slots after a 300-slot warm-up that loads the network.

It then prints µs/slot for none / spray-short / hop-by-hop / hbh+spray on
the same n=256 short-flow traffic, each with its multiple of none's.
Asserts, for the cc=none permutation at n=1296 and for hbh+spray at n=256:

* the 100-slot prefix digest is the object backend's;
* a mid-run snapshot, saved to a file in the current checkpoint format,
  loaded and restored, resumes on the slab to the uninterrupted run's
  digest.

No timing or memory figure is gated: shared CI machines are too noisy
to gate on.

Run from the repo root::

    python scripts/ci_slab_hop.py          # exit 1 on any difference
"""

import pathlib
import random
import resource
import sys
import tempfile
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np  # noqa: E402

from repro.experiments.common import load_for  # noqa: E402
from repro.sim.checkpoint import (  # noqa: E402
    CHECKPOINT_VERSION,
    load_checkpoint,
    restore_engine,
    save_checkpoint,
)
from repro.sim.config import SimConfig  # noqa: E402
from repro.sim.engine import Engine  # noqa: E402
from repro.workloads import (  # noqa: E402
    ShortFlowDistribution,
    permutation_workload,
    poisson_workload,
)

SIZES = (1296, 4096)
TOKEN_SIZES = (256, 1296)
FAMILY = ("none", "spray-short", "hop-by-hop", "hbh+spray")
SLOTS = 300
#: untimed slots before a short-flow profile, and its whole horizon
WARMUP = 300
TOKEN_SLOTS = WARMUP + SLOTS
#: the family table's horizon: short flows need a while to load the net
FAMILY_SLOTS = 1000
PREFIX = 100
#: consecutive cc=none runs at ``SIZES[0]`` whose memory ``ratchet`` prints
RATCHET_RUNS = 3
MB = 2 ** 20


def rss_mb() -> float:
    """Current resident set size (Linux ``/proc``)."""
    with open("/proc/self/statm") as statm:
        pages = int(statm.read().split()[1])
    return pages * resource.getpagesize() / MB


def vm_mb(*fields: str) -> list:
    """The named ``/proc/self/status`` fields (``VmRSS``, ...) in MB."""
    with open("/proc/self/status") as status:
        values = dict(line.split(":", 1) for line in status)
    return [int(values[field].split()[0]) / 1024 for field in fields]


def resident_bytes(array: np.ndarray) -> int:
    """Bytes of the pages under a contiguous ``array`` that are in RAM
    (bit 63 of each page's ``/proc/self/pagemap`` entry)."""
    page = resource.getpagesize()
    start = array.__array_interface__["data"][0]
    first, end = start // page, -(-(start + array.nbytes) // page)
    with open("/proc/self/pagemap", "rb") as pagemap:
        pagemap.seek(first * 8)
        entries = np.frombuffer(pagemap.read((end - first) * 8), np.uint64)
    return int(np.count_nonzero(entries >> np.uint64(63))) * page


def engine_for(n: int, backend: str, cc: str = "none",
               slots: int = SLOTS, short: bool = False) -> Engine:
    """A saturated permutation, or (``short``) Poisson short flows at
    ``load_for(2)``, the same flows whatever ``cc``."""
    config = SimConfig(n=n, h=2, duration=slots, seed=1, backend=backend,
                       congestion_control=cc)
    if not short:
        flows = permutation_workload(config, 10 ** 6)
    else:
        flows = poisson_workload(config, ShortFlowDistribution(),
                                 load=load_for(2), rng=random.Random(1))
    engine = Engine(config, workload=flows)
    engine.enable_digest()
    return engine


def on_slab(engine: Engine) -> None:
    assert engine.backend_effective == "vector", engine.backend_reason
    assert engine.model_syncs == 0, engine.model_syncs


def profile(n: int, cc: str = "none") -> str:
    """Run ``SLOTS`` slots at ``n`` under the profiler (short flows after
    ``WARMUP`` more); print the per-section cost (and, for cc=none, the RSS
    growth); return the digest."""
    before = rss_mb()
    short = cc != "none"
    engine = engine_for(n, "vector", cc, TOKEN_SLOTS if short else SLOTS,
                        short)
    engine.run(WARMUP if short else 0)
    profiler = engine.enable_profiler()
    started = time.perf_counter()
    engine.run(SLOTS)
    wall = time.perf_counter() - started
    on_slab(engine)
    node_slots = n * SLOTS
    costs = "  ".join(
        f"{name} {seconds * 1e6 / node_slots:.3f}"
        for name, seconds in profiler.totals.items() if seconds)
    print(f"{cc} n={n}: {SLOTS} slots in {wall:.2f} s; "
          f"us/node-slot: {costs}")
    if cc == "none":
        record = engine._parked._slab[0].nbytes
        print(f"{cc} n={n}: RSS growth {rss_mb() - before:+.1f} MB; "
              f"{record} B per slab cell record")
    return engine.digest.hexdigest()


def family(n: int) -> None:
    """µs/slot of every slab mechanism on the same short flows."""
    cost = {}
    for cc in FAMILY:
        engine = engine_for(n, "vector", cc, FAMILY_SLOTS, short=True)
        started = time.perf_counter()
        engine.run()
        cost[cc] = (time.perf_counter() - started) * 1e6 / FAMILY_SLOTS
        on_slab(engine)
        metrics = engine.metrics
        print(f"n={n} {cc:>11}: {cost[cc]:6.0f} us/slot  "
              f"x{cost[cc] / cost['none']:.2f} none  "
              f"{metrics.cells_sent / FAMILY_SLOTS:.0f} sends/slot  "
              f"{metrics.tokens_sent / FAMILY_SLOTS:.0f} tokens/slot")


def ratchet(n: int) -> None:
    """``RATCHET_RUNS`` cc=none runs at ``n`` in a row: the process's RSS
    and high-water mark after each, then what the last run's slab maps
    and what of it is resident."""
    for run in range(1, RATCHET_RUNS + 1):
        engine = engine_for(n, "vector")
        engine.run()
        on_slab(engine)
        rss, hwm = vm_mb("VmRSS", "VmHWM")
        print(f"none n={n}: run {run} of {RATCHET_RUNS}: VmRSS {rss:.1f} MB, "
              f"VmHWM {hwm:.1f} MB")
    slab = engine._parked
    arrays = (slab._slab, slab.c_nxt, slab.free)
    mapped = sum(array.nbytes for array in arrays)
    resident = sum(resident_bytes(array) for array in arrays)
    print(f"none n={n}: slab maps {mapped / MB:.1f} MB, "
          f"{resident / MB:.1f} MB of it resident")


def check_prefix(n: int, cc: str = "none") -> None:
    """The first ``PREFIX`` slots at ``n``: slab digest == object digest."""
    digests = {}
    for backend in ("object", "vector"):
        engine = engine_for(n, backend, cc, short=cc != "none")
        engine.run(PREFIX)
        digests[backend] = engine.digest.hexdigest()
    on_slab(engine)
    print(f"{cc} n={n}: {PREFIX}-slot prefix digest {digests['vector']}")
    assert digests["vector"] == digests["object"], digests


def check_resume(n: int, whole: str, cc: str = "none",
                 slots: int = SLOTS) -> None:
    """Snapshot at mid-run, through a file, restored: the run resumes on
    the slab to the uninterrupted ``slots``-slot run's digest ``whole``."""
    engine = engine_for(n, "vector", cc, slots, cc != "none")
    engine.run(slots // 2)
    on_slab(engine)
    with tempfile.TemporaryDirectory() as scratch:
        path = pathlib.Path(scratch) / "mid.ckpt"
        save_checkpoint(engine.snapshot(), path)
        checkpoint = load_checkpoint(path)
    assert checkpoint.version == CHECKPOINT_VERSION
    resumed = restore_engine(checkpoint)
    resumed.run(slots - slots // 2)
    on_slab(resumed)
    digest = resumed.digest.hexdigest()
    print(f"{cc} n={n}: v{checkpoint.version} snapshot at slot "
          f"{slots // 2} resumed to {digest}")
    assert digest == whole, (digest, whole)


def main() -> int:
    ratchet(SIZES[0])
    whole = {n: profile(n) for n in SIZES}
    tokens = {n: profile(n, "hbh+spray") for n in TOKEN_SIZES}
    family(TOKEN_SIZES[0])
    check_prefix(SIZES[0])
    check_resume(SIZES[0], whole[SIZES[0]])
    check_prefix(TOKEN_SIZES[0], "hbh+spray")
    check_resume(TOKEN_SIZES[0], tokens[TOKEN_SIZES[0]], "hbh+spray",
                 TOKEN_SLOTS)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"peak RSS: {peak:.1f} MB")
    return 0


if __name__ == "__main__":
    sys.exit(main())
