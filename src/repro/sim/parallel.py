"""Multiprocess parameter sweeps for experiment grids.

The figure experiments are embarrassingly parallel across their grid cells
(mechanism x tuning x size): each cell is an independent simulation.  This
module maps a pure function over a list of keyword-argument dictionaries
using a process pool, with a sequential fallback for ``workers <= 1`` (and
for environments where forking is unavailable).

Only module-level functions can cross process boundaries, so experiments
pass a top-level worker like::

    def _cell(mechanism, h, n, duration):
        engine = run_cc_experiment(...)
        return extract_plain_results(engine)   # picklable data only

    results = sweep(_cell, grid, workers=4)

Results are returned in grid order regardless of completion order
(dispatch uses ``imap_unordered`` + grid-order reassembly, so a slow cell
never blocks progress reporting on the fast ones).

On top of plain dispatch the sweep provides:

* **Caching** — pass ``cache=`` (a :class:`~repro.sim.cellcache.CellCache`
  or a directory) or install a process-wide default via the runner's
  ``--cache`` flag; cells whose content key is already stored are restored
  instead of recomputed, byte-identical to a fresh run.
* **Determinism digests** — with ``digest=True`` (implied by caching),
  every engine built inside a cell gets a
  :class:`~repro.sim.digest.DeterminismDigest`; the hexdigests ride along
  in each :class:`CellOutcome` for parallel-vs-sequential equivalence
  checks.
* **Crash isolation** — a cell that raises inside a worker is logged and
  retried sequentially in the parent (with exponential backoff) up to a
  configurable budget (``retries=`` / the runner's ``--cell-retries``,
  default 1) instead of killing the sweep; the attempt count rides along
  in each :class:`CellOutcome` and the runtime sidecar.
* **Shared immutable tables** — the ``(n, h)`` coordinate/schedule memo is
  pre-warmed in the parent before forking so workers share the pages.
* **Telemetry cooperation** — workers forked under an ambient
  :class:`~repro.obs.capture.TelemetryCapture` wrap their cells in a
  private capture and ship the telemetry home with the result; the parent
  merges it in grid order, stamping each cell's wall clock into the
  runtime sidecar records.  The sequential paths (including the
  pool-unavailable fallback) route through the same wrapper, so no path
  loses telemetry.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import sys
import time
import traceback
from contextlib import ExitStack, contextmanager
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

__all__ = ["sweep", "sweep_cells", "default_workers", "CellOutcome",
           "default_cell_retries", "set_default_cell_retries",
           "ShardPool", "ShardCrash", "ShardWorkerError",
           "get_shard_pool", "shutdown_shard_pools"]

#: ambient crash-retry budget for worker cells (runner: ``--cell-retries``)
_default_cell_retries = 1


def set_default_cell_retries(retries: int) -> int:
    """Install the process-wide crash-retry budget for sweeps; returns the
    previous one.

    A cell that dies inside a pool worker is retried sequentially in the
    parent up to this many times (with logged exponential backoff between
    attempts) before the failure propagates.  ``0`` disables retries: the
    first worker crash raises.  Sweeps that pass an explicit ``retries=``
    override the ambient value.
    """
    global _default_cell_retries
    if retries < 0:
        raise ValueError(f"retry budget must be >= 0, got {retries}")
    previous = _default_cell_retries
    _default_cell_retries = retries
    return previous


def default_cell_retries() -> int:
    """The ambient crash-retry budget (default 1)."""
    return _default_cell_retries


def _retry_backoff(attempt: int) -> float:
    """Seconds to wait before retry ``attempt`` (1-based): 0.5, 1, 2, ... ."""
    return min(30.0, 0.5 * 2 ** (attempt - 1))


def default_workers(cap: int = 8) -> int:
    """A sensible worker count: physical parallelism, capped."""
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        cores = os.cpu_count() or 1
    return max(1, min(cap, cores - 1))


def _log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


class CellOutcome:
    """One evaluated (or cache-restored) grid cell.

    Attributes:
        value: the worker's return value, or a
            :class:`~repro.obs.capture.SweepTelemetry` wrapping it when a
            telemetry capture was active.
        digests: hexdigests of the :class:`DeterminismDigest` of every
            engine the cell constructed, in construction order (empty when
            digests were not requested or the cell builds no engines).
        wall: the cell's compute wall-clock seconds (a cache hit keeps
            the wall of the run that originally computed it).
        cached: whether the outcome was restored from the cell cache.
        retried: whether this outcome came from the sequential crash-retry
            after the cell died in a worker.
        attempts: total evaluations of this cell (1 = first try succeeded;
            a cache hit keeps the attempts of the run that computed it).
        resume_slot: the timeslot the cell's engine resumed from when an
            ambient checkpoint policy found a snapshot (None = from 0).
    """

    __slots__ = ("value", "digests", "wall", "cached", "retried",
                 "attempts", "resume_slot")

    def __init__(self, value: Any, digests: Tuple[str, ...] = (),
                 wall: float = 0.0, cached: bool = False):
        self.value = value
        self.digests = digests
        self.wall = wall
        self.cached = cached
        self.retried = False
        self.attempts = 1
        self.resume_slot: Optional[int] = None

    def __repr__(self) -> str:  # pragma: no cover - debug convenience
        return (f"CellOutcome(wall={self.wall:.3f}s, cached={self.cached}, "
                f"digests={len(self.digests)})")


class _CellFailure:
    """A worker-side exception, shipped home as data (crash isolation)."""

    __slots__ = ("message",)

    def __init__(self, message: str):
        self.message = message


@contextmanager
def _digest_hooks(digests: List[str]):
    """Attach a DeterminismDigest to every engine built inside the block.

    The digest is a pure observer (see ``tests/test_golden_traces.py``), so
    enabling it never perturbs the simulated event stream.  Hexdigests are
    appended to ``digests`` in engine-construction order on exit.
    """
    from . import engine as _engine_mod

    collected = []

    def hook(engine):
        engine.enable_digest()
        collected.append(engine)

    _engine_mod._construction_hooks.append(hook)
    try:
        yield
    finally:
        _engine_mod._construction_hooks.remove(hook)
        # read the live digest at exit: a cell that calls enable_digest()
        # itself replaces the hook's instance, and the replacement is the
        # one that actually observed the run
        digests.extend(e.digest.hexdigest() for e in collected
                       if e.digest is not None)


def _invoke(fn: Callable, kwargs: Dict[str, Any],
            want_digest: bool) -> CellOutcome:
    """Run one cell, wrapping it for telemetry shipping and digests.

    Used identically by forked workers and by every sequential path (the
    ``workers <= 1`` case and the pool-unavailable fallback), so telemetry
    and digest behavior cannot diverge between dispatch modes.
    """
    from ..obs import capture as _capture
    from . import checkpoint as _checkpoint

    started = time.perf_counter()
    digests: List[str] = []
    outer = _capture.current_capture()
    with ExitStack() as stack:
        cell_capture = None
        if outer is not None:
            # Engines must register with a private per-cell capture (whose
            # bundle is shipped home and merged in grid order), never
            # directly with the ambient one — in a forked worker the
            # ambient capture is an unreachable copy, and in the parent a
            # double registration would duplicate every run.
            stack.enter_context(outer.suspended())
            cell_capture = stack.enter_context(_capture.TelemetryCapture())
        if want_digest:
            stack.enter_context(_digest_hooks(digests))
        # the checkpoint scope must be entered LAST so its construction
        # hook runs after capture/digest hooks: a restored engine's
        # observer state then lands on observers that are already attached
        scope = None
        policy = _checkpoint.default_policy()
        if policy is not None:
            key = policy.key_for(fn, kwargs)
            scope = stack.enter_context(policy.cell_scope(key))
        result = fn(**kwargs)
        if scope is not None:
            scope.discard()  # clean completion: snapshots no longer needed
    if cell_capture is not None:
        runs, runtimes, events = cell_capture.collect_bundle()
        result = _capture.SweepTelemetry(result, runs, runtimes, events)
    outcome = CellOutcome(result, tuple(digests),
                          time.perf_counter() - started)
    if scope is not None:
        outcome.resume_slot = scope.resume_slot
    return outcome


def _invoke_payload(payload):
    """Pool entry point: evaluate one indexed cell, never raise."""
    index, fn, kwargs, want_digest = payload
    try:
        return index, _invoke(fn, kwargs, want_digest)
    except Exception:
        return index, _CellFailure(traceback.format_exc())


def _warm_before_fork(cells: Sequence[Dict[str, Any]]) -> None:
    """Load in the parent what every forked worker would load again.

    Workers inherit the parent's modules and pages copy-on-write, so a
    module imported or a table built once here costs no worker anything,
    while one a cell reaches lazily is compiled anew in every worker of
    every sweep.  Warmed: the modules every cell's :func:`_invoke` reads,
    each cell's routing strategy and its (strategy, n, h) schedule memo.
    Cells name their size/tuning with the conventional ``n`` / ``h`` (or
    ``h_bulk``/``h_latency``) kwargs, their connection schedule with the
    ``schedule`` kwarg (default EBS) and their routing with ``routing``
    (default VLB); anything else simply stays cold.
    """
    from . import checkpoint  # the policy every cell's _invoke reads
    from ..core.strategies import routing_class, shared_schedule

    warmed = set()
    for cell in cells:
        routing = cell.get("routing", "vlb")
        if isinstance(routing, str) and routing not in warmed:
            warmed.add(routing)
            try:
                routing_class(routing)
            except ValueError:
                pass  # unknown: the cell itself reports it
        n = cell.get("n")
        if not isinstance(n, int) or n > 65536:
            continue
        strategy = cell.get("schedule", "ebs")
        if not isinstance(strategy, str):
            continue
        for key in ("h", "h_bulk", "h_latency"):
            h = cell.get(key)
            if isinstance(h, int) and (strategy, n, h) not in warmed:
                warmed.add((strategy, n, h))
                try:
                    shared_schedule(strategy, n, h)
                except ValueError:
                    pass  # infeasible (or unknown) for this tuning


def sweep_cells(
    fn: Callable[..., Any],
    grid: Sequence[Dict[str, Any]],
    workers: Optional[int] = None,
    *,
    cache=None,
    label: Optional[str] = None,
    digest: bool = False,
    retries: Optional[int] = None,
) -> List[CellOutcome]:
    """Evaluate ``fn(**cell)`` for every cell; return rich outcomes.

    Args:
        fn: a picklable (module-level) function.
        grid: keyword-argument dictionaries, one per cell.
        workers: process count; ``None`` or ``<= 1`` runs sequentially.
        cache: a :class:`~repro.sim.cellcache.CellCache` (or a directory
            path for one); ``None`` uses the ambient default cache, which
            is off unless the runner installed one.
        label: tag for progress lines (defaults to ``fn``'s module name).
        digest: force per-engine determinism digests even without a cache.
        retries: crash-retry budget for cells that die inside a pool
            worker; ``None`` uses the ambient default
            (:func:`default_cell_retries`, normally 1).

    Returns:
        :class:`CellOutcome` objects in grid order.
    """
    from . import cellcache as _cellcache
    from ..obs.capture import current_capture

    cells = [dict(cell) for cell in grid]
    if cache is None:
        cache = _cellcache.default_cache()
    elif not isinstance(cache, _cellcache.CellCache):
        cache = _cellcache.CellCache(cache)
    want_digest = digest or cache is not None
    if workers is None:
        workers = 1
    if label is None:
        label = getattr(fn, "__module__", "cells").rsplit(".", 1)[-1]
    if retries is None:
        retries = default_cell_retries()
    elif retries < 0:
        raise ValueError(f"retry budget must be >= 0, got {retries}")

    outcomes: List[Optional[CellOutcome]] = [None] * len(cells)
    keys: List[Optional[str]] = [None] * len(cells)
    telemetry_active = current_capture() is not None
    pending: List[int] = []
    for i, cell in enumerate(cells):
        if cache is not None:
            keys[i] = cache.key_for(fn, cell, telemetry=telemetry_active)
            hit = cache.get(keys[i])
            if hit is not _cellcache.MISS:
                hit.cached = True
                outcomes[i] = hit
                continue
        pending.append(i)
    hits = len(cells) - len(pending)
    if hits and len(cells) > 1:
        _log(f"[sweep {label}] {hits}/{len(cells)} cells restored from "
             f"cache")

    def run_sequential(indices: List[int]) -> None:
        for count, i in enumerate(indices, 1):
            outcomes[i] = _invoke(fn, cells[i], want_digest)
            if len(indices) > 1:
                _log(f"[sweep {label}] cell {i + 1}/{len(cells)} done in "
                     f"{outcomes[i].wall:.1f}s "
                     f"({count}/{len(indices)} this run)")

    if workers <= 1 or len(pending) <= 1:
        run_sequential(pending)
    else:
        _warm_before_fork([cells[i] for i in pending])
        payloads = [(i, fn, cells[i], want_digest) for i in pending]
        failed: List[Tuple[int, str]] = []
        try:
            # fork keeps imports cheap and shares the pre-warmed tables;
            # chunksize stays 1 because cells are whole simulations — the
            # IPC cost per dispatch is noise next to the cell itself
            context = multiprocessing.get_context("fork")
            pool_size = min(workers, len(pending))
            done = 0
            with context.Pool(processes=pool_size) as pool:
                for i, out in pool.imap_unordered(_invoke_payload, payloads):
                    if isinstance(out, _CellFailure):
                        failed.append((i, out.message))
                        plan = (f"will retry sequentially, budget "
                                f"{retries}" if retries
                                else "retries disabled")
                        _log(f"[sweep {label}] cell {i + 1}/{len(cells)} "
                             f"failed in a worker ({plan}):\n{out.message}")
                    else:
                        outcomes[i] = out
                        done += 1
                        _log(f"[sweep {label}] cell {i + 1}/{len(cells)} "
                             f"done in {out.wall:.1f}s "
                             f"({done}/{len(payloads)} this run)")
        except (OSError, ValueError) as exc:
            # a start method or the pool itself is unavailable (restricted
            # sandboxes); fall back sequentially WITHOUT losing telemetry —
            # the same _invoke wrapper runs in-process
            _log(f"[sweep {label}] process pool unavailable ({exc!r}); "
                 f"running remaining cells sequentially")
            run_sequential([i for i in pending if outcomes[i] is None])
            failed = []
        # crash isolation: failed cells are retried sequentially up to the
        # configured budget, with logged exponential backoff between
        # attempts (transient crashes — OOM kills, flaky sandboxes — often
        # clear once the pool's siblings are gone).  Exhausting the budget
        # propagates the last error like any sequential error would.  With
        # an ambient checkpoint policy each retry resumes from the dead
        # worker's last snapshot instead of recomputing from slot 0.
        for count, (i, message) in enumerate(failed, 1):
            if retries == 0:
                raise RuntimeError(
                    f"[sweep {label}] cell {i + 1}/{len(cells)} failed in "
                    f"a worker and the retry budget is 0:\n{message}"
                )
            out = None
            for attempt in range(1, retries + 1):
                backoff = _retry_backoff(attempt)
                _log(f"[sweep {label}] cell {i + 1}/{len(cells)} retry "
                     f"{attempt}/{retries} in {backoff:.1f}s")
                time.sleep(backoff)
                try:
                    out = _invoke(fn, cells[i], want_digest)
                except Exception:
                    if attempt == retries:
                        raise
                    _log(f"[sweep {label}] cell {i + 1}/{len(cells)} retry "
                         f"{attempt}/{retries} failed:\n"
                         f"{traceback.format_exc()}")
                    continue
                break
            out.retried = True
            out.attempts = 1 + attempt
            outcomes[i] = out
            origin = ("from scratch" if out.resume_slot is None
                      else f"resumed from slot {out.resume_slot}")
            _log(f"[sweep {label}] cell {i + 1}/{len(cells)} recovered on "
                 f"attempt {out.attempts} ({origin}) in {out.wall:.1f}s "
                 f"({count}/{len(failed)} crashed cells)")
    if cache is not None:
        for i in pending:
            out = outcomes[i]
            if out is not None and not out.cached:
                cache.put(keys[i], out)
    return outcomes


def _finalize(outcomes: List[CellOutcome]) -> List[Any]:
    """Merge shipped-home telemetry (grid order) and strip the wrappers.

    Each cell's wall clock (and cache provenance) is stamped into its
    runtime sidecar records on the way through, so the runner's
    ``<exp>.runtime.json`` carries per-cell timings while the
    deterministic ``<exp>.json`` stays byte-identical.
    """
    from ..obs.capture import SweepTelemetry, current_capture

    active = current_capture()
    values: List[Any] = []
    for out in outcomes:
        value = out.value
        if isinstance(value, SweepTelemetry):
            if active is not None:
                for entry in value.runtimes:
                    runtime = entry.get("runtime")
                    if isinstance(runtime, dict):
                        runtime["cell_wall_seconds"] = out.wall
                        runtime["cell_cached"] = out.cached
                        runtime["cell_retried"] = getattr(
                            out, "retried", False)
                        runtime["cell_attempts"] = getattr(
                            out, "attempts", 1)
                        runtime["cell_resume_slot"] = getattr(
                            out, "resume_slot", None)
                active.merge(value)
            values.append(value.result)
        else:
            values.append(value)
    return values


# ---------------------------------------------------------------------- #
# persistent shard worker pool (the "shard" engine backend's transport)
#
# Distinct from the per-cell sweep pool above: sweep workers each own a
# whole independent simulation, while shard workers *cooperate* on one
# simulation — they advance in lockstep and exchange per-slot mailbox
# messages with each other, so they need a persistent all-to-all queue
# mesh rather than an imap-style task pool.

class ShardCrash(RuntimeError):
    """A shard worker process died mid-segment (e.g. SIGKILL/OOM).

    The parent's scatter is read-only until the gather commits, so the
    caller can respawn the pool and re-dispatch the identical segment.
    """


class ShardWorkerError(RuntimeError):
    """A shard worker raised; carries the worker-side traceback."""


class ShardPool:
    """``count`` persistent fork-context worker processes plus mailboxes.

    Transport layout:

    * one task queue per worker (parent -> worker segment dispatch),
    * one shared result queue (workers -> parent),
    * one mailbox queue per worker, written by every *peer* worker —
      the deterministic per-slot mailbox transport of the shard backend.
      Messages are tagged ``(segment, round, source shard)``; ordering is
      restored receiver-side from the tags, so queue interleaving (which
      is scheduler-dependent) never reaches the simulation.

    The pool is generation-based: :meth:`respawn` tears down every process
    *and* every queue and builds a fresh generation, so no stale message
    from a crashed segment can ever leak into a retry.
    """

    def __init__(self, count: int, target: Callable):
        if count < 2:
            raise ValueError(f"a shard pool needs >= 2 workers, got {count}")
        self.count = count
        self._target = target
        self._ctx = multiprocessing.get_context("fork")
        self._segment = 0
        self._spawn()

    def _spawn(self) -> None:
        ctx = self._ctx
        self.task_queues = [ctx.Queue() for _ in range(self.count)]
        self.result_queue = ctx.Queue()
        self.mail_queues = [ctx.Queue() for _ in range(self.count)]
        self.procs = []
        for idx in range(self.count):
            proc = ctx.Process(
                target=self._target,
                args=(idx, self.count, self.task_queues[idx],
                      self.result_queue, self.mail_queues),
                daemon=True,
                name=f"repro-shard-{idx}",
            )
            proc.start()
            self.procs.append(proc)
        #: table-payload keys already shipped to this generation's workers
        self.shipped_tables = set()

    def alive(self) -> bool:
        return all(proc.is_alive() for proc in self.procs)

    def respawn(self) -> None:
        """Kill the current generation and start a fresh one."""
        self.close()
        self._spawn()

    def close(self) -> None:
        for proc in getattr(self, "procs", ()):
            if proc.is_alive():
                proc.terminate()
        for proc in getattr(self, "procs", ()):
            proc.join(timeout=5.0)
        for queue in (getattr(self, "task_queues", [])
                      + getattr(self, "mail_queues", [])
                      + [getattr(self, "result_queue", None)]):
            if queue is None:
                continue
            queue.cancel_join_thread()
            queue.close()
        self.procs = []

    def run_segment(self, tasks: Sequence[Any], timeout: float = 600.0):
        """Dispatch one task per worker; gather ``count`` results.

        Raises :class:`ShardCrash` if any worker process dies before all
        results arrive and :class:`ShardWorkerError` if a worker raised.
        Results come back ordered by shard index.
        """
        if len(tasks) != self.count:
            raise ValueError(
                f"expected {self.count} shard tasks, got {len(tasks)}"
            )
        self._segment += 1
        segment = self._segment
        for queue, task in zip(self.task_queues, tasks):
            queue.put(("run", segment, task))
        results: List[Any] = [None] * self.count
        missing = self.count
        deadline = time.monotonic() + timeout
        while missing:
            try:
                idx, seg, kind, payload = self.result_queue.get(timeout=0.25)
            except Exception:  # queue.Empty (also raised via mp internals)
                if not self.alive():
                    raise ShardCrash(
                        "a shard worker process died mid-segment"
                    ) from None
                if time.monotonic() > deadline:
                    raise ShardCrash(
                        f"shard segment timed out after {timeout:.0f}s"
                    ) from None
                continue
            if seg != segment:
                continue  # stale message from an abandoned segment
            if kind == "error":
                raise ShardWorkerError(
                    f"shard worker {idx} raised:\n{payload}"
                )
            results[idx] = payload
            missing -= 1
        return results


#: live pools keyed by (worker count, target qualname); reused across
#: segments and engines so worker spawn cost amortizes over a whole run
_SHARD_POOLS: Dict[Tuple[int, str], ShardPool] = {}


def get_shard_pool(count: int, target: Callable) -> ShardPool:
    """The persistent :class:`ShardPool` for ``count`` workers (cached)."""
    key = (count, f"{target.__module__}.{target.__qualname__}")
    pool = _SHARD_POOLS.get(key)
    if pool is None or not pool.alive():
        if pool is not None:
            pool.close()
        pool = ShardPool(count, target)
        _SHARD_POOLS[key] = pool
    return pool


def shutdown_shard_pools() -> None:
    """Terminate every cached shard pool (atexit + tests)."""
    for pool in _SHARD_POOLS.values():
        pool.close()
    _SHARD_POOLS.clear()


atexit.register(shutdown_shard_pools)


def sweep(
    fn: Callable[..., Any],
    grid: Sequence[Dict[str, Any]],
    workers: Optional[int] = None,
    *,
    cache=None,
    label: Optional[str] = None,
    retries: Optional[int] = None,
) -> List[Any]:
    """Evaluate ``fn(**cell)`` for every cell of ``grid``.

    Args:
        fn: a picklable (module-level) function.
        grid: keyword-argument dictionaries, one per cell.
        workers: process count; ``None`` or ``<= 1`` runs sequentially.
        cache: optional cell cache (see :func:`sweep_cells`).
        label: tag for progress lines.
        retries: crash-retry budget (see :func:`sweep_cells`).

    Returns:
        Results in the same order as ``grid``.
    """
    return _finalize(sweep_cells(fn, grid, workers,
                                 cache=cache, label=label, retries=retries))
