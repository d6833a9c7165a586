"""Command-line entry point for the experiment regenerators.

Usage::

    python -m repro.experiments.runner --list
    python -m repro.experiments.runner fig01
    python -m repro.experiments.runner fig11 --set n=64 --set duration=60000
    python -m repro.experiments.runner all --out results/
    python -m repro.experiments.runner fig08 --telemetry out/

``--set key=value`` forwards keyword arguments to the experiment's ``run()``
(values are parsed as Python literals, so ``--set h_values=(2,4)`` works).
During an ``all`` sweep each override is applied to every experiment whose
``run()`` accepts the key (checked via ``inspect.signature``); experiments
that don't accept it are skipped with a warning rather than silently
dropping the override.

``--telemetry DIR`` instruments every engine the experiments build (see
:mod:`repro.obs`) and writes machine-readable artifacts next to the text
reports: ``<experiment>.json`` (result + per-run summary/series/manifest,
byte-identical across runs with the same seed), ``<experiment>.runtime.json``
(wall clock, slots/sec, peak RSS) and ``<experiment>.events.jsonl`` (the
structured event log).

``--workers N`` (default :func:`repro.sim.parallel.default_workers`) fans
each experiment's grid cells out over a process pool — both for a single
experiment and for every experiment of an ``all`` sweep.  Results are
byte-identical to sequential runs; pass ``--workers 1`` to force
sequential execution.

``--cell-retries N`` sets the crash-retry budget for sweep cells that die
inside a pool worker (default 1); each retry runs sequentially in the
parent after a logged exponential backoff, and the attempt count lands in
the runtime sidecar.  ``--seed S`` forwards a master seed to every
experiment (shorthand for ``--set seed=S``).

``--cache DIR`` (or the ``REPRO_CACHE`` environment variable) installs a
content-addressed cell cache (:mod:`repro.sim.cellcache`): grid cells
already computed with identical code + configuration are restored instead
of re-simulated, and per-experiment hit/miss counts are reported.

``--backend NAME`` installs an engine backend (:mod:`repro.sim.backends`)
as the process default for every engine the run builds: ``object`` (the
reference per-node pipelines) or ``vector`` (the vectorized numpy slot
stepper, bit-exact and ~5x faster at n=256 where it applies).  The choice
lands in every resolved config, so cell-cache keys and checkpoints never
mix backends.

``--checkpoint-dir DIR`` (with ``--checkpoint-every N``, default 100000
timeslots) installs a :class:`~repro.sim.checkpoint.CheckpointPolicy`:
every sweep cell periodically snapshots its engines into DIR, a cell that
dies (crash, OOM, SIGKILL) resumes from its last snapshot instead of
recomputing from slot 0, and the snapshots are removed when a cell
completes cleanly.  Resumed results are bit-identical to uninterrupted
runs.

A failing experiment no longer aborts an ``all`` sweep: the failure is
reported, the remaining experiments still run, and the exit status is
non-zero.
"""

from __future__ import annotations

import argparse
import ast
import inspect
import os
import pathlib
import sys
import time
import traceback
from contextlib import ExitStack
from typing import Any, Dict, List, Optional, Tuple

from . import ALL_EXPERIMENTS

__all__ = ["main", "run_experiment", "run_experiment_result",
           "split_overrides"]


def _parse_overrides(pairs: List[str]) -> Dict[str, Any]:
    """Parse ``key=value`` pairs; values are Python literals when possible."""
    out: Dict[str, Any] = {}
    for pair in pairs:
        if "=" not in pair:
            raise SystemExit(f"--set expects key=value, got {pair!r}")
        key, _, raw = pair.partition("=")
        try:
            value: Any = ast.literal_eval(raw)
        except (ValueError, SyntaxError):
            value = raw  # leave as a string (e.g. workload names)
        out[key.strip()] = value
    return out


def split_overrides(
    module, overrides: Dict[str, Any]
) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """Partition ``overrides`` into (accepted, rejected) for ``module.run``.

    A ``run()`` taking ``**kwargs`` accepts everything.
    """
    params = inspect.signature(module.run).parameters
    if any(p.kind == inspect.Parameter.VAR_KEYWORD
           for p in params.values()):
        return dict(overrides), {}
    accepted = {k: v for k, v in overrides.items() if k in params}
    rejected = {k: v for k, v in overrides.items() if k not in params}
    return accepted, rejected


def accepts_workers(module) -> bool:
    """Whether ``module.run`` has an explicit ``workers`` parameter.

    A bare ``**kwargs`` does NOT count — injecting ``workers`` into a
    ``run()`` that merely swallows keywords would change its behaviour
    silently, so only experiments that declare the parameter get it.
    """
    params = inspect.signature(module.run).parameters
    param = params.get("workers")
    return param is not None and param.kind in (
        inspect.Parameter.POSITIONAL_OR_KEYWORD,
        inspect.Parameter.KEYWORD_ONLY,
    )


def run_experiment_result(
    name: str, overrides: Optional[Dict[str, Any]] = None
) -> Tuple[Any, str]:
    """Run one experiment; return ``(result object, text report)``."""
    module = ALL_EXPERIMENTS.get(name)
    if module is None:
        raise KeyError(
            f"unknown experiment {name!r}; known: {sorted(ALL_EXPERIMENTS)}"
        )
    result = module.run(**(overrides or {}))
    return result, module.report(result)


def run_experiment(name: str, overrides: Optional[Dict[str, Any]] = None) -> str:
    """Run one experiment and return its text report."""
    return run_experiment_result(name, overrides)[1]


def _write_telemetry(directory: pathlib.Path, name: str, result: Any,
                     overrides: Dict[str, Any], capture) -> None:
    """Write the machine-readable artifacts for one experiment.

    ``<name>.json`` holds only deterministic data (result, summaries,
    series, run manifests) and is byte-identical across runs with the same
    seed; volatile measurements go to ``<name>.runtime.json`` and the event
    stream to ``<name>.events.jsonl``.
    """
    from ..obs.events import encode_event
    from ..obs.serialize import canonical_json, to_jsonable
    from .common import ExperimentResult

    runs, runtimes, events = capture.collect_bundle()
    directory.mkdir(parents=True, exist_ok=True)
    run_runtime = None
    if isinstance(result, ExperimentResult):
        # deterministic payload and volatile runtime travel to different
        # files, so <name>.json stays byte-identical across (resumed) runs
        run_runtime = to_jsonable(result.runtime)
        result = result.payload
    payload = {
        "schema": 1,
        "experiment": name,
        "overrides": to_jsonable(overrides),
        "result": to_jsonable(result),
        "runs": runs,
    }
    (directory / f"{name}.json").write_text(canonical_json(payload) + "\n")
    (directory / f"{name}.runtime.json").write_text(
        canonical_json({"experiment": name, "runs": runtimes,
                        "experiment_runtime": run_runtime}) + "\n"
    )
    with (directory / f"{name}.events.jsonl").open("w") as fh:
        for record in events:
            fh.write(encode_event(record))
            fh.write("\n")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.experiments.runner",
        description="Regenerate figures from the Shale paper.",
    )
    parser.add_argument(
        "experiment",
        nargs="?",
        help="experiment id (fig01..fig17, appd) or 'all'",
    )
    parser.add_argument(
        "--list", action="store_true", help="list available experiments"
    )
    parser.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override a run() keyword argument (repeatable)",
    )
    parser.add_argument(
        "--out",
        type=pathlib.Path,
        default=None,
        help="directory to write <experiment>.txt reports into",
    )
    parser.add_argument(
        "--telemetry",
        type=pathlib.Path,
        default=None,
        metavar="DIR",
        help="instrument the runs and write <experiment>.json results, "
             "time series, manifests and event logs into DIR",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="process-pool size for each experiment's grid cells "
             "(default: one per spare core, capped; 1 = sequential)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=None,
        metavar="S",
        help="master seed forwarded to every experiment's run() "
             "(shorthand for --set seed=S)",
    )
    parser.add_argument(
        "--designs",
        nargs="+",
        default=None,
        metavar="SCHED:ROUTING[:H]",
        help="cross-design comparison specs for fig01 (e.g. ebs:vlb "
             "ebs:semi_oblivious srrd:vlb); shorthand for "
             "--set designs=[...]",
    )
    parser.add_argument(
        "--cell-retries",
        type=int,
        default=None,
        metavar="N",
        help="crash-retry budget for sweep cells that die inside a pool "
             "worker (default: 1; 0 = fail fast); retried attempts are "
             "logged with backoff and recorded in the runtime sidecar",
    )
    parser.add_argument(
        "--cache",
        type=pathlib.Path,
        default=None,
        metavar="DIR",
        help="content-addressed cell cache directory (default: the "
             "REPRO_CACHE environment variable, if set)",
    )
    parser.add_argument(
        "--backend",
        default=None,
        metavar="NAME",
        help="engine backend for every engine the run builds "
             "(\"object\" | \"vector\" | \"shard\"; default: the process "
             "default, normally \"object\") — see repro.sim.backends",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=None,
        metavar="K",
        help="worker-process count for the \"shard\" backend (default: 4); "
             "results are bit-identical for every K",
    )
    parser.add_argument(
        "--paper-scale",
        action="store_true",
        help="use the paper-scale size grid for experiments that have one "
             "(fig13: largest points reach N=10,000 nodes); shorthand for "
             "--set paper_scale=True",
    )
    parser.add_argument(
        "--checkpoint-dir",
        type=pathlib.Path,
        default=None,
        metavar="DIR",
        help="periodically snapshot every sweep cell's engines into DIR "
             "and resume interrupted cells from their last snapshot "
             "(bit-identical to an uninterrupted run)",
    )
    parser.add_argument(
        "--checkpoint-every",
        type=int,
        default=100_000,
        metavar="N",
        help="timeslots between snapshots (default: %(default)s; "
             "only meaningful with --checkpoint-dir)",
    )
    args = parser.parse_args(argv)

    if args.list or args.experiment is None:
        for name, module in sorted(ALL_EXPERIMENTS.items()):
            doc = (module.__doc__ or "").strip().splitlines()
            summary = doc[0] if doc else ""
            print(f"{name:8s} {summary}")
        return 0

    if args.experiment != "all" and args.experiment not in ALL_EXPERIMENTS:
        print(
            f"unknown experiment {args.experiment!r}; "
            f"known: {sorted(ALL_EXPERIMENTS)}",
            file=sys.stderr,
        )
        return 2

    names = (
        sorted(ALL_EXPERIMENTS) if args.experiment == "all"
        else [args.experiment]
    )
    overrides = _parse_overrides(args.overrides)
    if args.seed is not None:
        overrides.setdefault("seed", args.seed)
    if args.designs is not None:
        overrides.setdefault("designs", tuple(args.designs))
    if args.paper_scale:
        overrides.setdefault("paper_scale", True)

    if args.workers is not None:
        workers = args.workers
    else:
        from ..sim.parallel import default_workers

        workers = default_workers()

    # every ambient default main() installs is restored on the way out,
    # also when a later one refuses its value
    with ExitStack() as restore:
        if args.cell_retries is not None:
            from ..sim.parallel import set_default_cell_retries

            restore.callback(set_default_cell_retries,
                             set_default_cell_retries(args.cell_retries))

        cache = None
        cache_dir = args.cache or os.environ.get("REPRO_CACHE") or None
        if cache_dir:
            from ..sim.cellcache import CellCache, set_default_cache

            cache = CellCache(cache_dir)
            restore.callback(set_default_cache, set_default_cache(cache))

        if args.backend is not None:
            from ..sim.backends import set_default_backend

            # validates the name up front; forked sweep workers inherit the
            # module-level default, and it lands in every resolved
            # SimConfig (hence in cell-cache keys and checkpoint validation)
            restore.callback(set_default_backend,
                             set_default_backend(args.backend))

        if args.shards is not None:
            from ..sim.backends import set_default_shards

            # validates up front; shard-pool workers are spawned lazily by
            # the backend, so setting the module default is all the wiring
            # needed
            restore.callback(set_default_shards,
                             set_default_shards(args.shards))

        if args.checkpoint_dir is not None:
            from ..sim.checkpoint import CheckpointPolicy, set_default_policy

            policy = CheckpointPolicy(args.checkpoint_dir,
                                      every=args.checkpoint_every)
            restore.callback(set_default_policy, set_default_policy(policy))

        return _run_all(names, overrides, workers, cache, args)


def _run_all(names: List[str], overrides: Dict[str, Any], workers: int,
             cache, args) -> int:
    sweep_mode = len(names) > 1
    failed: List[str] = []
    for index, name in enumerate(names, 1):
        module = ALL_EXPERIMENTS[name]
        if sweep_mode:
            # apply each override to every experiment that accepts the key;
            # warn about the rest instead of silently dropping everything
            accepted, rejected = split_overrides(module, overrides)
            if rejected:
                print(
                    f"[{name}] run() does not accept override(s): "
                    f"{', '.join(sorted(rejected))} (skipped for this "
                    f"experiment)",
                    file=sys.stderr,
                )
            print(
                f"[{index}/{len(names)}] {name} ...",
                file=sys.stderr, flush=True,
            )
        else:
            accepted = dict(overrides)  # single run: unknown keys fail loudly
        if "workers" not in accepted and accepts_workers(module):
            accepted["workers"] = workers
        started = time.time()
        stats0 = cache.stats() if cache is not None else None
        capture = None
        try:
            if args.telemetry is not None:
                from ..obs.capture import TelemetryCapture

                with TelemetryCapture() as capture:
                    result, report = run_experiment_result(name, accepted)
            else:
                result, report = run_experiment_result(name, accepted)
        except Exception:
            # one broken experiment must not abort the whole sweep
            failed.append(name)
            traceback.print_exc()
            print(f"[{name} FAILED after {time.time() - started:.1f}s]",
                  file=sys.stderr)
            continue
        elapsed = time.time() - started
        print(report)
        print(f"[{name} finished in {elapsed:.1f}s]")
        print()
        if cache is not None:
            stats = cache.stats()
            print(
                f"[{name}] cache: "
                f"{stats['hits'] - stats0['hits']} hits, "
                f"{stats['misses'] - stats0['misses']} misses, "
                f"{stats['writes'] - stats0['writes']} writes",
                file=sys.stderr,
            )
        if args.out is not None:
            args.out.mkdir(parents=True, exist_ok=True)
            (args.out / f"{name}.txt").write_text(report + "\n")
        if args.telemetry is not None:
            _write_telemetry(args.telemetry, name, result, accepted, capture)
    if failed:
        print(
            f"{len(failed)} of {len(names)} experiment(s) failed: "
            f"{', '.join(failed)}",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
