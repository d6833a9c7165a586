"""Shared plumbing for the experiment regenerators.

Every experiment module exposes a ``run(...)`` function returning a plain
result object with the same rows/series the paper's figure reports, plus a
``report(result)`` function rendering it as text.  Default parameters are
scaled down from the paper (documented per experiment and in EXPERIMENTS.md)
but every knob can be turned back up to paper scale.
"""

from __future__ import annotations

import functools
import inspect
import time
from contextlib import ExitStack
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from ..analysis.fct import FctTable, fct_table
from ..sim.config import SimConfig
from ..sim.engine import Engine, ScheduledFlow
from ..workloads.distributions import (
    FlowSizeDistribution,
    HeavyTailedDistribution,
    ShortFlowDistribution,
)
from ..workloads.generators import poisson_workload

__all__ = [
    "ExperimentResult",
    "experiment_entrypoint",
    "run_cc_experiment",
    "load_for",
    "workload_for",
    "format_table",
    "DISTRIBUTIONS",
]

DISTRIBUTIONS = {
    "short-flow": ShortFlowDistribution,
    "heavy-tailed": HeavyTailedDistribution,
}


class ExperimentResult:
    """The uniform return type of every experiment ``run()``.

    Attributes:
        name: the experiment id (``fig08``-style module suffix).
        payload: the experiment's own result object (``Fig08Result`` etc.) —
            deterministic data only, what the runner serialises to
            ``<name>.json``.
        runtime: volatile sidecar facts (wall clock, telemetry bundles,
            checkpoint resume slots) that go to ``<name>.runtime.json``.

    Unknown attributes delegate to ``payload``, so existing consumers
    (``report()`` functions, tests, notebooks) keep reading ``result.rows``
    / ``result.n`` exactly as before the wrapper existed.
    """

    __slots__ = ("name", "payload", "runtime")

    def __init__(self, name: str, payload: Any,
                 runtime: Optional[Dict[str, Any]] = None):
        self.name = name
        self.payload = payload
        self.runtime = dict(runtime or {})

    def __getattr__(self, attr: str) -> Any:
        # __getattr__ only fires for names not found on the instance; the
        # guard keeps unpickling and introspection from recursing before
        # the slots are populated
        if attr.startswith("_") or attr in ("name", "payload", "runtime"):
            raise AttributeError(attr)
        return getattr(self.payload, attr)

    def __repr__(self) -> str:  # pragma: no cover - debug convenience
        return (f"ExperimentResult({self.name!r}, "
                f"payload={type(self.payload).__name__}, "
                f"runtime={sorted(self.runtime)})")


#: the keyword tail shared by every experiment entrypoint; parameters an
#: experiment does not declare itself are handled (or absorbed) here
UNIFORM_TAIL = ("workers", "cache", "telemetry", "seed",
                "checkpoint_dir", "checkpoint_every")

_TAIL_DEFAULTS: Dict[str, Any] = {
    "workers": 1, "cache": None, "telemetry": None, "seed": None,
    "checkpoint_dir": None, "checkpoint_every": None,
}


def experiment_entrypoint(fn):
    """Give an experiment ``run()`` the uniform keyword-only signature.

    Every decorated entrypoint:

    * accepts the shared tail — ``workers=``, ``cache=``, ``telemetry=``,
      ``seed=``, ``checkpoint_dir=``, ``checkpoint_every=`` — whether or not
      the experiment declares the keyword itself (undeclared ``workers`` /
      ``seed`` are absorbed: analytic models have no RNG or grid);
    * installs ``cache`` (a :class:`~repro.sim.cellcache.CellCache` or a
      directory) and ``checkpoint_dir`` (a
      :class:`~repro.sim.checkpoint.CheckpointPolicy` or a directory) as the
      ambient defaults for the duration of the call;
    * opens a :class:`~repro.obs.capture.TelemetryCapture` when
      ``telemetry`` is truthy and none is ambient, shipping the bundle home
      in ``result.runtime["telemetry"]``;
    * returns an :class:`ExperimentResult` (never nested — an experiment
      delegating to another decorated entrypoint is flattened).
    """
    declared = list(inspect.signature(fn).parameters.values())
    declared_names = [p.name for p in declared]
    exp_name = fn.__module__.rsplit(".", 1)[-1]

    @functools.wraps(fn)
    def wrapper(**kwargs):
        cache = kwargs.pop("cache", None)
        telemetry = kwargs.pop("telemetry", None)
        checkpoint_dir = kwargs.pop("checkpoint_dir", None)
        checkpoint_every = kwargs.pop("checkpoint_every", None)
        for name in ("workers", "seed"):
            if name not in declared_names:
                kwargs.pop(name, None)

        from ..obs import capture as _capture
        from ..sim import cellcache as _cellcache
        from ..sim import checkpoint as _checkpoint

        started = time.perf_counter()
        runtime: Dict[str, Any] = {}
        capture = None
        with ExitStack() as stack:
            if cache is not None:
                cache_obj = (cache if isinstance(cache, _cellcache.CellCache)
                             else _cellcache.CellCache(cache))
                stack.callback(_cellcache.set_default_cache,
                               _cellcache.set_default_cache(cache_obj))
            if checkpoint_dir is not None:
                policy = (
                    checkpoint_dir
                    if isinstance(checkpoint_dir, _checkpoint.CheckpointPolicy)
                    else _checkpoint.CheckpointPolicy(
                        checkpoint_dir,
                        every=(100_000 if checkpoint_every is None
                               else checkpoint_every))
                )
                stack.callback(_checkpoint.set_default_policy,
                               _checkpoint.set_default_policy(policy))
            if telemetry is not None and telemetry is not False:
                if isinstance(telemetry, _capture.TelemetryCapture):
                    if _capture.current_capture() is not telemetry:
                        stack.enter_context(telemetry)
                elif _capture.current_capture() is None:
                    capture = stack.enter_context(_capture.TelemetryCapture())
            payload = fn(**kwargs)
        if isinstance(payload, ExperimentResult):
            # an experiment that delegates to another entrypoint (fig11 ->
            # fig10); keep the inner runtime facts, report the outer name
            runtime = {**payload.runtime, **runtime}
            payload = payload.payload
        runtime["wall_seconds"] = time.perf_counter() - started
        if capture is not None:
            runs, runtimes, events = capture.collect_bundle()
            runtime["telemetry"] = {
                "runs": runs, "runtimes": runtimes, "events": events,
            }
        return ExperimentResult(exp_name, payload, runtime)

    params = [p.replace(kind=inspect.Parameter.KEYWORD_ONLY)
              for p in declared]
    for name in UNIFORM_TAIL:
        if name not in declared_names:
            params.append(inspect.Parameter(
                name, inspect.Parameter.KEYWORD_ONLY,
                default=_TAIL_DEFAULTS[name]))
    wrapper.__signature__ = inspect.Signature(
        params, return_annotation=ExperimentResult)
    return wrapper


def load_for(h: int, fraction_of_guarantee: float = 0.96) -> float:
    """The paper's load-factor convention: just under the 1/(2h) guarantee.

    The paper uses L = 0.24 for h = 2 and L = 0.12 for h = 4 — 96% of the
    respective guarantees.
    """
    return fraction_of_guarantee / (2 * h)


#: Default flow-size scale for down-scaled runs of each workload: the
#: short-flow mix fits small horizons as-is, while the heavy-tailed mix needs
#: its elephants shrunk so they arrive (and complete) within the window, the
#: same ratio by which the default horizons are shorter than the paper's 50M
#: timeslots.  Paper-scale runs pass scale=1.0.
DEFAULT_WORKLOAD_SCALE = {
    "short-flow": 1.0,
    "heavy-tailed": 0.02,
}


def workload_for(
    config: SimConfig,
    distribution_name: str,
    load: Optional[float] = None,
    scale: Optional[float] = None,
) -> List[ScheduledFlow]:
    """Build the Poisson workload the paper uses for ``distribution_name``."""
    if scale is None:
        scale = DEFAULT_WORKLOAD_SCALE[distribution_name]
    distribution = DISTRIBUTIONS[distribution_name](scale=scale)
    actual_load = load if load is not None else load_for(config.h)
    return poisson_workload(config, distribution, actual_load)


def run_cc_experiment(
    config: SimConfig,
    workload: Sequence[ScheduledFlow],
    drain: bool = True,
    max_drain: int = 200_000,
) -> Engine:
    """Run one (mechanism, workload) cell of a Fig. 10/11-style experiment."""
    engine = Engine(config, workload=list(workload))
    engine.run()
    if drain:
        engine.run_until_quiescent(max_extra=max_drain)
    return engine


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    float_fmt: str = "{:.2f}",
) -> str:
    """Render an aligned plain-text table (the experiment report format)."""
    rendered: List[List[str]] = [[str(header) for header in headers]]
    for row in rows:
        cells = []
        for value in row:
            if isinstance(value, float):
                cells.append(float_fmt.format(value))
            else:
                cells.append(str(value))
        rendered.append(cells)
    widths = [
        max(len(r[i]) for r in rendered) for i in range(len(rendered[0]))
    ]
    lines = []
    for i, row in enumerate(rendered):
        lines.append(
            "  ".join(cell.rjust(w) for cell, w in zip(row, widths))
        )
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)
