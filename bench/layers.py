"""Fixed probes of single layers — the same procedure whatever workload the
traced run belongs to.

Each probe calls a layer through its public surface only (or differences
two public runs), under spans, inside one calibrated unit, and returns
metrics named ``<layer>.<what>``.  Times inside a probe are raw; the probe
runner rescales them by the calibration around the probe.  README.md maps
every metric here to the end-to-end metric and workload it should move.
"""

from __future__ import annotations

import dataclasses
import statistics
from typing import Any, Callable, Dict, List, Tuple

from harness import Meter
from trace import Tracer
from workloads import (QUANTUM, Sizes, bulk_config, bulk_flows, hbh_config,
                       hbh_flows, matrix_kwargs, matrix_sample,
                       matrix_scorecard, matrix_unit, open_service_session,
                       quiet_sweep, run_service_workload, scratch_dir,
                       service_config, service_source, stopwatch)

#: ``(times, plain)``: raw-seconds-based values to rescale, and values that
#: are already machine-independent (ratios, counts, bytes)
ProbeResult = Tuple[Dict[str, float], Dict[str, float]]


class _Clock:
    """Spans plus a stopwatch: ``seconds = clock(name, work)``."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.result: Any = None

    def __call__(self, name: str, work: Callable[[], Any]) -> float:
        self.result, seconds = stopwatch(work, self.tracer.span, name)
        return seconds


def probe_vector(clock: _Clock, seed: int, sizes: Sizes) -> ProbeResult:
    """The slab stepper on the bulk_permutation engine.

    Runs of S, S, 2S and S+S slots on one engine: the first two differ by
    the per-engine table build, the last two by one extra pack + unpack.
    """
    from repro import Engine

    slots = 100 if sizes.quick else 400
    config = bulk_config(seed, sizes)
    engine = Engine(config, workload=bulk_flows(config))
    first = clock("sim.backends.vector:run.first", lambda: engine.run(slots))
    second = clock("sim.backends.vector:run", lambda: engine.run(slots))
    whole = clock("sim.backends.vector:run", lambda: engine.run(2 * slots))
    halves = clock("sim.backends.vector:run.split",
                   lambda: (engine.run(slots), engine.run(slots)))
    return {
        "vector.step_us_per_slot": 1e6 * whole / (2 * slots),
        "vector.repack_ms": 1e3 * (halves - whole),
        "vector.first_run_extra_ms": 1e3 * (first - second),
        "_vector_s_per_slot": whole / (2 * slots),
    }, {}


def probe_shard(clock: _Clock, seed: int, sizes: Sizes) -> ProbeResult:
    """Two shard workers on the same engine the vector probe steps."""
    from repro import Engine
    from repro.sim.backends import default_shards, set_default_shards
    from repro.sim.parallel import shutdown_shard_pools

    slots = 100 if sizes.quick else 800
    previous = default_shards()
    set_default_shards(2)
    try:
        config = bulk_config(seed, sizes, backend="shard")
        engine = Engine(config, workload=bulk_flows(config))
        round_slots = config.propagation_delay
        first = clock("sim.backends.shard:run.first",
                      lambda: engine.run(round_slots))
        second = clock("sim.backends.shard:run",
                       lambda: engine.run(round_slots))
        steady = clock("sim.backends.shard:run", lambda: engine.run(slots))
    finally:
        set_default_shards(previous)
        shutdown_shard_pools()
    return {
        "shard.pool_spawn_ms": 1e3 * (first - second),
        "_shard_s_per_slot": steady / slots,
    }, {}


def probe_congestion(clock: _Clock, seed: int, sizes: Sizes) -> ProbeResult:
    """Each mechanism's cost over cc="none" on identical traffic (object
    backend, the hbh_shortflow network)."""
    from repro import Engine

    duration = 150 if sizes.quick else 500
    seconds = {}
    for mechanism in ("none", "hbh+spray", "isd", "ndp"):
        config = hbh_config(seed, sizes, backend="object", duration=duration,
                            congestion_control=mechanism)
        engine = Engine(config, workload=hbh_flows(config))
        seconds[mechanism] = clock(f"congestion:{mechanism}", engine.run)
    base = seconds["none"]
    return {}, {
        "congestion.hbh_spray_cost_x": seconds["hbh+spray"] / base,
        "congestion.isd_cost_x": seconds["isd"] / base,
        "congestion.ndp_cost_x": seconds["ndp"] / base,
    }


def probe_setup_layers(clock: _Clock, seed: int, sizes: Sizes) -> ProbeResult:
    """What set-up is made of: schedule tables and workload generation."""
    from repro.core import make_schedule

    build = clock("core:make_schedule",
                  lambda: make_schedule("ebs", sizes.bulk_n, 2))
    config = hbh_config(seed, sizes)
    poisson = clock("workloads:poisson_workload", lambda: hbh_flows(config))
    source = service_source(service_config(sizes))
    take = clock("workloads:OpenLoopSource.take",
                 lambda: source.take(20_000))
    flows = len(clock.result)
    return {
        "core.schedule_build_ms": 1e3 * build,
        "workloads.poisson_gen_ms": 1e3 * poisson,
        "workloads.source_take_us_per_flow": 1e6 * take / max(1, flows),
    }, {}


def probe_observers(clock: _Clock, seed: int, sizes: Sizes) -> ProbeResult:
    """Each observer, and an idle failure manager, on vs off: an
    hbh_shortflow-style unit on the service-sized network."""
    from repro import simulate
    from repro.failures import FailureManager

    config = hbh_config(seed, sizes, n=sizes.service_n, backend="object",
                        duration=200 if sizes.quick else 1000)
    flows = hbh_flows(config)

    def run(label: str, **observers) -> float:
        return clock(f"{label}:simulate",
                     lambda: simulate(config, flows, **observers))

    # a bare run on each side of every pair of observed runs, so slow
    # drift inside the probe cancels
    bare = [run("sim.engine")]
    telemetry = run("obs.timeseries", telemetry=True)
    digest = run("sim.digest", digest=True)
    bare.append(run("sim.engine"))
    events = run("obs.events", events=True)
    monitor = run("sim.monitor", monitor=True)
    bare.append(run("sim.engine"))
    manager = run("failures.manager", failures=FailureManager())
    bare.append(run("sim.engine"))
    base = statistics.fmean(bare)

    def overhead(seconds: float) -> float:
        return 100.0 * (seconds / base - 1.0)

    return {}, {
        "obs.telemetry_overhead_pct": overhead(telemetry),
        "obs.digest_overhead_pct": overhead(digest),
        "obs.events_overhead_pct": overhead(events),
        "obs.monitor_overhead_pct": overhead(monitor),
        "failures.manager_overhead_pct": overhead(manager),
    }


def _noop_cell(index: int) -> int:
    """A sweep cell that costs nothing: what is left is dispatch."""
    return index


def probe_sweep(clock: _Clock, seed: int, sizes: Sizes) -> ProbeResult:
    """Pool spawn and per-cell dispatch of ``parallel.sweep``, how well two
    workers pay on the scenario grid, the cell cache, and cell cost."""
    from repro.scenarios import run_matrix
    from repro.sim.cellcache import MISS, CellCache
    from repro.sim.parallel import sweep

    def noop_sweep(cells: int) -> None:
        with quiet_sweep():
            sweep(_noop_cell, [{"index": i} for i in range(cells)],
                  workers=2, label="bench")

    few, many = 2, 80
    t_few = clock("sim.parallel:sweep.noop", lambda: noop_sweep(few))
    t_many = clock("sim.parallel:sweep.noop", lambda: noop_sweep(many))
    dispatch = (t_many - t_few) / (many - few)

    # two of the failure patterns are enough to compare worker counts
    part = dataclasses.replace(sizes,
                               matrix_patterns=sizes.matrix_patterns[:2])
    one = clock("scenarios:run_matrix.workers1",
                lambda: matrix_unit(seed, part, workers=1))
    two = clock("scenarios:run_matrix.workers2",
                lambda: matrix_unit(seed, part, workers=2))

    grid = matrix_kwargs(seed, sizes)
    cells: List[Dict[str, Any]] = []
    cell_seconds = []
    for pattern, shape, mechanism in matrix_sample(sizes):
        cell_seconds.append(clock(
            "scenarios:run_matrix.cell",
            lambda: run_matrix([pattern], [shape], [mechanism], **grid)))
        cells.extend(clock.result)
    scorecard = clock("scenarios:build_scorecard",
                      lambda: matrix_scorecard(cells, seed, sizes))

    with scratch_dir() as directory:
        cache = CellCache(directory)
        kwargs = dict(index=1, n=16, h=2)
        cache.key_for(_noop_cell, kwargs)  # memoises the source fingerprint
        key_s = clock("sim.cellcache:key_for",
                      lambda: cache.key_for(_noop_cell, kwargs))
        key = clock.result

        def miss_then_put() -> None:
            if cache.get(key) is not MISS:
                raise AssertionError("fresh cache reported a hit")
            cache.put(key, cells)

        miss_put = clock("sim.cellcache:get.miss+put", miss_then_put)
        hit = clock("sim.cellcache:get.hit", lambda: cache.get(key))
        if clock.result != cells:
            raise AssertionError("cell cache returned a different value")

    return {
        "sweep.dispatch_ms_per_cell": 1e3 * dispatch,
        "sweep.pool_spawn_ms": 1e3 * (t_few - few * dispatch),
        "cache.key_ms": 1e3 * key_s,
        "cache.miss_put_ms": 1e3 * miss_put,
        "cache.hit_get_ms": 1e3 * hit,
        "scenarios.cell_ms_p50": 1e3 * statistics.median(cell_seconds),
        "scenarios.scorecard_ms": 1e3 * scorecard,
    }, {
        "sweep.parallel_efficiency": one / (2.0 * two),
    }


def probe_session(clock: _Clock, seed: int, sizes: Sizes) -> ProbeResult:
    """The service without the wire: session stepping, checkpoints early
    and late in a run, telemetry reads, submission, the JSON-lines codec."""
    from repro.service.protocol import decode_message, encode_message
    from repro.sim.checkpoint import (load_checkpoint, restore_engine,
                                      save_checkpoint)

    early, late = (4, 12) if sizes.quick else (8, 80)   # quanta
    with scratch_dir() as directory:
        session = open_service_session(sizes, directory / "auto.ckpt")
        path = directory / "probe.ckpt"

        def advance(quanta: int) -> List[float]:
            return [clock("service.session:advance",
                          lambda: session.advance(QUANTUM))
                    for _ in range(quanta)]

        def checkpoint() -> Tuple[float, float, int]:
            snap = clock("sim.checkpoint:snapshot", session.engine.snapshot)
            snapshot = clock.result
            save = clock("sim.checkpoint:save",
                         lambda: save_checkpoint(snapshot, path))
            return snap, save, path.stat().st_size

        advance(early)
        checkpoint()  # first use loads pickle machinery; not timed
        snap, save, size_early = checkpoint()
        restore = clock("sim.checkpoint:load+restore",
                        lambda: restore_engine(load_checkpoint(path)))
        per_quantum = advance(late - early)
        _, _, size_late = checkpoint()
        rows = clock("service.session:telemetry_rows",
                     lambda: session.telemetry_rows(since=0))
        now = session.t
        batch = [(now, i % sizes.service_n, (i + 1) % sizes.service_n,
                  16, 16 * 244) for i in range(200)]
        submit = clock("service.session:submit",
                       lambda: session.submit(batch))
        message = {"id": 1, "ok": True, **session.status()}
        session.finish()

    rounds = 2000
    encode = clock("service.protocol:encode_message", lambda: [
        encode_message(message) for _ in range(rounds)])
    line = clock.result[0]
    decode = clock("service.protocol:decode_message", lambda: [
        decode_message(line) for _ in range(rounds)])
    return {
        "checkpoint.snapshot_ms": 1e3 * snap,
        "checkpoint.save_ms": 1e3 * save,
        "checkpoint.load_restore_ms": 1e3 * restore,
        "session.advance_ms_per_quantum": 1e3 * statistics.median(per_quantum),
        "session.telemetry_rows_ms": 1e3 * rows,
        "session.submit_us_per_flow": 1e6 * submit / len(batch),
        "protocol.encode_us": 1e6 * encode / rounds,
        "protocol.decode_us": 1e6 * decode / rounds,
    }, {
        "checkpoint.bytes": float(size_early),
        "checkpoint.growth_x": size_late / size_early,
    }


PROBES = (probe_vector, probe_shard, probe_congestion, probe_setup_layers,
          probe_observers, probe_sweep, probe_session)


def run_layer_probes(meter: Meter, tracer: Tracer, seed: int,
                     sizes: Sizes) -> Dict[str, float]:
    """Every fixed probe once, each inside its own calibrated unit, then a
    short live-service pass for the control plane's numbers."""
    clock = _Clock(tracer)
    metrics: Dict[str, float] = {}
    for probe in PROBES:
        tracer.unit = f"probe/{probe.__name__[len('probe_'):]}"
        (times, plain), timing = meter.timed(
            lambda: probe(clock, seed, sizes))
        metrics.update((name, value * timing.scale)
                       for name, value in times.items())
        metrics.update(plain)
    metrics["shard.k2_slots_per_s"] = 1.0 / metrics["_shard_s_per_slot"]
    metrics["shard.k2_vs_vector"] = (metrics.pop("_vector_s_per_slot")
                                     / metrics.pop("_shard_s_per_slot"))

    tracer.unit = "probe/live_service"
    live = run_service_workload(
        meter, seed, sizes.short_horizon, sizes, span=tracer.span,
        probes=False, extra_verbs=("checkpoint-now",))
    if live.problems:
        raise AssertionError(f"live-service probe: {live.problems}")
    metrics.update((name, value) for name, value in live.extra.items()
                   if name.startswith("service.") and name != "service.verbs")
    return metrics
