"""The four benchmark workloads: what a unit is, how it is checked, how a
run of units is measured, and the traced pass that splits a unit by layer.

Why these four (README.md has the full tables):

``hbh_shortflow``     the paper's mechanism (hop-by-hop + spray-short at
                      0.96 x the 1/(2h) guarantee) with the fast backend
                      *requested*; today it falls back to the object
                      pipeline, so node TX/RX and the token code do the work.
``bulk_permutation``  the opposite split: cc="none" at n=1296 stays on the
                      vector slab; congestion code does nothing.  The
                      control for any congestion-control change.
``scenario_matrix``   the object pipeline used differently: 80 tiny engines
                      per unit with failure managers and monitors attached,
                      all four mechanism families, on 2 sweep workers.
``service_diurnal``   ``python -m repro serve`` over loopback TCP, stepped
                      in 256-slot quanta with telemetry, checkpoints and a
                      closed-loop client issuing verbs back to back.

Unit counts and simulated horizons derive from ``--seconds`` through fixed
constants only — never from measured time — so two commits compared at the
same ``--seconds`` do identical work.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import pathlib
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from harness import Meter, Timing, peak_rss_mb, percentile
from trace import Tracer

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"
RUN_PY = ROOT / "bench" / "run.py"

WORKLOADS = ("hbh_shortflow", "bulk_permutation", "scenario_matrix",
             "service_diurnal")

#: calibrated seconds one full-size unit takes on the reference box; only
#: used to turn ``--seconds`` into a unit count
NOMINAL_UNIT_S = {"hbh_shortflow": 1.42, "bulk_permutation": 2.1,
                  "scenario_matrix": 1.9}
#: simulated slots per calibrated second the live service sustains on the
#: reference box; only used to turn ``--seconds`` into a simulated horizon
NOMINAL_SERVICE_SLOTS_PER_S = 25_000

#: the verb cycle the service client repeats, closed-loop
VERB_CYCLE = ("ping", "status", "submit", "telemetry", "status",
              "adjust-load")
#: seeds the arrival processes that are held fixed across ``--seed``
ARRIVALS_SEED = 1
SAMPLE_INTERVAL = 50
QUANTUM = 256
FLOW_CELLS = 60

#: engine step sections, in StepProfiler order
SECTIONS = ("faults", "deliver", "inject", "tx", "sample", "monitor")


@dataclass(frozen=True)
class Sizes:
    """Problem sizes: the real benchmark, or the smoke test's tiny twin."""

    hbh_n: int = 256
    bulk_n: int = 1296
    duration: int = 2000
    bulk_prefix: int = 100
    matrix_patterns: Tuple[str, ...] = (
        "baseline", "cascade", "flaky", "gray-links", "rack-outage")
    matrix_shapes: Tuple[str, ...] = (
        "adversarial-perm", "hot-dest", "incast-storm", "uniform-perms")
    matrix_mechanisms: Tuple[str, ...] = ("none", "hbh+spray", "isd", "ndp")
    matrix_duration: int = 1500
    service_n: int = 64
    checkpoint_every: int = 4000
    cycles_per_unit: int = 8
    setup_probes: int = 3
    min_units: int = 3
    #: units of each kind (plain, traced) in a traced pass
    traced_units: int = 3
    #: simulated horizon of the shortened service passes
    short_horizon: int = 160 * QUANTUM
    quick: bool = False


FULL = Sizes()
QUICK = Sizes(hbh_n=64, bulk_n=256, duration=300, bulk_prefix=100,
              matrix_patterns=("baseline", "rack-outage"),
              matrix_shapes=("incast-storm", "uniform-perms"),
              matrix_mechanisms=("none", "hbh+spray"),
              matrix_duration=300, service_n=16, checkpoint_every=1024,
              cycles_per_unit=1, setup_probes=1, min_units=2,
              traced_units=1, short_horizon=12 * QUANTUM, quick=True)


def unit_count(workload: str, seconds: float, sizes: Sizes) -> int:
    if sizes.quick:
        return sizes.min_units
    return max(sizes.min_units, round(seconds / NOMINAL_UNIT_S[workload]))


def service_horizon(seconds: float, sizes: Sizes) -> int:
    if sizes.quick:
        return sizes.short_horizon
    quanta = round(seconds * NOMINAL_SERVICE_SLOTS_PER_S / QUANTUM)
    return max(64, quanta) * QUANTUM


@dataclass
class Outcome:
    """What one measured pass over a workload produced."""

    units: List[Timing] = field(default_factory=list)
    #: simulated slots each unit advanced (cells x duration for the sweep)
    unit_slots: List[int] = field(default_factory=list)
    setup: List[Timing] = field(default_factory=list)
    rss_mb: float = 0.0
    attempted: int = 0
    failed: int = 0
    #: simulated statistics; identical for identical code and seed
    sim: Dict[str, Any] = field(default_factory=dict)
    #: correctness violations, human-readable
    problems: List[str] = field(default_factory=list)
    #: workload-specific numbers beyond the common end-to-end set
    extra: Dict[str, float] = field(default_factory=dict)
    #: units are consecutive slices of ONE run (the live service, whose
    #: cost per slot follows the diurnal load) rather than repeats of the
    #: same work: rates are then totals over totals, not a median of slices
    pooled: bool = False

    def expect(self, stats: Dict[str, Any], what: str,
               operations: int = 1) -> None:
        """Count ``operations`` attempted; every call must bring the same
        simulated statistics as the first (kept in :attr:`sim`)."""
        self.attempted += operations
        if not self.sim:
            self.sim = stats
        elif stats != self.sim:
            self.fail(f"{what} statistics differ: {stats} vs {self.sim}",
                      operations)

    def fail(self, message: str, operations: int = 1) -> None:
        """Count ``operations`` failed operations and say why."""
        self.failed += operations
        self.problems.append(message)

    def _per_slot(self, seconds: str) -> float:
        """Seconds (the named :class:`Timing` field) per simulated slot."""
        spent = [getattr(timing, seconds) for timing in self.units]
        if self.pooled:
            return sum(spent) / sum(self.unit_slots)
        return statistics.median(
            s / slots for s, slots in zip(spent, self.unit_slots))

    def slots_per_s(self, seconds: str = "seconds") -> float:
        """Slots per (calibrated, or ``"wall"``) second."""
        return 1.0 / self._per_slot(seconds)

    def cpu_ms_per_kslot(self) -> float:
        return 1e6 * self._per_slot("cpu_seconds")


@contextlib.contextmanager
def no_span(name: str):
    """Stands in for ``Tracer.span`` on untraced paths."""
    yield


# ---------------------------------------------------------------------- #
# simulate() workloads: hbh_shortflow and bulk_permutation


def hbh_config(seed: int, sizes: Sizes, **overrides):
    from repro import SimConfig

    fields = dict(n=sizes.hbh_n, h=2, duration=sizes.duration,
                  congestion_control="hbh+spray", backend="vector", seed=seed)
    return SimConfig(**{**fields, **overrides})


def hbh_flows(config):
    """Poisson short flows at the paper's load, the same arrival times and
    sizes for every seed; the seed decides which node is which.

    Two draws of this arrival process differ by 7 % in cells put on the
    wire over one unit (15 % in cells offered), which would measure the
    seed, not the code; relabelled, they differ by 0.2 %.
    """
    from repro.experiments.common import load_for
    from repro.workloads import ShortFlowDistribution, poisson_workload

    flows = poisson_workload(config, ShortFlowDistribution(),
                             load=load_for(config.h),
                             rng=random.Random(ARRIVALS_SEED))
    label = list(range(config.n))
    random.Random(config.seed).shuffle(label)
    return [(arrival, label[src], label[dst], cells, size)
            for arrival, src, dst, cells, size in flows]


def bulk_config(seed: int, sizes: Sizes, **overrides):
    from repro import SimConfig

    fields = dict(n=sizes.bulk_n, h=2, duration=sizes.duration,
                  congestion_control="none", backend="vector", seed=seed)
    return SimConfig(**{**fields, **overrides})


def bulk_flows(config):
    from repro.workloads import permutation_workload

    return permutation_workload(config, 10 ** 6)


SIM_WORKLOADS = {
    "hbh_shortflow": (hbh_config, hbh_flows),
    "bulk_permutation": (bulk_config, bulk_flows),
}


def sim_stats(engine, summary) -> Dict[str, Any]:
    """The simulated statistics every run of the same inputs must repeat."""
    return {
        "sim.digest": f"{engine.digest.value:016x}",
        "sim.cells_delivered": int(summary["cells_delivered"]),
        "sim.flows_completed": len(engine.flows.completed),
    }


def fell_back(engine) -> bool:
    return engine.backend_effective != engine.config.backend


def simulate_unit(name: str, seed: int, sizes: Sizes,
                  **overrides) -> Tuple[Dict[str, Any], bool]:
    """One unit: ``simulate()`` reduced to ``(simulated statistics, whether
    the backend fell back)`` — the RunResult, and with it the engine, is
    dropped before returning."""
    from repro import simulate

    make_config, make_flows = SIM_WORKLOADS[name]
    config = make_config(seed, sizes, **overrides)
    result = simulate(config, make_flows(config), digest=True)
    return sim_stats(result.engine, result.summary), fell_back(result.engine)


def run_simulate_workload(name: str, meter: Meter, seed: int,
                          seconds: float, sizes: Sizes) -> Outcome:
    out = Outcome()
    # untimed warm-up.  For hbh it runs on the object backend and is the
    # reference every timed (vector-requested) unit must match; for bulk it
    # is the vector half of the short-prefix cross-check.
    if name == "hbh_shortflow":
        out.sim, _ = simulate_unit(name, seed, sizes, backend="object")
    else:
        prefix, _ = simulate_unit(name, seed, sizes,
                                  duration=sizes.bulk_prefix)
    fallbacks = 0
    for _ in range(unit_count(name, seconds, sizes)):
        (stats, unit_fell_back), timing = meter.timed(
            lambda: simulate_unit(name, seed, sizes))
        out.units.append(timing)
        out.unit_slots.append(sizes.duration)
        out.expect(stats, "timed unit")
        fallbacks += unit_fell_back
    out.rss_mb = peak_rss_mb()
    out.setup = probe_setup(name, seed, sizes)
    if name == "bulk_permutation":
        # after the RSS reading, so the object engine cannot hide the
        # vector engine's high-water mark
        slow, _ = simulate_unit(name, seed, sizes, backend="object",
                                duration=sizes.bulk_prefix)
        out.attempted += 1
        if slow != prefix:
            out.fail(f"{sizes.bulk_prefix}-slot prefix differs between "
                     f"backends: vector {prefix} vs object {slow}")
    out.extra["engine.fallback_share"] = fallbacks / len(out.units)
    return out


def build_sim_engine(name: str, seed: int, sizes: Sizes, span=no_span):
    """Everything ``simulate()`` does before the first slot."""
    from repro import Engine

    make_config, make_flows = SIM_WORKLOADS[name]
    with span("sim.config:SimConfig"):
        config = make_config(seed, sizes)
    with span(f"workloads:{make_flows.__name__}"):
        flows = make_flows(config)
    with span("sim.engine:Engine"):
        engine = Engine(config, workload=flows)
    engine.enable_digest()
    return engine


# ---------------------------------------------------------------------- #
# scenario_matrix


def matrix_grid(sizes: Sizes) -> List[Tuple[str, str, str]]:
    return [(pattern, shape, mechanism)
            for pattern in sizes.matrix_patterns
            for shape in sizes.matrix_shapes
            for mechanism in sizes.matrix_mechanisms]


def matrix_sample(sizes: Sizes) -> List[Tuple[str, str, str]]:
    """One cell per (pattern, shape), the mechanism rotating."""
    mechanisms = len(sizes.matrix_mechanisms)
    return [cell for index, cell in enumerate(matrix_grid(sizes))
            if index % mechanisms == (index // mechanisms) % mechanisms]


def matrix_kwargs(seed: int, sizes: Sizes) -> Dict[str, Any]:
    return dict(n=16, h=2, duration=sizes.matrix_duration,
                flow_cells=FLOW_CELLS, seed=seed)


def matrix_scorecard(cells, seed: int, sizes: Sizes) -> Dict[str, Any]:
    from repro.scenarios import build_scorecard

    return build_scorecard(cells, dict(
        matrix_kwargs(seed, sizes), patterns=list(sizes.matrix_patterns),
        workloads=list(sizes.matrix_shapes),
        mechanisms=list(sizes.matrix_mechanisms)))


@contextlib.contextmanager
def quiet_sweep():
    """The sweep logs a progress line per cell; keep them out of the
    benchmark's own stderr."""
    with contextlib.redirect_stderr(io.StringIO()):
        yield


def matrix_unit(seed: int, sizes: Sizes, workers: int = 2) -> Dict[str, Any]:
    """One unit: the whole scenario grid through ``run_matrix``."""
    from repro.scenarios import run_matrix

    with quiet_sweep():
        cells = run_matrix(sizes.matrix_patterns, sizes.matrix_shapes,
                           sizes.matrix_mechanisms, workers=workers,
                           retries=0, **matrix_kwargs(seed, sizes))
    card = matrix_scorecard(cells, seed, sizes)
    blob = json.dumps(card, sort_keys=True, default=str).encode()
    return {
        "sim.scorecard_sha256": hashlib.sha256(blob).hexdigest(),
        "sim.cells": len(cells),
        "sim.mean_score": statistics.fmean(c["score"] for c in cells),
    }


def run_matrix_workload(meter: Meter, seed: int, seconds: float,
                        sizes: Sizes) -> Outcome:
    out = Outcome()
    out.sim = matrix_unit(seed, sizes)  # untimed warm-up and reference
    cells = out.sim["sim.cells"]
    for _ in range(unit_count("scenario_matrix", seconds, sizes)):
        try:
            stats, timing = meter.timed(lambda: matrix_unit(seed, sizes))
        except RuntimeError as exc:  # a cell died in a worker (retries=0)
            out.attempted += cells
            out.fail(f"sweep unit failed: {exc}", cells)
            continue
        out.units.append(timing)
        out.unit_slots.append(cells * sizes.matrix_duration)
        out.expect(stats, "timed unit", cells)
    out.rss_mb = peak_rss_mb()
    out.setup = probe_setup("scenario_matrix", seed, sizes)
    return out


def build_matrix_cell(seed: int, sizes: Sizes, cell: Tuple[str, str, str],
                      span=no_span):
    """One grid cell up to its first slot, from the public registry pieces
    (``run_matrix`` evaluates cells in forked workers the benchmark cannot
    see into).  Returns ``(engine, monitor)``."""
    from repro import Engine, SimConfig
    from repro.scenarios import (FAILURE_PATTERNS, WORKLOAD_SHAPES,
                                 scenario_cell_seed)
    from repro.sim.monitor import RunMonitor

    pattern, shape, mechanism = cell
    with span("sim.config:SimConfig"):
        config = SimConfig(
            n=16, h=2, duration=sizes.matrix_duration, propagation_delay=2,
            congestion_control=mechanism,
            seed=scenario_cell_seed(seed, pattern, shape, mechanism))
    with span("failures:pattern.build"):
        manager = FAILURE_PATTERNS[pattern].build(config)
    with span("workloads:shape.build"):
        flows = WORKLOAD_SHAPES[shape].build(config, FLOW_CELLS)
    with span("sim.engine:Engine"):
        engine = Engine(config, workload=flows, failure_manager=manager)
    with span("sim.monitor:attach"):
        monitor = RunMonitor().attach(engine)
    return engine, monitor


# ---------------------------------------------------------------------- #
# service_diurnal


def serve_command(sizes: Sizes, checkpoint) -> List[str]:
    """The server's command line.  Its seed is fixed: with the heavy-tailed
    tenant, two draws of the open-loop arrival process differ 4x in cost to
    the same horizon, so a seeded stream would measure the seed.  ``--seed``
    drives the client's submissions instead."""
    return [
        sys.executable, "-m", "repro", "serve",
        "--n", str(sizes.service_n), "--cc", "hbh+spray",
        "--backend", "vector", "--seed", str(ARRIVALS_SEED), "--load", "0.2",
        "--curve", "diurnal", "--period", "20000",
        "--quantum", str(QUANTUM),
        "--sample-interval", str(SAMPLE_INTERVAL),
        "--tenant", "web:3:short", "--tenant", "batch:1:heavy",
        "--checkpoint", str(checkpoint),
        "--checkpoint-every", str(sizes.checkpoint_every),
    ]


def service_config(sizes: Sizes):
    from repro import SimConfig

    return SimConfig(n=sizes.service_n, h=2, seed=ARRIVALS_SEED,
                     congestion_control="hbh+spray",
                     metrics_sample_interval=SAMPLE_INTERVAL,
                     backend="vector")


def service_source(config):
    """The open-loop arrival process ``serve_command`` configures."""
    from repro.workloads import (HeavyTailedDistribution, OpenLoopSource,
                                 ShortFlowDistribution, TenantProfile,
                                 diurnal_curve)

    tenants = [
        TenantProfile("web", weight=3.0, distribution=ShortFlowDistribution()),
        TenantProfile("batch", weight=1.0,
                      distribution=HeavyTailedDistribution()),
    ]
    return OpenLoopSource(config, tenants, load=0.2,
                          curve=diurnal_curve(20_000, 0.25, 1.0))


def open_service_session(sizes: Sizes, checkpoint):
    """The session ``serve_command`` builds, in this process."""
    from repro import open_session

    config = service_config(sizes)
    return open_session(config, source=service_source(config),
                        telemetry=True, checkpoint=checkpoint,
                        checkpoint_every=sizes.checkpoint_every)


def _child_env() -> Dict[str, str]:
    env = dict(os.environ)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + inherited if inherited else "")
    return env


@contextlib.contextmanager
def scratch_dir():
    """A private directory under ``bench/out``, removed afterwards."""
    OUT.mkdir(parents=True, exist_ok=True)
    path = tempfile.mkdtemp(prefix="tmp-", dir=OUT)
    try:
        yield pathlib.Path(path)
    finally:
        shutil.rmtree(path, ignore_errors=True)


class LiveServer:
    """``python -m repro serve`` as a child process that can be frozen.

    Freezing (SIGSTOP) is how the client takes a calibration sample at the
    workload's real parallelism: while verbs are served only the server is
    busy, so the kernel must not share the machine with it — on this box a
    second busy core slows the first by a third.  The server free-runs on
    simulated time, so a pause changes nothing it computes.
    """

    def __init__(self, sizes: Sizes, directory: pathlib.Path):
        from repro.service.client import wait_for_ready

        # the server's stderr (fallback notice, shutdown chatter) goes to a
        # file that is only read back when the server fails to come up
        self._log = open(directory / "server.log", "w+")
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            serve_command(sizes, directory / "service.ckpt"),
            stdout=subprocess.PIPE, stderr=self._log, env=_child_env(),
            cwd=ROOT)
        try:
            self.ready = wait_for_ready(self.proc.stdout)
        except BaseException:
            self._log.seek(0)
            print(self._log.read(), file=sys.stderr)
            self.kill()
            raise
        #: spawn to JSON ready line, raw seconds
        self.ready_after = time.perf_counter() - started
        self._ticks = os.sysconf("SC_CLK_TCK")

    @property
    def address(self) -> Tuple[str, int]:
        return self.ready["host"], self.ready["port"]

    def _stat(self) -> List[str]:
        with open(f"/proc/{self.proc.pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()

    def cpu_seconds(self) -> float:
        fields = self._stat()
        return (int(fields[11]) + int(fields[12])) / self._ticks

    def freeze(self) -> None:
        self.proc.send_signal(signal.SIGSTOP)
        deadline = time.perf_counter() + 0.5
        while self._stat()[0] != "T" and time.perf_counter() < deadline:
            time.sleep(0.0005)

    def thaw(self) -> None:
        self.proc.send_signal(signal.SIGCONT)

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()
        self._log.close()

    def stop(self, client) -> None:
        """Ask for a clean stop; make sure the process is gone either way."""
        try:
            client.stop()
            self.proc.wait(timeout=30)
        finally:
            self.kill()


def _submission(rng: random.Random, n: int) -> List[Tuple[int, ...]]:
    src = rng.randrange(n)
    dst = (src + 1 + rng.randrange(n - 1)) % n
    return [(0, src, dst, 16, 16 * 244)]


def run_service_workload(meter: Meter, seed: int, horizon: int, sizes: Sizes,
                         span=no_span, probes: bool = True,
                         extra_verbs: Sequence[str] = ()) -> Outcome:
    """Drive the live server to simulated slot ``horizon``.

    A unit is ``sizes.cycles_per_unit`` verb cycles between two
    calibrations taken with the server frozen; its slots are what the
    server advanced between the unit's first and last reply.
    ``extra_verbs`` are issued once per unit after the cycles (the layer
    probe times ``checkpoint-now`` this way).
    """
    from repro.service.client import SyncServiceClient
    from repro.service.protocol import ServiceError

    out = Outcome(pooled=True)
    rng = random.Random(seed)
    verbs: List[Tuple[str, float]] = []   # (op, calibrated seconds)
    last_t = -1
    with scratch_dir() as directory:
        server = LiveServer(sizes, directory)
        try:
            client = SyncServiceClient(*server.address, timeout=30.0)
            stream = SyncServiceClient(*server.address, timeout=30.0)
            stream.stream_telemetry()

            def issue(op: str) -> Optional[Dict[str, Any]]:
                fields: Dict[str, Any] = {}
                if op == "submit":
                    fields = {"flows": _submission(rng, sizes.service_n),
                              "late": "clamp"}
                elif op == "adjust-load":
                    fields = {"factor": 1.0}
                out.attempted += 1
                sent = time.perf_counter()
                try:
                    with span(f"service.server:{op}"):
                        reply = client.request(op, **fields)
                except ServiceError as exc:
                    out.fail(f"verb {op}: {exc}")
                    return None
                raw.append((op, time.perf_counter() - sent))
                return reply

            server.freeze()
            before = meter.calibrate()
            t = 0
            while t < horizon:
                raw: List[Tuple[str, float]] = []
                cpu0 = server.cpu_seconds()
                server.thaw()
                t_first = client.ping()["t"]
                start = time.perf_counter()
                for op in VERB_CYCLE * sizes.cycles_per_unit + tuple(extra_verbs):
                    reply = issue(op)
                    if op == "status" and reply is not None:
                        if reply["t"] < last_t:
                            out.fail(f"status.t went back: {reply['t']} "
                                     f"after {last_t}")
                        if reply["cells_delivered"] > reply["cells_injected"]:
                            out.fail(f"delivered > injected at "
                                     f"t={reply['t']}")
                        last_t = reply["t"]
                    with span("service.client:drain_stream"):
                        stream.drain_stream(0)
                t = client.ping()["t"]
                wall = time.perf_counter() - start
                server.freeze()
                cpu = server.cpu_seconds() - cpu0
                after = meter.calibrate()
                timing = Timing(wall, cpu, (before + after) / 2.0)
                before = after
                out.units.append(timing)
                out.unit_slots.append(t - t_first)
                verbs.extend((op, s * timing.scale) for op, s in raw)
            server.thaw()
            out.rss_mb = peak_rss_mb(server.proc.pid)
            final = client.status()
            server.stop(client)
            stream.drain_stream(0.2)
            client.close()
            stream.close()
        finally:
            server.kill()
    rows = stream.stream_rows
    out.attempted += 1
    spacings = {b["t"] - a["t"] for a, b in zip(rows, rows[1:])}
    if len(rows) < 2 or spacings != {SAMPLE_INTERVAL}:
        out.fail(f"telemetry stream is not gap-free: {len(rows)} rows, "
                 f"spacings {sorted(spacings)}")
    # submissions land on whatever slot the free-running server has
    # reached, so these repeat only approximately (the one workload whose
    # simulated statistics are not bit-exact run to run)
    out.sim = {
        "sim.final_t": final["t"],
        "sim.cells_delivered": final["cells_delivered"],
        "sim.flows_completed": final["completed_flows"],
    }
    out.extra = _service_numbers(out, verbs, len(rows))
    out.extra["engine.fallback_share"] = float(final["backend"] != "vector")
    if probes:
        out.setup = probe_setup("service_diurnal", seed, sizes)
    return out


def _service_numbers(out: Outcome, verbs: Sequence[Tuple[str, float]],
                     rows: int) -> Dict[str, float]:
    latencies = [seconds for _, seconds in verbs]
    numbers = {
        "service.verbs": float(len(latencies)),
        "service.verb_p50_ms": 1e3 * statistics.median(latencies),
        "service.verb_p95_ms": 1e3 * percentile(latencies, 95),
    }
    for op in dict.fromkeys(name for name, _ in verbs):
        numbers[f"service.verb_ms.{op}"] = 1e3 * statistics.median(
            seconds for name, seconds in verbs if name == op)
    quanta = [slots / QUANTUM for slots in out.unit_slots]
    numbers["service.quanta_per_verb"] = sum(quanta) / len(latencies)
    quantum_ms = [1e3 * timing.seconds / q
                  for timing, q in zip(out.units, quanta)]
    decile = max(1, len(quantum_ms) // 10)
    numbers["service.quantum_ms_first_decile"] = statistics.fmean(
        quantum_ms[:decile])
    numbers["service.quantum_ms_last_decile"] = statistics.fmean(
        quantum_ms[-decile:])
    numbers["service.stream_rows_per_s"] = rows / sum(
        timing.seconds for timing in out.units)
    return numbers


# ---------------------------------------------------------------------- #
# set-up probes: cold start to ready-to-step, in a fresh process each


def setup_in_this_process(name: str, seed: int, sizes: Sizes) -> None:
    """What a fresh process does before it can step: imports, config
    validation, schedule tables, workload generation, first ``Engine``."""
    if name in SIM_WORKLOADS:
        build_sim_engine(name, seed, sizes)
    else:
        build_matrix_cell(seed, sizes, matrix_grid(sizes)[-1])


def probe_setup(name: str, seed: int, sizes: Sizes) -> List[Timing]:
    """``sizes.setup_probes`` fresh-process cold starts, each calibrated.

    The service's cold start is spawn to the server's JSON ready line; the
    batch workloads' is ``run.py --setup-probe`` to its ready line.  A cold
    start keeps one core busy whatever the workload does afterwards, so
    the probes calibrate alone.
    """
    meter = Meter()

    def batch_probe() -> float:
        command = [sys.executable, str(RUN_PY), "--setup-probe", name,
                   "--seed", str(seed)] + (["--quick"] if sizes.quick else [])
        started = time.perf_counter()
        with subprocess.Popen(command, stdout=subprocess.PIPE,
                              cwd=ROOT) as proc:
            line = proc.stdout.readline()
            ready_after = time.perf_counter() - started
        if proc.returncode != 0 or b"ready" not in line:
            raise RuntimeError(f"set-up probe for {name} failed: {line!r}")
        return ready_after

    def service_probe() -> float:
        from repro.service.client import SyncServiceClient

        with scratch_dir() as directory:
            server = LiveServer(sizes, directory)
            try:
                with SyncServiceClient(*server.address) as client:
                    server.stop(client)
            finally:
                server.kill()
        return server.ready_after

    probe = service_probe if name == "service_diurnal" else batch_probe
    timings = []
    for _ in range(sizes.setup_probes):
        ready_after, timing = meter.timed(probe)
        timings.append(dataclasses.replace(timing, wall=ready_after))
    return timings


# ---------------------------------------------------------------------- #
# the untraced, end-to-end pass


def run_workload(name: str, meter: Meter, seed: int, seconds: float,
                 sizes: Sizes) -> Outcome:
    if name in SIM_WORKLOADS:
        return run_simulate_workload(name, meter, seed, seconds, sizes)
    if name == "scenario_matrix":
        return run_matrix_workload(meter, seed, seconds, sizes)
    return run_service_workload(meter, seed, service_horizon(seconds, sizes),
                                sizes)


# ---------------------------------------------------------------------- #
# the traced pass: the same work taken apart by layer


@dataclass
class TracedUnit:
    """Raw seconds one traced unit spent in each engine-facing step."""

    sections: Dict[str, float]   #: StepProfiler section -> seconds
    construct: float             #: everything before the first slot
    summary: float               #: reducing the finished run
    slots: int
    fell_back: bool              #: backend_effective != the one requested
    scale: float = 1.0           #: calibration factor of the enclosing unit


def _profiled_run(engine, tracer: Tracer, name: str,
                  run: Callable[[], Any]) -> Dict[str, float]:
    """``run()`` under span ``name``, split by the engine's own step
    profiler; returns raw seconds per step section."""
    profiler = engine.enable_profiler()
    with tracer.span(name):
        run()
        sections = {section: row["seconds"] for section, row
                    in profiler.report()["sections"].items()}
        for section, seconds in sections.items():
            tracer.add_child(f"sim.engine:step.{section}", seconds)
    return sections


def stopwatch(work: Callable[[], Any], span=no_span, name: str = ""):
    """``work()``, under span ``name`` if given one; returns ``(result, raw
    seconds)``."""
    started = time.perf_counter()
    with span(name):
        result = work()
    return result, time.perf_counter() - started


def _traced_simulate_unit(name: str, tracer: Tracer, seed: int,
                          sizes: Sizes):
    """``simulate()`` as the public calls it makes, each under a span."""
    with tracer.span("bench:unit"):
        engine, construct = stopwatch(
            lambda: build_sim_engine(name, seed, sizes, tracer.span))
        sections = _profiled_run(engine, tracer, "sim.engine:run", engine.run)
        summary, summary_s = stopwatch(engine.metrics.summary, tracer.span,
                                       "sim.metrics:summary")
    return sim_stats(engine, summary), TracedUnit(
        sections, construct, summary_s, sizes.duration, fell_back(engine))


def _traced_matrix_cells(tracer: Tracer, seed: int,
                         sizes: Sizes) -> List[TracedUnit]:
    """A sample of grid cells rebuilt in this process with the profiler on."""
    from repro.scenarios import score_cell

    units = []
    for cell in matrix_sample(sizes):
        with tracer.span("bench:cell"):
            (engine, monitor), construct = stopwatch(
                lambda: build_matrix_cell(seed, sizes, cell, tracer.span))
            sections = _profiled_run(engine, tracer, "sim.engine:run",
                                     engine.run)
            _, summary_s = stopwatch(
                lambda: score_cell(monitor.scorecard_metrics()),
                tracer.span, "scenarios:score_cell")
        units.append(TracedUnit(sections, construct, summary_s,
                                sizes.matrix_duration, fell_back(engine)))
    return units


def _session_unit(sizes: Sizes, tracer: Optional[Tracer]):
    """The service's work without the wire: an in-process session with the
    server's exact configuration advanced quantum by quantum to
    ``sizes.short_horizon`` (the server process itself is opaque to spans).
    Returns ``(simulated statistics, TracedUnit or None)``.
    """
    span = tracer.span if tracer is not None else no_span
    with scratch_dir() as directory:
        session, construct = stopwatch(
            lambda: open_service_session(sizes, directory / "session.ckpt"),
            span, "service.session:open_session")
        engine = session.engine
        engine.enable_digest()

        def advance():
            for _ in range(sizes.short_horizon // QUANTUM):
                session.advance(QUANTUM)

        sections = None
        if tracer is None:
            advance()
        else:
            sections = _profiled_run(engine, tracer,
                                     "service.session:advance", advance)
        result, summary_s = stopwatch(session.finish, span,
                                      "service.session:finish")
    stats = sim_stats(engine, result.summary)
    if tracer is None:
        return stats, None
    return stats, TracedUnit(sections, construct, summary_s,
                             sizes.short_horizon, fell_back(engine))


def traced_pass(name: str, meter: Meter, tracer: Tracer, seed: int,
                sizes: Sizes) -> Tuple[Dict[str, float], Outcome]:
    """Alternate plain and traced units of ``name``.

    Returns the workload-attributed layer metrics (``engine.*``,
    ``trace.overhead_pct``, ``raw.*``) and an :class:`Outcome` holding the
    plain units; both kinds of unit must yield one set of statistics.
    """
    if name in SIM_WORKLOADS:
        slots, operations = sizes.duration, 1
        plain_unit = lambda: (simulate_unit(name, seed, sizes)[0], None)
        traced_unit = lambda: _traced_simulate_unit(name, tracer, seed, sizes)
    elif name == "scenario_matrix":
        operations = len(matrix_grid(sizes))
        slots = operations * sizes.matrix_duration
        plain_unit = lambda: (matrix_unit(seed, sizes), None)

        def traced_unit():
            with tracer.span("scenarios:run_matrix"):
                return matrix_unit(seed, sizes), None
    else:
        slots, operations = sizes.short_horizon, 1
        plain_unit = lambda: _session_unit(sizes, None)
        traced_unit = lambda: _session_unit(sizes, tracer)

    plain = Outcome()
    traced_rates: List[float] = []
    units: List[TracedUnit] = []
    plain.expect(plain_unit()[0], "warm-up unit", operations)  # untimed
    for index in range(sizes.traced_units):
        tracer.unit = f"{name}/{index}"
        (stats, _), timing = meter.timed(plain_unit)
        plain.expect(stats, "plain unit", operations)
        plain.units.append(timing)
        plain.unit_slots.append(slots)
        (stats, unit), timing = meter.timed(traced_unit)
        plain.expect(stats, "traced unit", operations)
        traced_rates.append(slots / timing.seconds)
        if unit is not None:
            units.append(dataclasses.replace(unit, scale=timing.scale))
    if name == "scenario_matrix":
        tracer.unit = f"{name}/cells"
        cells, timing = meter.timed(
            lambda: _traced_matrix_cells(tracer, seed, sizes))
        units = [dataclasses.replace(unit, scale=timing.scale)
                 for unit in cells]
    plain.rss_mb = peak_rss_mb()

    metrics = {
        f"engine.{section}_us_per_slot": statistics.median(
            1e6 * unit.sections[section] * unit.scale / unit.slots
            for unit in units)
        for section in SECTIONS
    }
    metrics["engine.construct_ms"] = statistics.median(
        1e3 * unit.construct * unit.scale for unit in units)
    metrics["engine.summary_ms"] = statistics.median(
        1e3 * unit.summary * unit.scale for unit in units)
    metrics["engine.fallback_share"] = (
        sum(unit.fell_back for unit in units) / len(units))
    metrics["trace.overhead_pct"] = 100.0 * (
        plain.slots_per_s() / statistics.median(traced_rates) - 1.0)
    metrics["raw.wall_s"] = statistics.median(t.wall for t in plain.units)
    metrics["raw.slots_per_s"] = plain.slots_per_s("wall")
    return metrics, plain
