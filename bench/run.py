#!/usr/bin/env python3
"""The repo's benchmark: one command, every metric by name.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --all [--quick]

``--trace 0`` measures the workload end to end and prints the end-to-end
metrics; ``--trace 1`` repeats a shortened pass with spans recorded, runs
the per-layer probes, writes ``bench/out/trace-NAME.json`` and prints the
per-layer metrics.  Either way the last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``; everything
for humans (machine block, simulated statistics, tables) goes to standard
error and to ``bench/out/``.  ``--all`` runs both modes of every workload,
each in a fresh process, and prints every metric with its unit.

Metric names, units, directions and bounds live in ``BENCHMARK.json``;
how time is measured, in ``calib.py``; what the workloads are and why,
in ``workloads.py`` and ``README.md``.

Exit codes: 0 measured and correct, 1 a correctness check failed,
2 cannot run here (no ``src/repro``, bad arguments), 3 the machine is too
noisy to calibrate.
"""

from __future__ import annotations

import argparse
import json
import math
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SPEC_PATH = ROOT / "BENCHMARK.json"


def _load_spec() -> dict:
    with open(SPEC_PATH) as fh:
        return json.load(fh)


def _need_repro() -> None:
    """Put the checkout's own ``src`` first on the path, or give up."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"[bench] {src / 'repro'} not found: the benchmark measures "
              f"the checkout it sits in and will not run without it",
              file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(src))


def _say(*lines: str) -> None:
    print(*lines, sep="\n", file=sys.stderr, flush=True)


def _table(rows) -> str:
    width = max(len(name) for name, _, _ in rows)
    return "\n".join(f"  {name:<{width}}  {value:>14.6g} {unit}"
                     for name, value, unit in rows)


def measure(workload: str, seed: int, seconds: float, trace: bool,
            quick: bool, spec: dict) -> int:
    """One run of one workload; prints the result line, returns exit code."""
    from calib import CalibrationUnstable
    from harness import Meter, machine_block
    from workloads import FULL, QUICK, OUT, run_workload, traced_pass

    sizes = QUICK if quick else FULL
    meter = Meter(parallel=2 if workload == "scenario_matrix" else 1)
    try:
        meter.check_stable()
    except CalibrationUnstable as exc:
        _say(f"[bench] {exc}")
        return 3

    if trace:
        from layers import run_layer_probes
        from trace import Tracer

        tracer = Tracer()
        values, outcome = traced_pass(workload, meter, tracer, seed, sizes)
        values.update(run_layer_probes(meter, tracer, seed, sizes))
        values.update(meter.kernel_stats())
        wanted = spec["per_layer"]
        OUT.mkdir(parents=True, exist_ok=True)
        tracer.write(OUT / f"trace-{workload}.json")
        layer_rows = tracer.layer_table()
    else:
        outcome = run_workload(workload, meter, seed, seconds, sizes)
        values = {
            "setup_s": statistics.median(t.seconds for t in outcome.setup),
            "slots_per_s": outcome.slots_per_s(),
            "cpu_ms_per_kslot": outcome.cpu_ms_per_kslot(),
            "peak_rss_mb": outcome.rss_mb,
        }
        wanted = spec["end_to_end"]
        layer_rows = []

    missing = [m["name"] for m in wanted if m["name"] not in values]
    broken = [m["name"] for m in wanted if m["name"] in values
              and not math.isfinite(values[m["name"]])]
    if missing or broken:
        _say(f"[bench] metrics missing {missing} or not finite {broken}")
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    correct = not outcome.problems and outcome.failed == 0

    block = machine_block(meter)
    raw = {
        "raw.wall_s": statistics.median(t.wall for t in outcome.units),
        "raw.slots_per_s": outcome.slots_per_s("wall"),
        "unit_slots": outcome.unit_slots,
        "unit_seconds": [t.seconds for t in outcome.units],
        "unit_kernel_ms": [1e3 * t.kernel for t in outcome.units],
    }
    _say(f"[bench] {workload} seed={seed} trace={int(trace)} "
         f"{'quick ' if quick else ''}machine: {json.dumps(block)}",
         f"[bench] simulated statistics: {json.dumps(outcome.sim)}",
         f"[bench] {len(outcome.units)} units, raw: {json.dumps(raw)}",
         _table([(n, m["value"], m["unit"]) for n, m in metrics.items()]))
    if outcome.extra:
        _say("[bench] also measured:",
             _table([(n, v, "") for n, v in sorted(outcome.extra.items())]))
    if layer_rows:
        _say("[bench] self time by layer (spans; this pass and the probes):",
             *(f"  {row['layer']:<24} {row['calls']:>6} calls "
               f"{row['self_s']:>9.3f} s {100 * row['share']:>5.1f} %"
               for row in layer_rows))
    for problem in outcome.problems:
        _say(f"[bench] INCORRECT: {problem}")

    OUT.mkdir(parents=True, exist_ok=True)
    report = {"workload": workload, "seed": seed, "trace": int(trace),
              "quick": quick, "machine": block, "sim": outcome.sim,
              "raw": raw, "extra": outcome.extra, "metrics": metrics,
              "correct": correct, "attempted": outcome.attempted,
              "failed": outcome.failed, "problems": outcome.problems}
    mode = "trace" if trace else "e2e"
    with open(OUT / f"last-{workload}-{mode}.json", "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")

    print(json.dumps({"correct": correct, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}),
          flush=True)
    return 0 if correct else 1


def run_all(seed: int, seconds: float, quick: bool, spec: dict) -> int:
    """Both modes of every workload, each in a fresh process."""
    status = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            command = [sys.executable, str(pathlib.Path(__file__).resolve()),
                       "--workload", workload, "--seed", str(seed),
                       "--seconds", str(seconds), "--trace", str(trace)]
            if quick:
                command.append("--quick")
            done = subprocess.run(command, stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE, text=True, cwd=ROOT)
            if done.returncode != 0:
                status = done.returncode
                print(f"{workload} trace={trace}: exit {done.returncode}\n"
                      f"{done.stderr}")
                continue
            result = json.loads(done.stdout.strip().splitlines()[-1])
            print(f"{workload} trace={trace}: correct={result['correct']} "
                  f"attempted={result['attempted']} "
                  f"failed={result['failed']}")
            print(_table([(name, m["value"], m["unit"])
                          for name, m in result["metrics"].items()]))
            for line in done.stderr.splitlines():
                if line.startswith("[bench] simulated statistics"):
                    print(line)
    print("all correctness checks passed" if status == 0
          else f"FAILED (exit {status})")
    return status


def main(argv=None) -> int:
    spec = _load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]),
                        help="nominal measured seconds; sets the fixed unit "
                             "count / simulated horizon (default: "
                             "BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?",
                        const=1, default=0)
    parser.add_argument("--all", action="store_true",
                        help="every workload, both modes, every metric")
    parser.add_argument("--quick", action="store_true",
                        help="tiny sizes for the smoke test; numbers mean "
                             "nothing")
    parser.add_argument("--setup-probe", choices=names,
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    _need_repro()
    if args.setup_probe:
        from workloads import FULL, QUICK, setup_in_this_process

        setup_in_this_process(args.setup_probe, args.seed,
                              QUICK if args.quick else FULL)
        print("ready", flush=True)
        return 0
    if args.all:
        return run_all(args.seed, args.seconds, args.quick, spec)
    if not args.workload:
        parser.error("give --workload NAME or --all")
    return measure(args.workload, args.seed, args.seconds, bool(args.trace),
                   args.quick, spec)


if __name__ == "__main__":
    raise SystemExit(main())
