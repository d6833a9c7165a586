#!/usr/bin/env python3
"""Does the benchmark agree with itself?  Two sets of runs of the same tree.

    python3 bench/check_repeat.py              # A/A: one run per set
    python3 bench/check_repeat.py --runs 10    # the acceptance procedure

Each set runs every workload ``--runs`` times, each run a fresh
``bench/run.py --trace 0`` with its own ``--seed``; the second set visits
the workloads in the opposite order.  For every (workload, end-to-end
metric) the table shows both medians, how much *worse* the second is than
the first as a share of the first, and — with three or more runs — each
set's spread: the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median.

Exit 1 when a second median is worse than the first by more than the
metric's bound, or when a spread (``setup_s`` excepted) exceeds it.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import time

from calib import iqr_pct

ROOT = pathlib.Path(__file__).resolve().parent.parent
RUN_PY = ROOT / "bench" / "run.py"


def run_once(workload: str, seed: int, seconds: float) -> dict:
    command = [sys.executable, str(RUN_PY), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    started = time.perf_counter()
    done = subprocess.run(command, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, cwd=ROOT)
    elapsed = time.perf_counter() - started
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{workload} seed={seed}: exit {done.returncode}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed={seed}: incorrect: {result}")
    print(f"  {workload} seed={seed}: {elapsed:.1f} s", file=sys.stderr,
          flush=True)
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values) -> float:
    return iqr_pct(values) / 100.0


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=1,
                        help="runs (seeds) per workload per set")
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]))
    parser.add_argument("--workloads", nargs="+", choices=names,
                        default=names)
    args = parser.parse_args(argv)

    sets = []
    for index, order in enumerate((args.workloads, args.workloads[::-1])):
        print(f"set {index + 1}:", file=sys.stderr, flush=True)
        values = {workload: [] for workload in order}
        for run in range(args.runs):
            for workload in order:
                seed = 1 + run + index * args.runs
                values[workload].append(
                    run_once(workload, seed, args.seconds))
        sets.append(values)

    out = ROOT / "bench" / "out"
    out.mkdir(parents=True, exist_ok=True)
    (out / "check_repeat.json").write_text(json.dumps(sets, indent=1) + "\n")

    failures = 0
    header = (f"{'workload':<18}{'metric':<18}{'first':>12}{'second':>12}"
              f"{'worse by':>10}{'bound':>8}")
    if args.runs >= 3:
        header += f"{'spread 1':>10}{'spread 2':>10}"
    print(header)
    for workload in args.workloads:
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            first, second = ([run[name] for run in values[workload]]
                             for values in sets)
            a, b = statistics.median(first), statistics.median(second)
            worse = (b - a) / a if metric["better"] == "lower" else (a - b) / a
            verdict = worse > bound
            line = (f"{workload:<18}{name:<18}{a:>12.5g}{b:>12.5g}"
                    f"{100 * worse:>9.2f}%{100 * bound:>7.0f}%")
            if args.runs >= 3:
                spreads = spread(first), spread(second)
                line += "".join(f"{100 * s:>9.2f}%" for s in spreads)
                verdict |= name != "setup_s" and max(spreads) > bound
            failures += verdict
            print(line + ("  FAIL" if verdict else ""))
    print("every pair within its bound" if not failures
          else f"{failures} pair(s) outside their bound")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
