#!/usr/bin/env python3
"""Interleaving two traffic classes on one network (paper Section 3.2.2).

Datacenter traffic mixes latency-sensitive mice with throughput-hungry
elephants.  A single Shale tuning must choose one side of the tradeoff;
*interleaving* runs two tunings side by side — here a low-latency h=4
sub-schedule on 40% of the timeslots and a high-throughput h=2 sub-schedule
on the rest — and routes each flow on the schedule that suits it.

This example runs the same mixed workload three ways (pure h=2, pure h=4,
interleaved) and compares short-flow tail FCT and total delivered load.

Run:
    python examples/traffic_classes.py
"""

from repro import Engine, MultiClassSimulation, SimConfig, two_class_interleave
from repro.analysis import fct_table
from repro.workloads import HeavyTailedDistribution, poisson_workload

N = 81              # perfect power for both h=2 (9^2) and h=4 (3^4)
DURATION = 30_000
DELAY = 4
CUTOFF_CELLS = 64   # flows up to 64 cells ride the low-latency class
SHARE = 0.4         # timeslot share of the h=4 sub-schedule


def mixed_workload(config: SimConfig, load: float):
    """The heavy-tailed mix, down-scaled to fit the example's horizon."""
    return poisson_workload(
        config, HeavyTailedDistribution(scale=0.02), load=load,
    )


def short_flow_tail(completed, delay):
    """99.9% size-normalised FCT over the smallest flow-size bucket."""
    tails = fct_table(completed, delay).tail(99.9)
    return tails.get(min(tails), float("nan")) if tails else float("nan")


def run_single(h: int, load: float):
    config = SimConfig(
        n=N, h=h, duration=DURATION, propagation_delay=DELAY,
        congestion_control="hbh+spray", seed=7,
    )
    engine = Engine(config, workload=mixed_workload(config, load))
    engine.run()
    engine.run_until_quiescent(max_extra=DURATION * 3)
    return engine.flows.completed, engine.metrics.payload_cells_delivered


def run_interleaved(load: float):
    interleave = two_class_interleave(
        N, h_bulk=2, h_latency=4, s=SHARE, cutoff_cells=CUTOFF_CELLS,
    )
    base = SimConfig(
        n=N, h=2, duration=DURATION, propagation_delay=DELAY,
        congestion_control="hbh+spray", seed=7,
    )
    sim = MultiClassSimulation(
        interleave, base, workload=mixed_workload(base, load)
    )
    sim.run(DURATION)
    sim.run_until_quiescent(max_extra=DURATION * 3)
    return sim.completed_flows(), sim.total_delivered_cells()


def main() -> None:
    # loads track each configuration's throughput guarantee
    load_h2 = 0.9 / 4            # pure h=2: guarantee 0.25
    load_h4 = 0.9 / 8            # pure h=4: guarantee 0.125
    load_mix = 0.9 * ((1 - SHARE) / 4 + SHARE / 8)  # combined guarantee

    print("Running pure h=2 (high throughput, higher latency)...")
    h2_completed, h2_cells = run_single(2, load_h2)
    print("Running pure h=4 (low latency, lower throughput)...")
    h4_completed, h4_cells = run_single(4, load_h4)
    print(f"Running interleaved (s={int(SHARE*100)}% of slots to h=4)...")
    mix_completed, mix_cells = run_interleaved(load_mix)

    rows = [
        ("pure h=2", load_h2, h2_cells, short_flow_tail(h2_completed, DELAY)),
        ("pure h=4", load_h4, h4_cells, short_flow_tail(h4_completed, DELAY)),
        ("interleaved", load_mix, mix_cells,
         short_flow_tail(mix_completed, DELAY)),
    ]
    print(f"\n{'configuration':>14} {'offered L':>10} {'cells':>10} "
          f"{'short-flow p99.9 FCT':>22}")
    for name, load, cells, tail in rows:
        print(f"{name:>14} {load:>10.3f} {cells:>10} {tail:>22.1f}")
    print(
        "\nInterleaving sustains a combined load between the two pure"
        "\nconfigurations while keeping short flows close to the pure-h=4"
        "\nlatency — the Section 3.2.2 result."
    )


if __name__ == "__main__":
    main()
