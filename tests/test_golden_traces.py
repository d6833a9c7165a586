"""Golden-trace equivalence tests for the simulator hot path.

Each scenario runs one engine at a fixed seed with a
:class:`~repro.sim.digest.DeterminismDigest` attached and asserts that the
event digest — every delivery, drop, wire loss and token transmission, in
order — plus the headline metrics match the values recorded *before* the
hot-path optimization landed (``tests/data/golden_traces.json``).  A digest
mismatch means the engine is no longer event-identical to the reference
implementation at that seed, which is exactly the regression these tests
exist to catch.

Every scenario runs with the full telemetry stack attached — time-series
recorder, structured event log, step profiler (:mod:`repro.obs`) — so a
passing run also proves telemetry is a *pure observer*: attaching it leaves
the event stream bit-exact.

Regenerating the goldens (only legitimate when simulated *behavior* is
intentionally changed, or the digest's definition is, never for a pure
optimization)::

    PYTHONPATH=src python tests/test_golden_traces.py --record

prints an old -> new digest table and flags, loudly, every field other than
the digest that moved — after a new digest definition there must be none.

Strategy scenarios (``schedule=`` / ``routing=`` keys) pin non-default
connection-schedule and routing strategies bit-exactly the same way.  When
adding a new registered strategy, add a scenario naming it here, run
``--record``, and verify the diff only *adds* entries — regenerating must
never change an existing digest (that is the bit-exactness proof for the
default strategies).

Targeted scenarios (``TARGETED``) run one mechanism each, on a path the
scenario x mechanism cross leaves unpinned (the FIFO ablation, RD pulls,
NDP trims, link-failure reroutes, ...); ``--record`` re-runs them too.
"""

import json
import pathlib
import sys

import pytest

from repro.failures.manager import (FailureEvent, FailureManager,
                                    LinkFailureEvent)
from repro.obs.events import EventLog, RingSink
from repro.obs.timeseries import TimeSeriesRecorder
from repro.sim.config import SimConfig
from repro.sim.engine import Engine
from repro.workloads.distributions import ShortFlowDistribution
from repro.workloads.generators import permutation_workload, poisson_workload

GOLDEN_PATH = pathlib.Path(__file__).parent / "data" / "golden_traces.json"

#: the four congestion-control mechanisms the goldens pin down
MECHANISMS = ("none", "hop-by-hop", "hbh+spray", "isd")

#: scenario name -> engine-building parameters
SCENARIOS = {
    "n16_seed1": dict(n=16, h=2, seed=1, duration=500, size_cells=30),
    "n16_seed7": dict(n=16, h=2, seed=7, duration=500, size_cells=30),
    "n64_seed3": dict(n=64, h=2, seed=3, duration=400, size_cells=20),
    "n16_nodefail": dict(n=16, h=2, seed=5, duration=600, size_cells=30,
                         fail_node=5, fail_at=120, recover_at=400),
    # strategy scenarios: non-default schedule / routing designs
    "n16_srrd": dict(n=16, h=1, seed=2, duration=500, size_cells=30,
                     schedule="srrd"),
    "n16_semiobl": dict(n=16, h=2, seed=2, duration=500, size_cells=30,
                        routing="semi_oblivious"),
}

#: four links of the n=16, h=2 network that fail for good (slot, a, b)
LINK_FAILURES = ((100, 0, 1), (100, 0, 4), (160, 5, 9), (200, 10, 14))

#: targeted scenarios, one mechanism each, for the paths the cross above
#: leaves unpinned: priority ranking, RD pulls, NDP trims, shortest-queue
#: spraying, the FIFO ablation and link-failure reroutes.  name ->
#: (cc, parameters); ``config`` holds extra SimConfig fields, ``load`` asks
#: for Poisson short flows instead of a permutation, ``link_failures``
#: lists links that fail for good
TARGETED = {
    "n16_priority_poisson": ("priority", dict(
        n=16, h=2, seed=4, duration=600, load=0.3)),
    "n27_rd_pulls": ("rd", dict(
        n=27, h=3, seed=2, duration=600, size_cells=30,
        config=dict(initial_window=4, pull_batch=3))),
    "n16_ndp_trims": ("ndp", dict(
        n=16, h=2, seed=3, duration=500, size_cells=30,
        config=dict(ndp_queue_limit=2))),
    "n16_spray_short": ("spray-short", dict(
        n=16, h=2, seed=6, duration=500, size_cells=30)),
    "n16_fifo_t1": ("hop-by-hop", dict(
        n=16, h=2, seed=1, duration=500, size_cells=30,
        config=dict(use_fifo_for_hbh=True))),
    "n16_fifo_t2f1": ("hop-by-hop", dict(
        n=16, h=2, seed=1, duration=500, size_cells=30,
        config=dict(use_fifo_for_hbh=True, token_budget=2,
                    first_hop_token_budget=1))),
    "n16_linkfail": ("hbh+spray", dict(
        n=16, h=2, seed=2, duration=600, size_cells=30,
        link_failures=LINK_FAILURES)),
    "n16_linkfail_hbh": ("hop-by-hop", dict(
        n=16, h=2, seed=2, duration=600, size_cells=30,
        link_failures=LINK_FAILURES)),
}


def build_scenario(cc: str, params: dict) -> Engine:
    """The engine of one golden scenario, built and not yet run."""
    cfg = SimConfig(
        n=params["n"],
        h=params["h"],
        seed=params["seed"],
        duration=params["duration"],
        propagation_delay=4,
        congestion_control=cc,
        schedule=params.get("schedule", "ebs"),
        routing=params.get("routing", "vlb"),
        **params.get("config", {}),
    )
    events = [LinkFailureEvent(t, a, b)
              for t, a, b in params.get("link_failures", ())]
    if "fail_node" in params:
        events += [
            FailureEvent(params["fail_at"], params["fail_node"], failed=True),
            FailureEvent(params["recover_at"], params["fail_node"],
                         failed=False),
        ]
    manager = FailureManager(events=events) if events else None
    if "load" in params:
        workload = poisson_workload(cfg, ShortFlowDistribution(),
                                    load=params["load"])
    else:
        workload = permutation_workload(cfg, params["size_cells"])
    return Engine(cfg, workload=workload, failure_manager=manager)


def run_scenario(cc: str, params: dict) -> dict:
    """Run one golden scenario and return its digest + headline metrics."""
    engine = build_scenario(cc, params)
    digest = engine.enable_digest()
    # full telemetry stack on: the goldens double as the proof that
    # observation never perturbs simulated behavior
    TimeSeriesRecorder().attach(engine)
    log = EventLog()
    log.add_sink(RingSink())
    log.attach(engine)
    engine.enable_profiler()
    engine.run()
    fcts = [record.fct for record in engine.flows.completed]
    return {
        "digest": digest.hexdigest(),
        "events": digest.events,
        "delivered": engine.metrics.payload_cells_delivered,
        "dropped": engine.metrics.cells_dropped,
        "fct_sum": sum(fcts),
        "fct_count": len(fcts),
    }


def _load_goldens() -> dict:
    with GOLDEN_PATH.open() as fh:
        return json.load(fh)


@pytest.mark.parametrize("cc", MECHANISMS)
@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_golden_trace(cc, scenario):
    golden = _load_goldens()[scenario][cc]
    result = run_scenario(cc, SCENARIOS[scenario])
    mean_fct = (result["fct_sum"] / result["fct_count"]
                if result["fct_count"] else 0.0)
    golden_mean = (golden["fct_sum"] / golden["fct_count"]
                   if golden["fct_count"] else 0.0)
    assert result == golden, (
        f"{scenario}/{cc}: engine diverged from the pre-optimization "
        f"reference (digest {result['digest']} != {golden['digest']}; "
        f"delivered {result['delivered']} vs {golden['delivered']}, "
        f"dropped {result['dropped']} vs {golden['dropped']}, "
        f"mean FCT {mean_fct:.2f} vs {golden_mean:.2f})"
    )


@pytest.mark.parametrize("scenario", sorted(TARGETED))
def test_targeted_golden_trace(scenario):
    cc, params = TARGETED[scenario]
    golden = _load_goldens()[scenario][cc]
    assert run_scenario(cc, params) == golden, f"{scenario}/{cc} diverged"


def test_goldens_cover_all_mechanisms():
    goldens = _load_goldens()
    for scenario in SCENARIOS:
        assert set(goldens[scenario]) == set(MECHANISMS)


def test_digest_sensitive_to_events():
    """Sanity: the digest actually distinguishes different event streams."""
    base = run_scenario("none", SCENARIOS["n16_seed1"])
    other_seed = run_scenario("none", SCENARIOS["n16_seed7"])
    assert base["digest"] != other_seed["digest"]


def _record() -> None:
    """Re-run every scenario, write the goldens, print an old -> new digest
    table and flag every other field that moved."""
    old = _load_goldens() if GOLDEN_PATH.exists() else {}
    goldens = {}
    moved = []
    print("| scenario | cc | old digest | new digest |\n|---|---|---|---|")
    runs = [(scenario, cc, params) for scenario, params in SCENARIOS.items()
            for cc in MECHANISMS]
    runs += [(scenario, cc, params)
             for scenario, (cc, params) in TARGETED.items()]
    for scenario, cc, params in runs:
        new = goldens.setdefault(scenario, {})[cc] = run_scenario(cc, params)
        before = old.get(scenario, {}).get(cc, {})
        print(f"| {scenario} | {cc} | {before.get('digest', '(none)')} "
              f"| {new['digest']} |")
        moved += [(scenario, cc, key, before[key], value)
                  for key, value in new.items()
                  if key != "digest" and before.get(key, value) != value]
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(goldens, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
    if moved:
        print("\n!!! SIMULATED BEHAVIOUR CHANGED: fields other than the digest "
              "moved !!!", file=sys.stderr)
        for scenario, cc, key, was, now in moved:
            print(f"!!!   {scenario}/{cc}: {key} {was} -> {now}",
                  file=sys.stderr)


if __name__ == "__main__":
    if "--record" in sys.argv:
        _record()
    else:
        sys.exit("usage: python tests/test_golden_traces.py --record")
