"""Golden resource peaks: the high-water marks a run reports.

The prototype sizes its PIEO depth and its active-bucket allocation from
the largest values seen in simulation (paper §4.2–4.3, Figs. 7 and 13).
Each golden scenario of :mod:`tests.test_golden_traces` under the two
hop-by-hop mechanisms, and each targeted scenario, pins what
:func:`~repro.hardware.resources.observe_resources` and
``metrics.summary()["max_queue_length"]`` report at the end of the run
(``tests/data/golden_peaks.json``).

Regenerating (only when what a peak *means* is intentionally changed)::

    PYTHONPATH=src python -m tests.test_golden_peaks --record
"""

import dataclasses
import json
import pathlib
import sys

import pytest

from repro.hardware.resources import observe_resources

from .test_golden_traces import SCENARIOS, TARGETED, build_scenario

GOLDEN_PATH = pathlib.Path(__file__).parent / "data" / "golden_peaks.json"

#: the mechanisms that track active buckets
HOP_BY_HOP = ("hop-by-hop", "hbh+spray")

RUNS = sorted(
    [(scenario, cc, params) for scenario, params in SCENARIOS.items()
     for cc in HOP_BY_HOP]
    + [(scenario, cc, params)
       for scenario, (cc, params) in TARGETED.items()],
    key=lambda run: run[:2],
)


def run_peaks(cc: str, params: dict) -> dict:
    """Run one scenario and return the peaks it reports."""
    engine = build_scenario(cc, params)
    engine.run()
    peaks = dataclasses.asdict(observe_resources(engine))
    del peaks["n"], peaks["h"]
    peaks["max_queue_length"] = int(
        engine.metrics.summary()["max_queue_length"])
    return peaks


def _load_goldens() -> dict:
    with GOLDEN_PATH.open() as fh:
        return json.load(fh)


@pytest.mark.parametrize("scenario,cc,params", RUNS,
                         ids=[f"{s}-{cc}" for s, cc, _ in RUNS])
def test_golden_peaks(scenario, cc, params):
    assert run_peaks(cc, params) == _load_goldens()[scenario][cc]


def _record() -> None:
    goldens: dict = {}
    for scenario, cc, params in RUNS:
        goldens.setdefault(scenario, {})[cc] = run_peaks(cc, params)
    GOLDEN_PATH.write_text(json.dumps(goldens, indent=2, sort_keys=True)
                           + "\n")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    if "--record" in sys.argv:
        _record()
    else:
        sys.exit("usage: python -m tests.test_golden_peaks --record")
