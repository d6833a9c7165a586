"""Smoke test of the benchmark's plumbing, at toy sizes.

Run with ``python -m pytest bench/tests -q`` (not part of the tier-1
suite: ``testpaths`` is ``tests``).  ``--quick`` runs one or two tiny
units per workload, so the numbers mean nothing; what is checked is that
every name in ``BENCHMARK.json`` comes out finite with its unit, that the
result line has the contract's shape, and that simulated statistics repeat.
"""

import ast
import json
import math
import pathlib
import re
import subprocess
import sys

import pytest

BENCH = pathlib.Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.\-]{1,16}\Z")
SEED = 3


@pytest.fixture(scope="module")
def quick_runs():
    """One ``--quick`` run per (workload, trace mode), each a fresh process:
    ``{(workload, trace): (result line, simulated statistics)}``."""
    runs = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            done = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--quick",
                 "--workload", workload, "--seed", str(SEED),
                 "--trace", str(trace)],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                cwd=ROOT, timeout=120)
            assert done.returncode == 0, done.stderr[-2000:]
            mode = "trace" if trace else "e2e"
            report = json.loads(
                (BENCH / "out" / f"last-{workload}-{mode}.json").read_text())
            runs[workload, trace] = (
                json.loads(done.stdout.strip().splitlines()[-1]),
                report["sim"])
    return runs


def test_spec_names_and_units_are_well_formed():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    names = ([w["name"] for w in SPEC["workloads"]]
             + [m["name"] for m in SPEC["end_to_end"]]
             + [m["name"] for m in SPEC["per_layer"]])
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    assert any(m == {"name": "setup_s", "unit": "s", "better": "lower",
                     "bound": m["bound"]} for m in SPEC["end_to_end"])
    assert 2 <= len(WORKLOADS) <= 8 and len(SPEC["per_layer"]) <= 128
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]


def test_calibration_kernel_imports_nothing_from_repro():
    tree = ast.parse((BENCH / "calib.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
    assert not any(m.split(".")[0] == "repro" for m in imported), imported
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys, calib; calib.calibrate(); "
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'repro'))"],
        stdout=subprocess.PIPE, text=True, cwd=BENCH, check=True)
    assert done.stdout.strip() == "[]"


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_named_metric_is_emitted(quick_runs, workload, trace):
    result, _ = quick_runs[workload, trace]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for metric in wanted:
        got = result["metrics"][metric["name"]]
        assert set(got) == {"value", "unit"}
        assert got["unit"] == metric["unit"]
        assert isinstance(got["value"], (int, float))
        assert math.isfinite(got["value"]), metric["name"]
        if not trace:
            assert got["value"] > 0, metric["name"]


@pytest.mark.parametrize(
    "workload", [w for w in WORKLOADS if w != "service_diurnal"])
def test_seeded_rerun_reproduces_simulated_statistics(quick_runs, workload):
    # two fresh processes, same seed: the untraced run and the traced run
    # (whose plain and taken-apart units already had to agree in-process)
    _, first = quick_runs[workload, 0]
    _, second = quick_runs[workload, 1]
    assert first and first == second


def test_refuses_to_run_without_the_repo(tmp_path):
    """Only BENCHMARK.json and bench/: non-zero exit, no result line."""
    import shutil

    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", WORKLOADS[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        cwd=tmp_path, timeout=60)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
