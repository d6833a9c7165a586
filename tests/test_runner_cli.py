"""Tests for the experiment runner CLI (:mod:`repro.experiments.runner`).

Covers the three runner bugfixes — ``--set`` overrides during ``all``
sweeps, per-experiment failure isolation with a non-zero exit status,
unknown-experiment exit codes — and the ``--telemetry`` artifact contract
(schema, byte-identity across same-seed runs).
"""

import json
import types

import pytest

from repro.experiments import runner


def make_module(name, run_fn, report_fn=None):
    """A stand-in experiment module with ``run``/``report`` callables."""
    module = types.ModuleType(f"fake_{name}")
    module.__doc__ = f"Fake experiment {name}."
    module.run = run_fn
    module.report = report_fn or (lambda result: f"{name}: {result!r}")
    return module


@pytest.fixture
def fake_experiments(monkeypatch):
    """Replace the experiment registry with three tiny fakes."""
    calls = {}

    def run_a(n=8, duration=100):
        calls["a"] = dict(n=n, duration=duration)
        return {"name": "a", "n": n}

    def run_b(duration=100):  # does not accept ``n``
        calls["b"] = dict(duration=duration)
        return {"name": "b"}

    def run_c(**kwargs):  # accepts everything
        calls["c"] = dict(kwargs)
        return {"name": "c"}

    registry = {
        "figa": make_module("figa", run_a),
        "figb": make_module("figb", run_b),
        "figc": make_module("figc", run_c),
    }
    monkeypatch.setattr(runner, "ALL_EXPERIMENTS", registry)
    return registry, calls


class TestSplitOverrides:
    def test_partition_by_signature(self, fake_experiments):
        registry, _ = fake_experiments
        accepted, rejected = runner.split_overrides(
            registry["figb"], {"n": 4, "duration": 50}
        )
        assert accepted == {"duration": 50}
        assert rejected == {"n": 4}

    def test_var_keyword_accepts_everything(self, fake_experiments):
        registry, _ = fake_experiments
        accepted, rejected = runner.split_overrides(
            registry["figc"], {"n": 4, "whatever": 1}
        )
        assert accepted == {"n": 4, "whatever": 1}
        assert rejected == {}


class TestAllSweepOverrides:
    def test_overrides_applied_where_accepted(self, fake_experiments, capsys):
        """Regression: ``all --set n=4`` used to silently drop the override
        for every experiment."""
        _, calls = fake_experiments
        status = runner.main(["all", "--set", "n=4", "--set", "duration=50"])
        assert status == 0
        assert calls["a"] == dict(n=4, duration=50)
        assert calls["b"] == dict(duration=50)       # n filtered out
        assert calls["c"] == dict(n=4, duration=50)  # **kwargs takes all
        err = capsys.readouterr().err
        assert "figb" in err and "n" in err  # the filtered key is warned about

    def test_progress_lines_during_sweep(self, fake_experiments, capsys):
        runner.main(["all"])
        err = capsys.readouterr().err
        assert "[1/3] figa" in err
        assert "[3/3] figc" in err

    def test_single_run_unknown_override_fails_loudly(self, fake_experiments,
                                                      capsys):
        # unlike a sweep, a single run forwards unknown keys verbatim: the
        # TypeError is reported (with status 1), never silently filtered
        assert runner.main(["figb", "--set", "n=4"]) == 1
        err = capsys.readouterr().err
        assert "unexpected keyword argument" in err
        assert "figb FAILED" in err


class TestFailureIsolation:
    def test_one_failure_does_not_abort_the_sweep(self, monkeypatch, capsys):
        """Regression: a raising experiment aborted ``all`` and the exit
        status stayed zero."""
        ran = []
        registry = {
            "fig1": make_module("fig1", lambda: ran.append("fig1") or "ok"),
            "fig2": make_module(
                "fig2", lambda: (_ for _ in ()).throw(RuntimeError("boom"))
            ),
            "fig3": make_module("fig3", lambda: ran.append("fig3") or "ok"),
        }
        monkeypatch.setattr(runner, "ALL_EXPERIMENTS", registry)
        status = runner.main(["all"])
        assert status == 1
        assert ran == ["fig1", "fig3"]  # fig3 still ran after fig2 blew up
        err = capsys.readouterr().err
        assert "fig2 FAILED" in err
        assert "1 of 3 experiment(s) failed: fig2" in err

    def test_single_failing_experiment_sets_status(self, monkeypatch, capsys):
        registry = {
            "figx": make_module(
                "figx", lambda: (_ for _ in ()).throw(ValueError("nope"))
            ),
        }
        monkeypatch.setattr(runner, "ALL_EXPERIMENTS", registry)
        assert runner.main(["figx"]) == 1

    def test_unknown_experiment_exit_code(self, fake_experiments, capsys):
        assert runner.main(["nonsense"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_list_exit_code(self, fake_experiments, capsys):
        assert runner.main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "figa" in out


class TestBackendFlag:
    def test_backend_installed_and_restored(self, fake_experiments):
        """``--backend vector`` is the ambient default while the experiment
        runs, and the previous default is restored afterwards."""
        registry, _ = fake_experiments
        from repro.sim.backends import default_backend

        seen = {}

        def run_probe(**kwargs):
            seen["backend"] = default_backend()
            return {"name": "probe"}

        registry["figp"] = make_module("figp", run_probe)
        before = default_backend()
        assert runner.main(["figp", "--backend", "vector"]) == 0
        assert seen["backend"] == "vector"
        assert default_backend() == before

    def test_backend_restored_after_failure(self, monkeypatch):
        from repro.sim.backends import default_backend

        registry = {
            "figx": make_module(
                "figx", lambda: (_ for _ in ()).throw(RuntimeError("boom"))
            ),
        }
        monkeypatch.setattr(runner, "ALL_EXPERIMENTS", registry)
        before = default_backend()
        assert runner.main(["figx", "--backend", "vector"]) == 1
        assert default_backend() == before

    def test_unknown_backend_fails_loudly(self, fake_experiments):
        # validated up front by set_default_backend, before any experiment
        # runs — a typo fails at the command line
        with pytest.raises(ValueError, match="backend"):
            runner.main(["figa", "--backend", "warp"])

    def test_cell_retries_installed_and_restored(self, fake_experiments):
        """``--cell-retries`` is the ambient budget while the experiment
        runs and no longer: restored afterwards, also when a later flag
        is refused."""
        registry, _ = fake_experiments
        from repro.sim.parallel import default_cell_retries

        seen = {}

        def run_probe(**kwargs):
            seen["retries"] = default_cell_retries()
            return {"name": "probe"}

        registry["figp"] = make_module("figp", run_probe)
        before = default_cell_retries()
        assert runner.main(
            ["figp", "--cell-retries", "0", "--workers", "1"]) == 0
        assert seen["retries"] == 0 != before
        assert default_cell_retries() == before
        with pytest.raises(ValueError, match="backend"):
            runner.main(["figp", "--cell-retries", "0", "--backend", "warp"])
        assert default_cell_retries() == before


class TestTelemetryArtifacts:
    def _run(self, tmp_path, tag):
        out = tmp_path / tag
        status = runner.main([
            "fig08", "--set", "n=16", "--set", "duration=2000",
            "--set", "h_values=(2,)", "--telemetry", str(out),
        ])
        assert status == 0
        return out

    @pytest.mark.telemetry
    @pytest.mark.slow
    def test_artifact_schema_and_byte_identity(self, tmp_path, capsys):
        first = self._run(tmp_path, "run1")
        second = self._run(tmp_path, "run2")
        capsys.readouterr()  # drop the verbose reports

        for out in (first, second):
            assert (out / "fig08.json").is_file()
            assert (out / "fig08.runtime.json").is_file()
            assert (out / "fig08.events.jsonl").is_file()

        payload = json.loads((first / "fig08.json").read_text())
        assert payload["schema"] == 1
        assert payload["experiment"] == "fig08"
        assert payload["overrides"]["n"] == 16
        assert payload["runs"], "expected at least one captured run"
        run = payload["runs"][0]
        assert run["manifest"]["n"] == 16
        assert set(run["series"]) >= {"t", "delivered", "queued"}
        assert run["summary"]["cells_delivered"] > 0

        runtime = json.loads((first / "fig08.runtime.json").read_text())
        assert runtime["experiment"] == "fig08"
        assert len(runtime["runs"]) == len(payload["runs"])

        # the headline acceptance: same seed -> byte-identical main artifact
        assert (first / "fig08.json").read_bytes() == \
            (second / "fig08.json").read_bytes()
        assert (first / "fig08.events.jsonl").read_bytes() == \
            (second / "fig08.events.jsonl").read_bytes()
