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

    def test_unknown_backend_fails_loudly(self, fake_experiments, capsys):
        # validated up front by set_default_backend, before any experiment
        # runs: a typo is a usage error at the command line
        with pytest.raises(SystemExit) as exit_info:
            runner.main(["figa", "--backend", "warp"])
        assert exit_info.value.code == 2
        assert "argument --backend: unknown engine backend 'warp'" in \
            capsys.readouterr().err

    def test_cell_retries_installed_and_restored(self, fake_experiments,
                                                 capsys):
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
        with pytest.raises(SystemExit) as exit_info:
            runner.main(["figp", "--cell-retries", "0", "--backend", "warp"])
        assert exit_info.value.code == 2
        assert default_cell_retries() == before
        assert "argument --backend: " in capsys.readouterr().err


class TestUsageErrors:
    @pytest.mark.parametrize("args, flag", [
        (["--shards", "0"], "--shards"),
        (["--cell-retries", "-1"], "--cell-retries"),
        (["--checkpoint-dir", "{tmp}", "--checkpoint-every", "0"],
         "--checkpoint-every"),
        (["--checkpoint-dir", "{tmp}", "--checkpoint-every", "-1"],
         "--checkpoint-every"),
    ], ids=["shards", "cell-retries", "checkpoint-every-0",
            "checkpoint-every-negative"])
    def test_a_refused_value_is_a_usage_error(self, fake_experiments,
                                              tmp_path, capsys, args, flag):
        """A value an installer refuses exits 2 with one line naming the
        flag, before any experiment runs, and every default installed
        before it is restored."""
        from repro.sim.backends import default_backend, default_shards
        from repro.sim.checkpoint import default_policy
        from repro.sim.parallel import default_cell_retries

        _, calls = fake_experiments
        args = [arg.format(tmp=tmp_path / "ckpts") for arg in args]
        before = (default_backend(), default_shards(),
                  default_cell_retries(), default_policy())
        with pytest.raises(SystemExit) as exit_info:
            runner.main(["figa", "--backend", "vector", "--cell-retries", "3",
                         *args])
        assert exit_info.value.code == 2
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if "error:" in line]
        assert len(errors) == 1 and f"argument {flag}: " in errors[0]
        assert calls == {}
        assert (default_backend(), default_shards(), default_cell_retries(),
                default_policy()) == before


class TestSeedInjection:
    @pytest.fixture
    def seedless(self, monkeypatch):
        """One experiment without a seed next to one that declares it."""
        calls = {}

        def run_analytic(*, sizes=(1, 2)):
            calls["analytic"] = dict(sizes=sizes)
            return {"name": "analytic"}

        def run_seeded(*, n=8, seed=1, workers=1):
            calls["seeded"] = dict(n=n, seed=seed, workers=workers)
            return {"name": "seeded"}

        monkeypatch.setattr(runner, "ALL_EXPERIMENTS", {
            "figs": make_module("figs", run_analytic),
            "figt": make_module("figt", run_seeded),
        })
        return calls

    def test_seed_flag_skips_a_run_without_seed(self, seedless):
        assert runner.main(["figs", "--seed", "3"]) == 0
        assert seedless["analytic"] == dict(sizes=(1, 2))

    def test_set_seed_on_a_run_without_seed_fails_loudly(self, seedless,
                                                         capsys):
        assert runner.main(["figs", "--set", "seed=3"]) == 1
        err = capsys.readouterr().err
        assert "unexpected keyword argument 'seed'" in err
        assert "analytic" not in seedless

    def test_all_seed_warns_about_nothing(self, seedless, capsys):
        assert runner.main(["all", "--seed", "3", "--workers", "2"]) == 0
        assert "does not accept override" not in capsys.readouterr().err
        assert seedless == {"analytic": dict(sizes=(1, 2)),
                            "seeded": dict(n=8, seed=3, workers=2)}


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
