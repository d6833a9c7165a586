"""Cold start: a fresh process imports only what it runs.

Package ``__init__`` files name their exports without importing them,
registries import one built-in per looked-up name and the experiment table
imports one figure per lookup (DESIGN.md §6, "Cold start").  Each budget
below runs in a fresh interpreter without bytecode caching, so it measures
what a user's first ``simulate()`` or ``python -m repro figNN`` compiles.
"""

import os
import pathlib
import subprocess
import sys
import textwrap
import types

import pytest

from repro.core.registry import Registry

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def _fresh_modules(code):
    """The ``repro.*``, ``asyncio`` and ``multiprocessing`` modules a fresh
    interpreter holds after running ``code``."""
    probe = code + textwrap.dedent("""
        import sys
        print("\\n".join(sorted(sys.modules)))
    """)
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return {name for name in proc.stdout.split()
            if name.split(".")[0] in ("repro", "asyncio", "multiprocessing")}


class TestImportBudget:
    def test_import_repro_loads_no_submodule(self):
        assert _fresh_modules("import repro") == {"repro"}

    def test_simulate_path_skips_service_parallel_and_figures(self):
        loaded = _fresh_modules(textwrap.dedent("""
            from repro import Engine, SimConfig, simulate
            config = SimConfig(n=16, h=2, duration=50, backend="vector")
            Engine(config).run(50)
            simulate(config)
        """))
        assert "repro.sim.engine" in loaded  # the probe did run
        forbidden = {"asyncio", "multiprocessing", "repro.service.server",
                     "repro.service.client", "repro.sim.backends.shard",
                     "repro.sim.parallel"}
        assert not loaded & forbidden
        assert not [m for m in loaded
                    if m.startswith("repro.experiments.fig")]

    def test_single_figure_run_loads_no_other_figure(self):
        loaded = _fresh_modules(textwrap.dedent("""
            import contextlib, io
            from repro.experiments import runner
            with contextlib.redirect_stdout(io.StringIO()):
                status = runner.main(["fig08", "--workers", "1",
                                      "--set", "duration=200",
                                      "--set", "h_values=(2,)"])
            assert status == 0
        """))
        figures = {m for m in loaded if m.startswith("repro.experiments.fig")}
        assert figures == {"repro.experiments.fig08_validation"}


FORK_PROBE = """
import os, sys

from repro.scenarios.matrix import _scenario_cell
from repro.sim.parallel import sweep


def cell_modules(**cell):
    _scenario_cell(**cell)
    return sorted(m for m in sys.modules if m.startswith("repro"))


if __name__ == "__main__":
    at_fork = []
    os.register_at_fork(before=lambda: at_fork.append(set(sys.modules)))
    grid = [dict(pattern=pattern, workload="incast-storm", mechanism=cc,
                 n=16, h=2, duration=200, flow_cells=8,
                 propagation_delay=2, seed=1)
            for pattern, cc in [("baseline", "none"),
                                ("rack-outage", "hbh+spray"),
                                ("gray-links", "isd"), ("flaky", "ndp")]]
    held = set().union(*sweep(cell_modules, grid, workers=2, retries=0))
    assert at_fork, "the sweep never forked"
    print("\\n".join(sorted(held - at_fork[0])))
"""


def test_forked_sweep_cells_import_nothing_the_parent_skipped(tmp_path):
    """``scenario_matrix`` forks fresh pool workers inside every timed unit:
    a module its cells import that the parent never did would be compiled
    again in each worker of each unit."""
    script = tmp_path / "fork_probe.py"
    script.write_text(FORK_PROBE)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, str(script)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


class TestRegistryBuiltins:
    @pytest.fixture
    def registry(self, tmp_path, monkeypatch):
        """A registry with a broken built-in next to a good one, whose
        module registers it on import."""
        registry = Registry("thing", builtins={
            "broken": "repro_no_such_module",
            "good": "good_thing_builtin",
        })
        holder = types.ModuleType("thing_registry_holder")
        holder.REGISTRY = registry
        monkeypatch.setitem(sys.modules, holder.__name__, holder)
        (tmp_path / "good_thing_builtin.py").write_text(
            "import thing_registry_holder\n"
            "thing_registry_holder.REGISTRY.register('good', 42)\n")
        monkeypatch.syspath_prepend(str(tmp_path))
        yield registry
        sys.modules.pop("good_thing_builtin", None)

    def test_a_failed_import_keeps_raising_the_import_error(self, registry):
        for _ in range(2):
            with pytest.raises(ModuleNotFoundError, match="repro_no_such"):
                registry["broken"]
        assert registry["good"] == 42

    def test_a_lookup_imports_only_its_own_builtin(self, registry):
        assert registry["good"] == 42
        with pytest.raises(ModuleNotFoundError):
            registry.names()  # names() imports every built-in
