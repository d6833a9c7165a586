"""Experiment regenerators — one module per paper figure/table.

Each module exposes ``run(...) -> Result`` (structured data matching the
figure's rows/series) and ``report(result) -> str`` (text rendering).
Default parameters are scaled down from the paper; every knob accepts
paper-scale values.  See DESIGN.md for the experiment index and
EXPERIMENTS.md for paper-vs-measured numbers.
"""

import sys
from collections.abc import Mapping


_MODULES = {
    "fig01": "fig01_tradeoff",
    "fig04": "fig04_opera",
    "fig07": "fig07_memory",
    "fig08": "fig08_validation",
    "fig09": "fig09_interleaving",
    "fig10": "fig10_shortflow",
    "fig11": "fig11_heavytail",
    "fig12": "fig12_failures",
    "fig13": "fig13_scalability",
    "fig14": "fig14_mean_fct",
    "fig15": "fig15_queues",
    "fig17": "fig17_nonincast",
    "appd": "appd_token_budget",
    "scenarios": "scenarios",
}

__all__ = ["ALL_EXPERIMENTS", *_MODULES.values()]


class _Experiments(Mapping):
    """Experiment name -> its module, imported on first lookup.

    A read-only mapping rather than a dict of imported modules, so running
    one figure compiles only that figure's module; ``get``, ``items`` and
    ``values`` all go through :meth:`__getitem__` and cannot miss a module
    that is not imported yet.
    """

    def __getitem__(self, name):
        return _submodule(_MODULES[name])

    def __iter__(self):
        return iter(_MODULES)

    def __len__(self):
        return len(_MODULES)


#: Registry used by the runner and the benchmark harness.
ALL_EXPERIMENTS = _Experiments()


def _submodule(name):
    qualified = f"{__name__}.{name}"
    __import__(qualified)  # unlike import_module, seen by -X importtime
    return sys.modules[qualified]


def __getattr__(name):
    if name in _MODULES.values():
        return _submodule(name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
