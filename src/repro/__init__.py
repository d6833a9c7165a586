"""repro — a from-scratch Python reproduction of Shale (SIGCOMM 2024).

Shale is an Oblivious Reconfigurable Network (ORN): circuit switches follow a
fixed, traffic-oblivious schedule while Valiant load balancing routes cells
indirectly to their destinations.  This package provides:

* :mod:`repro.core` — schedules, coordinates, routing, cells, buckets/tokens;
* :mod:`repro.sim` — a packet-level simulator with every congestion-control
  mechanism the paper evaluates;
* :mod:`repro.congestion` — the congestion-control mechanism registry;
* :mod:`repro.workloads` — the paper's synthetic workloads;
* :mod:`repro.failures` — failure detection and invalidation tokens;
* :mod:`repro.baselines` — the Opera comparison system;
* :mod:`repro.hardware` — FPGA end-host and memory-scaling models;
* :mod:`repro.analysis` — FCT normalisation and theory formulas;
* :mod:`repro.experiments` — regenerators for every paper figure.

Quickstart::

    from repro import SimConfig, simulate
    from repro.workloads import poisson_workload, ShortFlowDistribution

    cfg = SimConfig(n=64, h=2, duration=20_000, congestion_control="hbh+spray")
    wl = poisson_workload(cfg, ShortFlowDistribution(), load=0.2)
    result = simulate(cfg, wl, drain=True)
    print(result.summary)

:func:`simulate` also wires up telemetry, run monitoring, determinism
digests and checkpoint/resume behind keywords; :func:`open_session` is its
live twin — a :class:`~repro.service.Session` you step incrementally while
submitting flows, with the same observer keywords and a durability
checkpoint (serve one over TCP with ``python -m repro serve``); drop down
to :class:`~repro.sim.engine.Engine` for full control.
"""

__version__ = "1.0.0"


def _lazy_exports(package, exports):
    """The PEP 562 ``__getattr__`` / ``__dir__`` pair and the ``__all__``
    of a package re-exporting ``exports``: submodule -> the names it
    defines.

    A package ``__init__`` names what it exports and imports nothing: the
    first access of a name imports the one submodule defining it and binds
    the value on the package, so the hook runs once per name.  A fresh
    process then compiles only the modules it uses (DESIGN.md §6).
    """
    import sys

    where = {name: package + module for module, names in exports.items()
             for name in names}

    def __getattr__(name):
        module = where.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        # __import__, not importlib.import_module: -X importtime lists only
        # the modules the former loads
        __import__(module)
        value = getattr(sys.modules[module], name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__():
        return sorted(set(vars(sys.modules[package])) | set(where))

    return __getattr__, __dir__, list(where)


__getattr__, __dir__, __all__ = _lazy_exports(__name__, {
    ".core.buckets": ("TokenLedger",),
    ".core.cell": ("Cell",),
    ".core.coordinates": ("CoordinateSystem",),
    ".core.header": ("HeaderCodec", "Token"),
    ".core.interleave": ("InterleavedSchedule", "two_class_interleave"),
    ".core.routing": ("Router",),
    ".core.schedule": ("Schedule", "srrd_schedule"),
    ".sim.config": ("SimConfig", "TimingModel"),
    ".sim.engine": ("Engine",),
    ".sim.flows": ("CompletedFlows",),
    ".sim.metrics": ("MetricsCollector",),
    ".sim.multiclass": ("MultiClassSimulation",),
    ".sim.pieo": ("PieoQueue",),
    ".api": ("RunResult", "Session", "open_session", "simulate"),
})
__all__ += ["__version__"]
