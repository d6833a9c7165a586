"""Baseline systems the paper compares against."""

from .. import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(__name__, {
    ".opera.sim": ("OperaConfig", "OperaSimulator"),
    ".opera.topology": ("RotorTopology",),
})
