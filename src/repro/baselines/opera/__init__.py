"""Simplified Opera baseline (Mellette et al., NSDI 2020) for Fig. 4."""

from ... import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(__name__, {
    ".sim": ("OperaConfig", "OperaSimulator"),
    ".topology": ("RotorTopology",),
})
