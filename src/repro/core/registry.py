"""The one name -> object registry behind every pluggable family.

Schedule and routing strategies (:mod:`repro.core.strategies`), engine
backends (:mod:`repro.sim.backends`) and the scenario matrix's failure
patterns and workload shapes (:mod:`repro.scenarios.registry`) are all
selected by name; each family is one :class:`Registry`.
"""

from __future__ import annotations

from importlib import import_module
from typing import List, Sequence

__all__ = ["Registry", "UnknownNameError"]


class UnknownNameError(KeyError, ValueError):
    """Nothing is registered under the name looked up.

    A ``KeyError`` because a registry is a mapping, and a ``ValueError``
    because the name usually arrives as a configuration value.
    """

    def __str__(self) -> str:  # KeyError would repr() the message
        return str(self.args[0])


class Registry(dict):
    """A mapping of names to registered objects of one ``kind``.

    Read it like any dict; looking up a missing name raises
    :class:`UnknownNameError` naming the kind and what is registered.
    ``builtins`` names the modules whose import registers the built-in
    entries.  They are imported on the first :meth:`names` call or missed
    lookup rather than up front, because they import their registry's
    module for the registering decorator.
    """

    def __init__(self, kind: str, builtins: Sequence[str] = ()):
        super().__init__()
        self.kind = kind
        self._builtins = builtins

    def _load_builtins(self) -> None:
        modules, self._builtins = self._builtins, ()
        for module in modules:
            import_module(module)

    def register(self, name: str, obj):
        """Add ``obj`` under ``name`` and return it.  Registering the same
        object again is a no-op; a different one under a taken name raises."""
        if self.setdefault(name, obj) is not obj:
            raise ValueError(f"{self.kind} {name!r} already registered")
        return obj

    def registering(self, name: str, name_attr: str):
        """Class decorator: :meth:`register` the class under ``name`` and
        record the name on it as ``name_attr``."""

        def decorate(cls):
            self.register(name, cls)
            setattr(cls, name_attr, name)
            return cls

        return decorate

    def names(self) -> List[str]:
        """Sorted registered names."""
        self._load_builtins()
        return sorted(self)

    def __missing__(self, name):
        self._load_builtins()
        if name in self:
            return self[name]
        raise UnknownNameError(
            f"unknown {self.kind} {name!r}; registered: {self.names()}"
        )
