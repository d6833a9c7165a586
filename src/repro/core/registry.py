"""The one name -> object registry behind every pluggable family.

Schedule and routing strategies (:mod:`repro.core.strategies`), engine
backends (:mod:`repro.sim.backends`) and the scenario matrix's failure
patterns and workload shapes (:mod:`repro.scenarios.registry`) are all
selected by name; each family is one :class:`Registry`.
"""

from __future__ import annotations

from typing import List, Mapping

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
    ``builtins`` maps each built-in name to the module whose import
    registers it.  A lookup imports only the module of the name it asks
    for, and :meth:`names` imports them all — never up front, because they
    import their registry's module for the registering decorator.
    """

    def __init__(self, kind: str, builtins: Mapping[str, str] = {}):
        super().__init__()
        self.kind = kind
        #: built-in name -> module not yet imported that registers it
        self._builtins = dict(builtins)

    def _load_builtins(self, names) -> None:
        for name in list(names):
            __import__(self._builtins[name])  # seen by -X importtime
            # only once it imported: a failed import raises again next time
            del self._builtins[name]

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
        self._load_builtins(self._builtins)
        return sorted(self)

    def __missing__(self, name):
        if name in self._builtins:
            self._load_builtins([name])
        if name in self:
            return self[name]
        raise UnknownNameError(
            f"unknown {self.kind} {name!r}; registered: {self.names()}"
        )
