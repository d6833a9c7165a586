"""What two equal runs agree on, said once.

A snapshot is by construction the definition of a run's state — its plain
model is the one interface between the object model, a backend's packed run
and the checkpoint file (DESIGN.md §11) — so the differential machine
(``tests/test_differential.py``: vector vs object, sliced vs batch,
resumed vs uninterrupted, visit sets vs full scan), the fixed-config
backend tests and the shard suite compare :func:`run_state` instead of
hand-picking fields.
Equal networks give *byte-equal* tables whichever form produced them, and
:func:`equal` is that equality: the same keys, arrays of the same dtype,
shape and contents, everything else ``==``.
"""

import numpy as np

#: snapshot keys that are not the run's own state: the attached observers
#: are whatever the test attached
_NOT_COMPARED = ("monitor", "telemetry", "events")


def equal(a, b):
    """Whether two state trees (dicts of dicts, arrays and plain values;
    a list and a tuple of equal items are one sequence, as JSON has it)
    hold the same state."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (type(a) is type(b) and a.dtype == b.dtype
                and a.shape == b.shape and a.tobytes() == b.tobytes())
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(equal(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(map(equal, a, b))
    return a == b


class RunState(dict):
    """A snapshot's state tree, compared with :func:`equal`."""

    def __eq__(self, other):
        return equal(self, other)

    def __ne__(self, other):
        return not equal(self, other)


def run_state(engine):
    """``engine.snapshot().state`` minus the observers: clock, RNG,
    pending flows, every table of the plain model, the flow table, the
    metrics, the digest, the failure manager.  Builds no node on an engine
    whose state is parked on a slab."""
    state = RunState(engine.snapshot().state)
    for key in _NOT_COMPARED:
        del state[key]
    return state
