"""What two equal runs agree on, said once.

A snapshot is by construction the definition of a run's state — the
checkpoint's plain-data encoding is the one interface between the object
model and a backend's packed run (DESIGN.md §11) — so every equivalence
suite (object vs vector, vector vs shard, sliced vs whole, resumed vs
uninterrupted) compares :func:`run_state` instead of hand-picking fields.
"""

#: snapshot keys that are not the run's own state: ``active_ids`` may be any
#: superset of the nodes with work (the object pipeline retires idle nodes
#: lazily, a slab export lists exactly the busy ones), and the attached
#: observers are whatever the test attached
_NOT_COMPARED = ("active_ids", "monitor", "telemetry", "events")


def run_state(engine):
    """``engine.snapshot().state`` minus the observers and ``active_ids``:
    clock, RNG, pending flows, the wire, every node's ``state_dict()``, the
    flow table, the metrics, the digest, the failure manager.  Builds no
    node on an engine whose state is parked on a slab."""
    state = dict(engine.snapshot().state)
    for key in _NOT_COMPARED:
        del state[key]
    return state
