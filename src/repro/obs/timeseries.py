"""Per-sample-window time series of one engine's run.

The metrics collector keeps *cumulative* counters and two count-by-value
sample tallies; the figures in the paper (Figs. 8, 10-12, 15) are all
*time-resolved*.  :class:`TimeSeriesRecorder` bridges the gap: at every
sample window close it records the window's counter deltas and the
instantaneous populations into growable int64 columns, giving
throughput-over-time, queue growth and token traffic without
re-instrumenting by hand.

The recorder is a pure observer and is cheap: one counter snapshot per
sample window (every ``metrics_sample_interval`` slots); the node
populations arrive with the call, from the walk the metrics sample already
made.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

__all__ = ["TimeSeriesRecorder"]


class _IntBuffer:
    """A growable int64 column backed by one numpy array.

    The window close appends scalars; the reporting path reads the
    filled prefix as a zero-copy view.  Doubling growth keeps appends
    amortised O(1) without per-sample list/object allocation.
    """

    __slots__ = ("_data", "_size")

    def __init__(self, capacity: int = 1024):
        self._data = np.empty(capacity, dtype=np.int64)
        self._size = 0

    def append(self, value: int) -> None:
        data = self._data
        size = self._size
        if size == data.shape[0]:
            data = np.resize(data, size * 2)
            self._data = data
        data[size] = value
        self._size = size + 1

    def view(self) -> np.ndarray:
        """The filled prefix (zero-copy; invalidated by the next growth)."""
        return self._data[: self._size]

    def __len__(self) -> int:
        return self._size

    def load(self, values: np.ndarray) -> None:
        """Replace the buffer contents with ``values``.

        Capacity is at least the default so a restored empty buffer can
        still grow by doubling (``np.resize(data, 0 * 2)`` would wedge it).
        """
        size = len(values)
        self._data = np.empty(max(1024, size), dtype=np.int64)
        self._data[:size] = values
        self._size = size


class TimeSeriesRecorder:
    """Records one row per sample window; attach via :meth:`attach`.

    Columns (all int64, one value per closed window):

    ``t``             window-closing timeslot
    ``delivered``     payload cells delivered in the window
    ``injected``      payload cells that entered the network
    ``drops``         payload cells dropped (any cause)
    ``sent``          cells put on the wire (payload + dummy)
    ``dummies``       dummy cells among them
    ``tokens``        hop-by-hop tokens carried in headers
    ``ctrl``          end-to-end control messages sent
    ``queued``        cells enqueued across live nodes at the window close
    ``in_flight``     payload cells on the wire at the window close
    ``active_flows``  flows still sending/receiving at the window close
    ``max_queue``     longest single link queue at the window close
    ``max_buffer``    largest per-node total occupancy at the window close
    ``active_buckets`` most active buckets at any node at the window close
    """

    #: column order used by :meth:`row` and :meth:`to_dict`
    COLUMNS = (
        "t", "delivered", "injected", "drops", "sent", "dummies",
        "tokens", "ctrl", "queued", "in_flight", "active_flows",
        "max_queue", "max_buffer", "active_buckets",
    )

    #: (column, MetricsCollector attribute) pairs recorded as window deltas
    _DELTA_SOURCES = (
        ("delivered", "payload_cells_delivered"),
        ("injected", "cells_injected"),
        ("drops", "cells_dropped"),
        ("sent", "cells_sent"),
        ("dummies", "dummy_cells_sent"),
        ("tokens", "tokens_sent"),
        ("ctrl", "control_messages"),
    )

    def __init__(self) -> None:
        self._cols: Dict[str, _IntBuffer] = {
            name: _IntBuffer() for name in self.COLUMNS
        }
        self._prev = tuple(0 for _ in self._DELTA_SOURCES)

    # ------------------------------------------------------------------ #
    # engine hooks

    def attach(self, engine) -> "TimeSeriesRecorder":
        """Install this recorder on ``engine`` and return it."""
        engine.telemetry = self
        self.resnapshot(engine.metrics)
        # adopt telemetry state from a restored checkpoint, if the engine
        # is carrying some and no recorder was attached when it restored
        pending = engine._pending_restore
        if pending and "telemetry" in pending:
            self.load_state(pending.pop("telemetry"))
        return self

    def state_dict(self) -> dict:
        """Every column, as an array of its own (a checkpoint file narrows
        each to the integers it holds), plus the delta baseline."""
        return {
            "cols": {name: buf.view().copy()
                     for name, buf in self._cols.items()},
            "prev": np.array(self._prev, dtype=np.int64),
        }

    def load_state(self, state: dict) -> None:
        for name, buf in self._cols.items():
            buf.load(state["cols"][name])
        self._prev = tuple(state["prev"].tolist())

    def resnapshot(self, metrics) -> None:
        """Re-baseline the delta counters (e.g. at the end of warm-up)."""
        self._prev = tuple(
            getattr(metrics, attr) for _, attr in self._DELTA_SOURCES
        )

    def on_window(
        self,
        engine,
        t: int,
        *,
        queued: int,
        max_queue: int,
        max_buffer: int,
        active_buckets: int,
    ) -> None:
        """Close one window: record deltas and instantaneous populations.

        Called by ``Engine._close_window`` right after the metrics sample,
        with the node populations every pipeline derives from the same two
        sample arrays; the counter deltas and the wire and flow
        populations are read from the engine here.
        """
        metrics = engine.metrics
        cols = self._cols
        prev = self._prev
        cur = tuple(
            getattr(metrics, attr) for _, attr in self._DELTA_SOURCES
        )
        self._prev = cur
        cols["t"].append(t)
        for (name, _), now, before in zip(self._DELTA_SOURCES, cur, prev):
            cols[name].append(now - before)
        cols["queued"].append(queued)
        cols["in_flight"].append(engine._in_flight_payload)
        cols["active_flows"].append(engine.flows.active_count)
        cols["max_queue"].append(max_queue)
        cols["max_buffer"].append(max_buffer)
        cols["active_buckets"].append(active_buckets)

    # ------------------------------------------------------------------ #
    # reading the series

    def __len__(self) -> int:
        """Number of closed windows recorded so far."""
        return len(self._cols["t"])

    def series(self) -> Dict[str, np.ndarray]:
        """The columns as zero-copy int64 views (name -> array)."""
        return {name: buf.view() for name, buf in self._cols.items()}

    def column(self, name: str) -> np.ndarray:
        """One column as a zero-copy int64 view."""
        return self._cols[name].view()

    def to_dict(self) -> Dict[str, List[int]]:
        """The columns as plain lists (JSON-serialisable, picklable)."""
        return {
            name: buf.view().tolist() for name, buf in self._cols.items()
        }
