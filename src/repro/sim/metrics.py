"""Metrics collection for simulation runs.

Collects everything the paper's evaluation reports:

* per-flow completion times (via :class:`~repro.sim.flows.FlowTable`),
* per-node total buffer occupancy samples (Fig. 10/11 top rows report the
  99.99th percentile),
* per-queue length high-water marks and samples (Figs. 15/16),
* delivered-cell throughput over time (Figs. 8/12),
* hardware resource proxies: maximum active buckets and PIEO occupancy
  (Figs. 7/13).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

__all__ = ["MetricsCollector", "percentile"]


class _IntBuffer:
    """A growable int64 sample buffer backed by one numpy array.

    The hot sampling path appends scalars; the reporting path reads the
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

    def extend(self, values: np.ndarray) -> None:
        """Append a whole int64 array of samples at once.

        The bulk twin of :meth:`append`, for a whole window's samples
        (:meth:`MetricsCollector.close_window`): one copy per batch
        instead of one Python call per sample.
        """
        count = len(values)
        if count == 0:
            return
        data = self._data
        size = self._size
        need = size + count
        if need > data.shape[0]:
            capacity = data.shape[0]
            while capacity < need:
                capacity *= 2
            data = np.resize(data, capacity)
            self._data = data
        data[size:need] = values
        self._size = need

    def view(self) -> np.ndarray:
        """The filled prefix (zero-copy; invalidated by the next growth)."""
        return self._data[: self._size]

    def __len__(self) -> int:
        return self._size

    def state(self) -> list:
        """The filled prefix as a plain list (checkpoint encoding)."""
        return self._data[: self._size].tolist()

    def load(self, values: list) -> None:
        """Replace the buffer contents with ``values``.

        Capacity is at least the default so a restored empty buffer can
        still grow by doubling (``np.resize(data, 0 * 2)`` would wedge it).
        """
        size = len(values)
        self._data = np.empty(max(1024, size), dtype=np.int64)
        self._data[:size] = values
        self._size = size


# numpy renamed ``interpolation=`` to ``method=`` in 1.22; resolve the
# keyword once at import so the hot reporting path doesn't re-probe
try:
    np.percentile(np.zeros(1), 50.0, method="lower")
    _PERCENTILE_LOWER = {"method": "lower"}
except TypeError:  # pragma: no cover - numpy < 1.22
    _PERCENTILE_LOWER = {"interpolation": "lower"}


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100) of ``values`` (0.0 when empty).

    Uses the 'lower' interpolation so tail percentiles never exceed the
    maximum observed value, matching how tail statistics are usually
    reported for queue lengths.  'lower' returns an element of the input,
    so an ndarray goes through in its own dtype: no float64 copy of a
    multi-million-sample int64 buffer.
    """
    if len(values) == 0:
        return 0.0
    return float(np.percentile(np.asarray(values), q, **_PERCENTILE_LOWER))


class MetricsCollector:
    """Accumulates run statistics with bounded memory.

    Queue length *samples* are collected at a fixed timeslot interval; the
    maxima are tracked exactly (updated on every enqueue).
    """

    def __init__(self, n: int, sample_interval: int = 50, warmup: int = 0):
        self.n = n
        self.sample_interval = max(1, sample_interval)
        self.warmup = warmup
        # exact counters
        self.cells_injected = 0
        self.cells_delivered = 0
        self.payload_cells_delivered = 0
        self.cells_sent = 0
        self.dummy_cells_sent = 0
        self.cells_dropped = 0
        self.wire_losses = 0
        self.cells_trimmed = 0
        self.retransmissions = 0
        self.tokens_sent = 0
        self.control_messages = 0
        # per-node buffer occupancy samples (all queues at the node summed)
        self._buffer_samples = _IntBuffer()
        # per-queue length samples
        self._queue_samples = _IntBuffer()
        # exact maxima
        self.max_queue_length = 0
        self.max_buffer_occupancy = 0
        self.max_active_buckets = 0
        self.max_pieo_length = 0
        # cell latency histogram support
        self.cell_latencies: List[int] = []
        self._cell_latency_cap = 2_000_000
        # throughput time series: delivered payload cells per sample window
        self.throughput_series: List[int] = []
        self._window_delivered = 0
        #: whether the measured interval has begun (False only while a
        #: non-zero warm-up is still running; see :meth:`begin_measurement`)
        self._measuring = warmup <= 0
        # per-destination delivered counts (failure experiment)
        self.delivered_per_node: Dict[int, int] = {}

    # ------------------------------------------------------------------ #
    # event hooks (hot path — keep them light)

    def on_cell_injected(self, count: int = 1) -> None:
        """A payload cell entered the network (flow emission or RTX).

        Together with the delivery/drop/trim counters and the queued and
        in-flight populations this gives the cell-conservation invariant
        checked by :class:`~repro.sim.monitor.RunMonitor`.
        """
        self.cells_injected += count

    def on_wire_loss(self, count: int = 1) -> None:
        """A payload cell was lost on the wire (failed receiver/link/noise)."""
        self.cells_dropped += count
        self.wire_losses += count

    def on_cell_delivered(self, dst: int, latency: int) -> None:
        self.cells_delivered += 1
        self.payload_cells_delivered += 1
        self._window_delivered += 1
        self.delivered_per_node[dst] = self.delivered_per_node.get(dst, 0) + 1
        if len(self.cell_latencies) < self._cell_latency_cap:
            self.cell_latencies.append(latency)

    def on_drop(self, count: int = 1) -> None:
        self.cells_dropped += count

    def on_trim(self) -> None:
        self.cells_trimmed += 1

    def on_retransmission(self) -> None:
        self.retransmissions += 1

    # ------------------------------------------------------------------ #
    # periodic sampling

    def begin_measurement(self) -> None:
        """Enter the measured interval (called once, at the end of warm-up).

        Deliveries during warm-up still increment the cumulative counters,
        but must not contaminate the first post-warmup throughput window —
        without this reset, ``throughput_series[0]`` silently included
        every cell delivered since t=0.
        """
        self._measuring = True
        self._window_delivered = 0

    @property
    def buffer_samples(self) -> np.ndarray:
        """Per-node total-buffer occupancy samples, as an int64 array."""
        return self._buffer_samples.view()

    @property
    def queue_samples(self) -> np.ndarray:
        """Per-queue length samples (non-empty queues only), as int64."""
        return self._queue_samples.view()

    def close_window(
        self,
        buffers: Sequence[int],
        queue_lengths: Sequence[int],
        pieo_peak: int,
        active_buckets: int,
    ) -> Tuple[int, int, int]:
        """Close one sample window; the only writer of the sample buffers.

        Every pipeline hands over what it found at the sampling instant:
        ``buffers`` holds each live node's total occupancy (node-id order),
        ``queue_lengths`` the length of every non-empty link queue
        (node-major, link-minor), ``pieo_peak`` the highest occupancy any
        send queue has reached and ``active_buckets`` the most active
        buckets at any node now.  Both arrays are sampled, the maxima are
        raised and the throughput window is closed.  Returns the window's
        instantaneous populations ``(queued, max_queue, max_buffer)`` for
        the telemetry row, so they come from the same two arrays.
        """
        buffers = np.asarray(buffers, dtype=np.int64)
        queue_lengths = np.asarray(queue_lengths, dtype=np.int64)
        self._buffer_samples.extend(buffers)
        self._queue_samples.extend(queue_lengths)
        max_buffer = int(buffers.max()) if buffers.size else 0
        max_queue = int(queue_lengths.max()) if queue_lengths.size else 0
        if max_buffer > self.max_buffer_occupancy:
            self.max_buffer_occupancy = max_buffer
        if max_queue > self.max_queue_length:
            self.max_queue_length = max_queue
        if pieo_peak > self.max_pieo_length:
            self.max_pieo_length = pieo_peak
        if active_buckets > self.max_active_buckets:
            self.max_active_buckets = active_buckets
        self.end_sample_window()
        return int(buffers.sum()), max_queue, max_buffer

    def end_sample_window(self) -> None:
        """Close a throughput accounting window."""
        self.throughput_series.append(self._window_delivered)
        self._window_delivered = 0

    # ------------------------------------------------------------------ #
    # summary statistics

    def buffer_occupancy_percentile(self, q: float = 99.99) -> float:
        """Tail total-buffer occupancy across (node, sample) pairs."""
        return percentile(self.buffer_samples, q)

    def queue_length_percentile(self, q: float = 99.0) -> float:
        """Tail per-queue length across (queue, sample) pairs."""
        return percentile(self.queue_samples, q)

    def mean_throughput_cells_per_slot(self, duration: int, n: int) -> float:
        """Average delivered payload cells per node per timeslot.

        This is *destination throughput* as a fraction of line rate (each
        node can receive at most one cell per slot).
        """
        if duration <= 0 or n <= 0:
            return 0.0
        return self.payload_cells_delivered / (duration * n)

    def goodput_fraction(self) -> float:
        """Delivered payload cells / total (non-dummy) cells sent."""
        real = self.cells_sent - self.dummy_cells_sent
        if real <= 0:
            return 0.0
        return self.payload_cells_delivered / real

    #: counters and maxima captured verbatim by checkpoints
    _SCALAR_FIELDS = (
        "cells_injected", "cells_delivered", "payload_cells_delivered",
        "cells_sent", "dummy_cells_sent", "cells_dropped", "wire_losses",
        "cells_trimmed", "retransmissions", "tokens_sent",
        "control_messages", "max_queue_length", "max_buffer_occupancy",
        "max_active_buckets", "max_pieo_length",
    )

    def state_dict(self) -> dict:
        """Every mutable statistic as plain data (checkpoint encoding)."""
        return {
            "scalars": {name: getattr(self, name)
                        for name in self._SCALAR_FIELDS},
            "buffer_samples": self._buffer_samples.state(),
            "queue_samples": self._queue_samples.state(),
            "cell_latencies": list(self.cell_latencies),
            "throughput_series": list(self.throughput_series),
            "window_delivered": self._window_delivered,
            "measuring": self._measuring,
            "delivered_per_node": sorted(self.delivered_per_node.items()),
        }

    def load_state(self, state: dict) -> None:
        """Restore :meth:`state_dict` output *in place*.

        The collector object is aliased by the engine and every node, so
        its containers are mutated rather than replaced.
        """
        for name, value in state["scalars"].items():
            setattr(self, name, value)
        self._buffer_samples.load(state["buffer_samples"])
        self._queue_samples.load(state["queue_samples"])
        self.cell_latencies[:] = state["cell_latencies"]
        self.throughput_series[:] = state["throughput_series"]
        self._window_delivered = state["window_delivered"]
        self._measuring = state["measuring"]
        self.delivered_per_node.clear()
        self.delivered_per_node.update(dict(state["delivered_per_node"]))

    def summary(self) -> Dict[str, float]:
        """A flat dictionary of headline statistics."""
        return {
            "cells_injected": float(self.cells_injected),
            "cells_sent": float(self.cells_sent),
            "cells_delivered": float(self.cells_delivered),
            "dummy_cells": float(self.dummy_cells_sent),
            "drops": float(self.cells_dropped),
            "wire_losses": float(self.wire_losses),
            "trims": float(self.cells_trimmed),
            "retransmissions": float(self.retransmissions),
            "max_queue_length": float(self.max_queue_length),
            "queue_p99": self.queue_length_percentile(99.0),
            "buffer_p9999": self.buffer_occupancy_percentile(99.99),
            "max_buffer": float(self.max_buffer_occupancy),
            "max_active_buckets": float(self.max_active_buckets),
            "max_pieo_length": float(self.max_pieo_length),
        }
