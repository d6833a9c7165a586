"""Metrics collection for simulation runs.

Collects everything the paper's evaluation reports:

* per-flow completion times (via :class:`~repro.sim.flows.FlowTable`),
* per-node total buffer occupancy samples (Fig. 10/11 top rows report the
  99.99th percentile),
* per-queue length high-water marks and samples (Figs. 15/16),
* delivered payload cells (their time series is the telemetry
  recorder's, :mod:`repro.obs.timeseries`; Figs. 8/12),
* hardware resource proxies: the most active buckets at any node and
  the longest any send queue has been (Figs. 7/13).
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

import numpy as np

__all__ = ["MetricsCollector", "percentile"]


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
    so an ndarray goes through in its own dtype.
    """
    if len(values) == 0:
        return 0.0
    return float(np.percentile(np.asarray(values), q, **_PERCENTILE_LOWER))


def _tally(counts: np.ndarray, values: np.ndarray) -> np.ndarray:
    """``counts`` (``counts[v]`` = samples equal to ``v``) with ``values``
    added; as long as the largest sample seen, never longer."""
    total = np.bincount(values, minlength=counts.size)
    total[:counts.size] += counts
    return total


def _count_percentile(counts: np.ndarray, q: float) -> float:
    """:func:`percentile` of the samples tallied in ``counts``.

    'lower' returns the sorted samples' element at numpy's own index,
    ``floor((n - 1) * q / 100)`` in that evaluation order, and the element
    at sorted position ``i`` is the first value whose cumulative count
    exceeds ``i`` — so the tally answers exactly what the raw samples would.
    """
    upto = np.cumsum(counts)  # upto[v] = samples <= v
    if upto.size == 0:
        return 0.0
    index = int((int(upto[-1]) - 1) * (q / 100))
    return float(np.searchsorted(upto, index, side="right"))


class MetricsCollector:
    """Accumulates run statistics in memory the size of the network.

    Queue lengths and buffer occupancies are *sampled* at a fixed timeslot
    interval and kept as count-by-value tallies (the percentiles need no
    more).  ``max_queue_length`` and ``max_active_buckets`` are exact, each
    the one record of its high-water mark: a pipeline raises it at the
    enqueue that makes a queue longer or a bucket active.
    ``max_buffer_occupancy`` is the largest sampled node total.
    """

    def __init__(self, sample_interval: int = 50, warmup: int = 0):
        self.sample_interval = sample_interval
        self.warmup = warmup
        # exact counters
        self.cells_injected = 0
        self.payload_cells_delivered = 0
        self.cells_sent = 0
        self.dummy_cells_sent = 0
        self.cells_dropped = 0
        self.wire_losses = 0
        self.cells_trimmed = 0
        self.retransmissions = 0
        self.tokens_sent = 0
        self.control_messages = 0
        # per-node buffer occupancy samples (all queues at the node
        # summed) and per-queue length samples, tallied by value
        self._buffer_counts = np.zeros(0, dtype=np.int64)
        self._queue_counts = np.zeros(0, dtype=np.int64)
        # the high-water marks (the class docstring says who raises each)
        self.max_queue_length = 0
        self.max_buffer_occupancy = 0
        self.max_active_buckets = 0
        #: whether the measured interval has begun (False only while a
        #: non-zero warm-up is still running; see :meth:`begin_measurement`)
        self._measuring = warmup <= 0

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

    def on_cell_delivered(self, count: int = 1) -> None:
        self.payload_cells_delivered += count

    def on_drop(self, count: int = 1) -> None:
        self.cells_dropped += count

    def on_trim(self) -> None:
        self.cells_trimmed += 1

    def on_retransmission(self) -> None:
        self.retransmissions += 1

    # ------------------------------------------------------------------ #
    # periodic sampling

    def begin_measurement(self) -> None:
        """Enter the measured interval (called once, at the end of warm-up,
        the slot the first window closes).

        The cumulative counters run on; the telemetry recorder re-baselines
        its window deltas at the same slot (``Engine._enter_measurement``).
        """
        self._measuring = True

    @property
    def buffer_counts(self) -> np.ndarray:
        """``[v]`` = per-node total-buffer occupancy samples equal to ``v``."""
        return self._buffer_counts

    @property
    def queue_counts(self) -> np.ndarray:
        """``[v]`` = per-queue length samples (non-empty queues only)
        equal to ``v``."""
        return self._queue_counts

    def close_window(
        self,
        buffers: Sequence[int],
        queue_lengths: Sequence[int],
    ) -> Tuple[int, int, int]:
        """Close one sample window; the only writer of the sample tallies.

        Every pipeline hands over what it found at the sampling instant:
        ``buffers`` holds each live node's total occupancy (node-id order)
        and ``queue_lengths`` the length of link queues in any order — the
        empty ones are not samples and are ignored, so a pipeline may pass
        all of them.  Both arrays are sampled and the buffer maximum is
        raised.  Returns the window's instantaneous populations ``(queued,
        max_queue, max_buffer)`` for the telemetry row, so they come from
        the same two arrays.
        """
        buffers = np.asarray(buffers, dtype=np.int64)
        queue_lengths = np.asarray(queue_lengths, dtype=np.int64)
        self._buffer_counts = _tally(self._buffer_counts, buffers)
        max_buffer = int(buffers.max()) if buffers.size else 0
        max_queue = int(queue_lengths.max()) if queue_lengths.size else 0
        if max_queue:
            # the zeros land in [0], which counts no sample
            self._queue_counts = _tally(self._queue_counts, queue_lengths)
            self._queue_counts[0] = 0
        if max_buffer > self.max_buffer_occupancy:
            self.max_buffer_occupancy = max_buffer
        return int(buffers.sum()), max_queue, max_buffer

    # ------------------------------------------------------------------ #
    # summary statistics

    def buffer_occupancy_percentile(self, q: float = 99.99) -> float:
        """Tail total-buffer occupancy across (node, sample) pairs."""
        return _count_percentile(self._buffer_counts, q)

    def queue_length_percentile(self, q: float = 99.0) -> float:
        """Tail per-queue length across (queue, sample) pairs."""
        return _count_percentile(self._queue_counts, q)

    def mean_throughput_cells_per_slot(self, duration: int, n: int) -> float:
        """Average delivered payload cells per node per timeslot.

        This is *destination throughput* as a fraction of line rate (each
        node can receive at most one cell per slot).
        """
        if duration <= 0 or n <= 0:
            return 0.0
        return self.payload_cells_delivered / (duration * n)

    #: counters and maxima captured verbatim by checkpoints
    _SCALAR_FIELDS = (
        "cells_injected", "payload_cells_delivered",
        "cells_sent", "dummy_cells_sent", "cells_dropped", "wire_losses",
        "cells_trimmed", "retransmissions", "tokens_sent",
        "control_messages", "max_queue_length", "max_buffer_occupancy",
        "max_active_buckets",
    )

    def state_dict(self) -> dict:
        """Every mutable statistic (checkpoint encoding): the counters as
        plain ints, what is a column as an int64 array."""
        return {
            "scalars": {name: int(getattr(self, name))
                        for name in self._SCALAR_FIELDS},
            # never written in place: close_window rebinds both tallies
            "buffer_counts": self._buffer_counts,
            "queue_counts": self._queue_counts,
            "measuring": self._measuring,
        }

    def load_state(self, state: dict) -> None:
        """Restore :meth:`state_dict` output *in place*: the collector
        object is aliased by the engine and every node."""
        for name, value in state["scalars"].items():
            setattr(self, name, value)
        self._buffer_counts = state["buffer_counts"]
        self._queue_counts = state["queue_counts"]
        self._measuring = state["measuring"]

    def summary(self) -> Dict[str, float]:
        """A flat dictionary of headline statistics."""
        return {
            "cells_injected": float(self.cells_injected),
            "cells_sent": float(self.cells_sent),
            "cells_delivered": float(self.payload_cells_delivered),
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
        }
