"""Unit tests for flow tables, the completed-flow history and metrics
collection."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.obs.timeseries import TimeSeriesRecorder
from repro.sim.config import SimConfig
from repro.sim.engine import Engine
from repro.analysis.fct import normalized_fcts
from repro.sim.flows import COMPLETED_COLUMNS, CompletedFlows, Flow, FlowTable
from repro.sim.metrics import _PERCENTILE_LOWER, MetricsCollector, percentile


class TestFlow:
    def test_lifecycle_flags(self):
        flow = Flow(0, src=1, dst=2, size_cells=3, arrival=10)
        assert not flow.done_sending
        flow.sent = 3
        assert flow.done_sending

    def test_state_is_what_a_pipeline_reads(self):
        """No field nothing reads: the slots are pinned, and the state
        tuple carries all nine (a completed flow is a row of the history,
        never a Flow)."""
        assert Flow.__slots__ == (
            "flow_id", "src", "dst", "size_cells", "size_bytes", "arrival",
            "sent", "delivered", "credit",
        )
        flow = Flow(7, src=1, dst=2, size_cells=3, arrival=10)
        state = flow.state()
        assert len(state) == 9
        assert Flow.from_state(state).state() == state

    def test_validation(self):
        with pytest.raises(ValueError):
            Flow(0, src=1, dst=1, size_cells=3, arrival=0)
        with pytest.raises(ValueError):
            Flow(0, src=1, dst=2, size_cells=0, arrival=0)

    def test_default_size_bytes(self):
        flow = Flow(0, 1, 2, size_cells=10, arrival=0)
        assert flow.size_bytes == 2440


def finished(size_cells, arrival, t):
    """The history of one flow of ``size_cells`` that arrived at
    ``arrival`` and completed at ``t``."""
    table = FlowTable()
    flow = table.new_flow(1, 2, size_cells, arrival)
    flow.delivered = size_cells
    table.finalize(flow, t)
    return table.completed


class TestCompletedFlows:
    def test_fct_and_normalization(self):
        completed = finished(10, arrival=100, t=160)
        (row,) = completed
        assert row.fct == 60
        # ideal = 10 cells + 20 propagation = 30 slots -> normalised 2.0
        assert normalized_fcts(completed, 20).tolist() == [2.0]

    def test_perfect_flow_normalizes_to_one(self):
        completed = finished(50, arrival=0, t=50 + 7)
        assert normalized_fcts(completed, 7).tolist() == [1.0]

    def test_rows_cross_blocks_in_completion_order(self):
        table = FlowTable()
        count = 2 * CompletedFlows.BLOCK + 5
        for i in range(count):
            flow = table.new_flow(i % 7, 7 + i % 3, 1 + i % 4, arrival=i)
            table.finalize(flow, 2 * i + 1)
        rows = table.completed.table()
        assert len(table.completed) == count
        assert rows.shape == (count, len(COMPLETED_COLUMNS))
        assert rows.dtype == np.int64
        assert rows[:, 0].tolist() == list(range(count))
        assert table.completed.columns()["completed_at"].tolist() == [
            2 * i + 1 for i in range(count)]
        # a restored table is the same history, and grows on
        restored = CompletedFlows(rows)
        restored.append(*range(7))
        assert np.array_equal(restored.table()[:-1], rows)
        assert restored.table()[-1].tolist() == list(range(7))
        assert CompletedFlows().table().shape == (0, 7)

    def test_a_completed_flow_costs_its_row(self):
        """tracemalloc bytes per completed flow over 60 000 ``finalize``
        calls: the seven int64 fields, 56 B, and a share of the open
        block.  A record object per flow held 128 B."""
        table = FlowTable()
        count = 60_000
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for i in range(count):
                flow = table.new_flow(i % 64, 64 + i % 64, 3, arrival=i)
                flow.delivered = 3
                table.finalize(flow, i + 9)
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(table.completed) == count
        assert grown / count <= 64, grown / count


class TestFlowTable:
    def test_new_flow_ids_increment(self):
        table = FlowTable()
        a = table.new_flow(0, 1, 5, arrival=0)
        b = table.new_flow(1, 2, 5, arrival=0)
        assert b.flow_id == a.flow_id + 1

    def test_incast_degree_tracking(self):
        table = FlowTable()
        table.new_flow(0, 9, 5, 0)
        table.new_flow(1, 9, 5, 0)
        table.new_flow(2, 3, 5, 0)
        assert table.flows_to(9) == 2
        assert table.flows_to(3) == 1
        assert table.flows_to(7) == 0

    def test_delivery_and_completion(self):
        table = FlowTable()
        flow = table.new_flow(0, 1, 2, arrival=5)
        # the pipelines count deliveries on the flow themselves and call
        # finalize on the completing cell only
        flow.delivered = 2
        table.finalize(flow, 12)
        assert table.get(flow.flow_id) is None
        assert table.flows_to(1) == 0
        assert table.completed.table().tolist() == [[0, 0, 1, 2, 488, 5, 12]]
        assert [row.fct for row in table.completed] == [7]

    def test_active_iteration(self):
        table = FlowTable()
        table.new_flow(0, 1, 5, 0)
        table.new_flow(2, 3, 5, 0)
        assert table.active_count == 2
        assert len(list(table.active_flows())) == 2


class TestPercentile:
    def test_empty(self):
        assert percentile([], 99) == 0.0

    def test_single(self):
        assert percentile([5], 99.9) == 5.0

    def test_median(self):
        assert percentile([1, 2, 3, 4, 5], 50) == 3.0

    def test_never_exceeds_max(self):
        values = list(range(1000))
        assert percentile(values, 99.99) <= 999

    def test_lower_interpolation_not_linear(self):
        """Regression: the docstring promised 'lower' but the implementation
        interpolated linearly (``percentile([0, 10], 50)`` returned 5.0)."""
        assert percentile([0, 10], 50) == 0.0
        assert percentile([1, 2, 3, 4], 97) == 3.0

    def test_result_is_an_observed_sample(self):
        values = [3, 1, 41, 59, 26, 5]
        for q in (0, 10, 25, 50, 75, 90, 99, 100):
            assert percentile(values, q) in values

    @given(
        st.one_of(
            st.lists(st.integers(-2**53, 2**53)),
            st.lists(st.floats(allow_nan=False, allow_infinity=False)),
        ),
        st.floats(0, 100),
        st.booleans(),
    )
    def test_own_dtype_gives_the_float64_copys_value(self, values, q,
                                                     as_array):
        """The input used to be copied to float64 first; 'lower' picks an
        element, so its value is the same in the input's own dtype — for
        sequences and for int64 arrays alike."""
        expected = float(np.percentile(
            np.asarray(values, dtype=np.float64), q, **_PERCENTILE_LOWER
        )) if values else 0.0
        data = np.array(values) if as_array else values
        assert percentile(data, q) == expected


class TestMetricsCollector:
    def test_counters(self):
        m = MetricsCollector()
        m.on_cell_delivered()
        m.on_drop()
        m.on_trim()
        m.on_retransmission()
        assert m.payload_cells_delivered == 1
        assert m.cells_dropped == 1
        assert m.cells_trimmed == 1
        assert m.retransmissions == 1

    def test_queue_max_tracking(self):
        # the queue high-water mark is the enqueue's record: a window
        # samples the lengths and raises only the buffer maximum
        m = MetricsCollector()
        for lengths in ([3], [7, 1], [2]):
            m.close_window([sum(lengths)], lengths)
        assert m.queue_length_percentile(100) == 7
        assert m.max_buffer_occupancy == 8
        assert m.max_queue_length == 0

    def test_sampling_interval_and_warmup(self):
        """The sampling policy lives in the engine's slot body: a window
        closes on every ``sample_interval``-th slot once warm-up is over."""
        engine = Engine(SimConfig(
            n=16, h=2, duration=36, congestion_control="none",
            metrics_sample_interval=10, warmup=20,
        ))
        recorder = TimeSeriesRecorder().attach(engine)
        engine.run()
        assert recorder.column("t").tolist() == [20, 30]
        assert recorder.column("delivered").tolist() == [0, 0]
        assert engine.metrics.buffer_counts.sum() == 2 * 16

    @pytest.mark.parametrize("windows, populations, buffer_p50, state", [
        pytest.param(  # one node sampled per window feeds the percentiles
            # ('lower' interpolation returns an observed sample, 2, not
            # the linear midpoint 2.5)
            [([occ], [occ]) for occ in (1, 2, 3, 100)],
            (100, 100, 100), 2.0,
            dict(buffer_counts=[0, 1, 1, 1] + [0] * 96 + [1],
                 queue_counts=[0, 1, 1, 1] + [0] * 96 + [1],
                 max_buffer_occupancy=100),
            id="node-samples"),
        pytest.param(  # the buffer maximum only ever rises, and the
            # enqueue-driven maxima are no window's to raise
            [([5], [3, 2]), ([1], [1])],
            (1, 1, 1), 1.0,
            dict(buffer_counts=[0, 1, 0, 0, 0, 1], queue_counts=[0, 1, 1, 1],
                 max_buffer_occupancy=5, max_queue_length=0,
                 max_active_buckets=0),
            id="resource-peaks"),
        pytest.param(  # what the engine's walk hands over for three nodes
            # (7 cells in queues of 4 and 0 | failed | 2 in one queue):
            # the failed node and the empty queue are not sampled
            [([7, 2], [4, 2])],
            (9, 4, 7), 2.0,
            dict(buffer_counts=[0, 0, 1, 0, 0, 0, 0, 1],
                 queue_counts=[0, 0, 1, 0, 1],
                 max_buffer_occupancy=7),
            id="node-walk"),
        pytest.param(  # the slab hands over every queue, empty ones too,
            # in its own order: the empty ones are no samples
            [([0], [0, 0, 0]), ([7, 2], [0, 2, 0, 0, 4, 0])],
            (9, 4, 7), 2.0,
            dict(buffer_counts=[1, 0, 1, 0, 0, 0, 0, 1],
                 queue_counts=[0, 0, 1, 0, 1],
                 max_buffer_occupancy=7),
            id="all-queues"),
        pytest.param(  # nothing queued anywhere: no sample at all
            [([0, 0], [0, 0, 0, 0])],
            (0, 0, 0), 0.0,
            dict(buffer_counts=[2], queue_counts=[], max_buffer_occupancy=0),
            id="all-queues-empty"),
    ])
    def test_close_window(self, windows, populations, buffer_p50, state):
        """Same buffer maximum, same sample tallies (``counts[v]`` samples
        equal to ``v``, no longer than the largest one) — whichever
        pipeline computed the two arrays.  ``populations`` is what the last
        window returns for the telemetry row."""
        m = MetricsCollector()
        for window in windows:
            returned = m.close_window(*window)
        assert returned == populations
        assert m.buffer_occupancy_percentile(50) == buffer_p50
        for name, value in state.items():
            got = getattr(m, name)
            assert (got.tolist() if hasattr(got, "tolist") else got) \
                == value, name

    def test_throughput_accounting(self):
        m = MetricsCollector()
        for _ in range(10):
            m.on_cell_delivered()
        assert m.mean_throughput_cells_per_slot(duration=5, n=2) == 1.0
        assert m.mean_throughput_cells_per_slot(duration=0, n=2) == 0.0

    def test_summary_keys(self):
        m = MetricsCollector()
        summary = m.summary()
        for key in ("cells_sent", "max_queue_length", "buffer_p9999"):
            assert key in summary

    @given(
        st.lists(st.tuples(
            st.lists(st.integers(0, 5000), max_size=40),
            st.lists(st.integers(1, 5000), max_size=40),
        ), max_size=12),
        st.floats(0, 100),
    )
    # sample counts where ``floor((n - 1) * q)``, numpy's index, and the
    # textbook ``floor(n*q + (1 - q) - 1)`` round apart
    @example([(list(range(24601)), list(range(1, 20002)))], 99.0)
    @example([(list(range(2001)), []), ([], list(range(1, 80002)))], 33.3)
    def test_percentiles_are_numpys_over_the_raw_samples(self, windows, q):
        """The collector keeps counts, the test keeps the raw samples:
        after every window both percentile methods answer what
        ``np.percentile(samples, q, method="lower")`` does over everything
        sampled so far, and 0.0 while that is nothing."""
        m = MetricsCollector()
        buffers, queues = [], []
        for window in [([], [])] + windows:
            m.close_window(*window)
            buffers += window[0]
            queues += window[1]
            for pct in (0, 50, 99, 99.9, 99.99, 100, q):
                assert m.buffer_occupancy_percentile(pct) == (
                    float(np.percentile(buffers, pct, **_PERCENTILE_LOWER))
                    if buffers else 0.0)
                assert m.queue_length_percentile(pct) == (
                    float(np.percentile(queues, pct, **_PERCENTILE_LOWER))
                    if queues else 0.0)
            assert m.buffer_counts.sum() == len(buffers)
            assert m.queue_counts.sum() == len(queues)
