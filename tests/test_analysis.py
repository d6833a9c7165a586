"""Tests for the analysis package: theory formulas and FCT statistics."""

import bisect

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.analysis.fct import (
    FctTable, bucketed_fcts, fct_table, normalized_fcts,
)
from repro.analysis.theory import (
    effective_radix,
    feasible_h_values,
    intrinsic_latency_slots,
    srrd_latency_slots,
    throughput_guarantee,
    tradeoff_curve,
)
from repro.congestion.token_budget import (
    bucket_rate_ceiling,
    max_propagation_delay_first_hop,
    max_propagation_delay_interior,
    plan_budgets,
    required_first_hop_budget,
    required_interior_budget,
)
from repro.core.schedule import Schedule
from repro.sim.flows import CompletedFlows
from repro.workloads.distributions import FLOW_SIZE_BUCKETS


class TestTheory:
    def test_effective_radix_exact_powers(self):
        assert effective_radix(10_000, 2) == 100
        assert effective_radix(16, 4) == 2

    def test_effective_radix_rounds_up(self):
        assert effective_radix(10_001, 2) == 101
        assert effective_radix(100_000, 2) == 317

    def test_effective_radix_validation(self):
        with pytest.raises(ValueError):
            effective_radix(1, 2)
        with pytest.raises(ValueError):
            effective_radix(100, 0)

    def test_intrinsic_latency_formula(self):
        # 2 h (r - 1)
        assert intrinsic_latency_slots(10_000, 2) == 2 * 2 * 99
        assert intrinsic_latency_slots(16, 4) == 2 * 4 * 1

    def test_srrd_latency_linear_in_n(self):
        assert srrd_latency_slots(576) == 2 * 575

    def test_throughput_guarantee(self):
        assert throughput_guarantee(1) == 0.5
        assert throughput_guarantee(4) == 0.125
        with pytest.raises(ValueError):
            throughput_guarantee(0)

    def test_feasible_h(self):
        hs = feasible_h_values(16)
        assert hs == [1, 2, 3, 4]

    def test_tradeoff_curve_monotone(self):
        """Higher h: lower throughput AND (broadly) lower latency."""
        points = tradeoff_curve(100_000)
        tputs = [p.throughput for p in points]
        assert tputs == sorted(tputs, reverse=True)
        # latency drops by orders of magnitude from h=1 to h=4
        by_h = {p.h: p for p in points}
        assert by_h[1].latency_slots > 100 * by_h[4].latency_slots

    def test_fig1_headline_numbers(self):
        """Paper Fig. 1: at N=100,000, SRRD needs ~2*10^5 slots while
        mid-range tunings sit around 10^2-10^3."""
        by_h = {p.h: p for p in tradeoff_curve(100_000)}
        assert by_h[1].latency_slots == 199_998
        assert 1_000 < by_h[2].latency_slots < 2_000
        assert 100 < by_h[4].latency_slots < 200


class TestTokenBudget:
    def setup_method(self):
        self.sched = Schedule.for_network(64, 2)  # r=8, E=14

    def test_first_hop_bound(self):
        assert max_propagation_delay_first_hop(self.sched, 1) == 2 * 14
        assert max_propagation_delay_first_hop(self.sched, 3) == 3 * 2 * 14

    def test_interior_bound_scales_with_fanin(self):
        assert max_propagation_delay_interior(self.sched, 1) == 2 * 7 * 14

    def test_required_budgets_invert_bounds(self):
        for delay in (0, 10, 28, 29, 100):
            t_f = required_first_hop_budget(self.sched, delay)
            assert max_propagation_delay_first_hop(self.sched, t_f) >= delay
            if t_f > 1:
                assert max_propagation_delay_first_hop(
                    self.sched, t_f - 1
                ) < delay

    def test_interior_budget_inversion(self):
        for delay in (0, 100, 500):
            t = required_interior_budget(self.sched, delay)
            assert max_propagation_delay_interior(self.sched, t) >= delay

    def test_rate_ceiling(self):
        # zero delay: limited by the link's one-cell-per-epoch schedule
        assert bucket_rate_ceiling(self.sched, 1, 0) == pytest.approx(1 / 14)
        # huge delay: limited by tokens per RTT
        assert bucket_rate_ceiling(self.sched, 1, 700) == pytest.approx(
            1 / 1400
        )
        # budget buys rate back
        assert bucket_rate_ceiling(self.sched, 10, 700) == pytest.approx(
            min(1 / 14, 10 / 1400)
        )

    def test_plan(self):
        plan = plan_budgets(self.sched, propagation_delay=89)
        assert plan.t_f == required_first_hop_budget(self.sched, 89)
        assert plan.t == required_interior_budget(self.sched, 89)

    def test_validation(self):
        with pytest.raises(ValueError):
            max_propagation_delay_first_hop(self.sched, 0)
        with pytest.raises(ValueError):
            required_first_hop_budget(self.sched, -1)


def make_record(size_cells, fct, size_bytes=None, dst=0):
    """A completed flow's row: arrived at slot 0, done ``fct`` slots on."""
    if size_bytes is None:
        size_bytes = size_cells * 244
    return (0, 1, dst, size_cells, size_bytes, 0, fct)


def completed(records):
    return CompletedFlows(np.array(records, dtype=np.int64).reshape(-1, 7))


class TestFctAnalysis:
    def test_bucketing_by_size(self):
        records = [
            make_record(1, 10, size_bytes=1000),          # 0-4kB
            make_record(100, 500, size_bytes=20_000),      # 16-64kB
        ]
        buckets = bucketed_fcts(completed(records), propagation_delay=0)
        assert set(buckets) == {0, 2}

    def test_table_statistics(self):
        records = [make_record(10, 20 * (i + 1)) for i in range(10)]
        table = fct_table(completed(records), propagation_delay=10)
        mean = table.mean()
        assert len(mean) == 1
        bucket = next(iter(mean))
        assert mean[bucket] == pytest.approx(
            sum((20 * (i + 1)) / 20 for i in range(10)) / 10
        )
        assert table.tail(99.9)[bucket] <= 10.0
        assert table.counts()[bucket] == 10

    def test_rows_format(self):
        table = fct_table(completed([make_record(1, 5, size_bytes=100)]), 0)
        rows = table.rows()
        assert rows[0][0] == "0-4kB"
        assert rows[0][1] == 1

    def test_exclude_destinations(self):
        records = [
            make_record(1, 10, size_bytes=100, dst=0),
            make_record(1, 10, size_bytes=100, dst=5),
        ]
        table = fct_table(completed(records), 0, exclude_dsts=[5])
        assert table.counts()[0] == 1

    def test_overall_tail(self):
        records = [make_record(1, i + 1, size_bytes=100) for i in range(100)]
        table = fct_table(completed(records), 0)
        # 'lower' interpolation: the percentile is an observed FCT, never
        # a midpoint between two samples (50.5 under linear interpolation)
        assert table.overall_tail(50) == pytest.approx(50.0)

    def test_empty_table(self):
        table = fct_table(CompletedFlows(), 0)
        assert table.tail() == {}
        assert table.overall_tail() == 0.0


def reference_buckets(rows, propagation_delay, exclude_dsts=None):
    """Per-row FCT bucketing: each flow's measured FCT over its ideal
    ``size_cells + propagation_delay``, an int-by-int division, appended
    to its size bucket (upper edges inclusive) in completion order."""
    excluded = set(exclude_dsts or ())
    out = {}
    for _, _, dst, size_cells, size_bytes, arrival, completed_at in rows:
        if dst in excluded:
            continue
        fct = completed_at - arrival
        out.setdefault(bisect.bisect_left(FLOW_SIZE_BUCKETS, size_bytes),
                       []).append(fct / (size_cells + propagation_delay))
    return out


#: sizes on and beside every bucket edge, and anywhere between
_SIZES = st.one_of(
    st.sampled_from([edge + d for edge in FLOW_SIZE_BUCKETS
                     for d in (-1, 0, 1)]),
    st.integers(1, 2 * FLOW_SIZE_BUCKETS[-1]),
)
_ROWS = st.lists(st.tuples(
    st.integers(0, 10 ** 9), st.integers(0, 15), st.integers(0, 15),
    st.integers(1, 10 ** 7), _SIZES, st.integers(0, 10 ** 9),
    st.integers(0, 10 ** 7),
).map(lambda r: (*r[:6], r[5] + r[6])), max_size=60)


def _bits(buckets):
    return {i: [value.hex() for value in values]
            for i, values in buckets.items()}


class TestFctColumns:
    """The column FCT path against the per-row reference: every float the
    same bits, every bucket's values in completion order."""

    @given(rows=_ROWS, delay=st.integers(0, 500),
           exclude=st.one_of(st.none(), st.lists(st.integers(0, 15))))
    def test_columns_are_the_per_row_arithmetic(self, rows, delay, exclude):
        flows = completed(rows)
        expected = reference_buckets(rows, delay, exclude)
        buckets = bucketed_fcts(flows, delay, exclude)
        assert sorted(buckets) == sorted(expected)
        assert _bits(buckets) == _bits(expected)
        assert [v.hex() for v in normalized_fcts(flows, delay).tolist()] \
            == [((done - arrival) / (size + delay)).hex()
                for _, _, _, size, _, arrival, done in rows]
        table, reference = fct_table(flows, delay, exclude), \
            FctTable(expected)
        # means summed left to right, in completion order
        assert {i: v.hex() for i, v in table.mean().items()} == \
            {i: v.hex() for i, v in reference.mean().items()}
        assert table.rows() == reference.rows()
        assert table.overall_tail().hex() == reference.overall_tail().hex()
