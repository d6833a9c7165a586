"""Tiny-scale smoke/shape tests for every experiment regenerator.

Each test runs the experiment at the smallest meaningful scale and checks
both that it runs and that the paper's qualitative shape appears.
"""

import pytest

from repro.experiments import (
    ALL_EXPERIMENTS,
    appd_token_budget,
    fig01_tradeoff,
    fig04_opera,
    fig07_memory,
    fig08_validation,
    fig09_interleaving,
    fig10_shortflow,
    fig11_heavytail,
    fig12_failures,
    fig13_scalability,
    fig14_mean_fct,
    fig15_queues,
    fig17_nonincast,
)


class TestRegistry:
    def test_all_experiments_have_run_and_report(self):
        for name, module in ALL_EXPERIMENTS.items():
            assert callable(getattr(module, "run")), name
            assert callable(getattr(module, "report")), name


class TestFig01:
    def test_curve_shape(self):
        result = fig01_tradeoff.run(n=100_000)
        assert result.points[0].h == 1
        assert result.points[0].throughput == 0.5
        # SRRD latency orders of magnitude above h=4
        by_h = {p.h: p for p in result.points}
        assert by_h[1].latency_slots > 1000 * by_h[4].latency_slots

    def test_report_renders(self):
        text = fig01_tradeoff.report(fig01_tradeoff.run(n=10_000))
        assert "Figure 1" in text
        assert "h=1" in text


class TestFig04:
    @pytest.fixture(scope="class")
    def result(self):
        return fig04_opera.run(n=36, duration=8000, load=0.3,
                               propagation_delay=10,
                               opera_period_cells=300, seed=2)

    def test_both_systems_have_results(self, result):
        assert result.shale_tails
        assert result.opera_tails

    def test_opera_bulk_penalty(self, result):
        """Opera's largest-bucket tails should exceed Shale's."""
        bulk_buckets = [b for b in result.opera_tails if b >= 5]
        if bulk_buckets:
            worst_opera = max(result.opera_tails[b] for b in bulk_buckets)
            shale_bulk = [
                result.shale_tails[b] for b in bulk_buckets
                if b in result.shale_tails
            ]
            if shale_bulk:
                assert worst_opera > max(shale_bulk)

    def test_report(self, result):
        assert "Figure 4" in fig04_opera.report(result)


class TestFig07:
    def test_shapes(self):
        result = fig07_memory.run(sizes=[5_000, 25_000])
        assert result.shoal[-1] > result.shoal[0]
        for h, series in result.shale.items():
            assert result.shoal[-1] > 100 * series[-1]

    def test_report(self):
        assert "Figure 7" in fig07_memory.report(fig07_memory.run())


class TestFig08:
    @pytest.fixture(scope="class")
    def result(self):
        return fig08_validation.run(n=16, duration=6000)

    def test_throughput_above_guarantee(self, result):
        for h, hw, sim, _hq, _sq, guarantee in result.rows:
            assert hw >= 0.95 * guarantee
            assert sim >= 0.95 * guarantee

    def test_implementations_agree(self, result):
        for h, hw, sim, hw_q, sim_q, _g in result.rows:
            assert abs(hw - sim) <= 0.25 * max(hw, sim)

    def test_report(self, result):
        assert "Figure 8" in fig08_validation.report(result)


class TestFig09:
    @pytest.fixture(scope="class")
    def result(self):
        return fig09_interleaving.run(
            n=16, shares=(0.0, 0.5, 1.0), duration=8000,
            cutoff_cells=40, propagation_delay=2,
        )

    def test_all_shares_ran(self, result):
        assert set(result.tails) == {0.0, 0.5, 1.0}

    def test_loads_follow_combined_guarantee(self, result):
        assert result.loads[0.0] > result.loads[1.0]
        assert result.loads[0.0] > result.loads[0.5] > result.loads[1.0]

    def test_report(self, result):
        assert "Figure 9" in fig09_interleaving.report(result)

    def test_combined_load_formula(self):
        assert fig09_interleaving.combined_load(2, 4, 0.0, fraction=1.0) \
            == pytest.approx(0.25)
        assert fig09_interleaving.combined_load(2, 4, 1.0, fraction=1.0) \
            == pytest.approx(0.125)
        assert fig09_interleaving.combined_load(1, 4, 0.2, fraction=1.0) \
            == pytest.approx(0.8 * 0.5 + 0.2 * 0.125)


class TestCcGrids:
    @pytest.fixture(scope="class")
    def shortflow(self):
        # At N=16 the paper's near-guarantee load saturates stochastically
        # (it uses N=10,000); offer 72% of the guarantee instead.
        return fig10_shortflow.run(
            n=16, h_values=(2,), duration=8000,
            mechanisms=("none", "spray-short", "hbh+spray", "ndp"),
            propagation_delay=2, load=0.18,
        )

    def test_all_cells_present(self, shortflow):
        assert len(shortflow.cells) == 4

    def test_one_grid_behind_figs_10_11_14_15(self):
        assert fig14_mean_fct.run is fig10_shortflow.run
        assert fig15_queues.run is fig10_shortflow.run
        assert fig11_heavytail.run.func is fig10_shortflow.run
        assert fig11_heavytail.run.keywords == dict(
            workload_name="heavy-tailed", duration=60_000, seed=11)
        assert fig11_heavytail.report is fig10_shortflow.report

    def test_unknown_workload_is_refused_before_any_cell(self, monkeypatch):
        def no_cell(**cell):
            raise AssertionError("a cell ran")

        monkeypatch.setattr(fig10_shortflow, "_run_cell", no_cell)
        with pytest.raises(ValueError, match="unknown workload 'bogus'"):
            fig10_shortflow.run(workload_name="bogus")

    def test_spray_short_improves_buffers(self, shortflow):
        none_cell = shortflow.cell("none", 2)
        spray_cell = shortflow.cell("spray-short", 2)
        assert spray_cell.buffer_p9999 <= none_cell.buffer_p9999 * 1.5

    def test_workload_substantially_served(self, shortflow):
        """Every mechanism moves most of the offered load.

        (The paper's 'within 2.5% of L' holds at N=10,000 where no single
        elephant can monopolise a destination; at N=16 the egress-congestion
        effect of Section 3.3.1 legitimately throttles `none`.)
        """
        for cell in shortflow.cells:
            assert cell.throughput >= 0.4 * cell.target_load

    def test_none_exhibits_egress_queuing(self, shortflow):
        """Section 3.3.1: without congestion control, egress queues build
        up; the controlled mechanisms keep them far lower."""
        none_cell = shortflow.cell("none", 2)
        combo = shortflow.cell("hbh+spray", 2)
        assert none_cell.max_queue > 50
        assert combo.max_queue < none_cell.max_queue

    def test_reports_render(self, shortflow):
        assert "short-flow" in fig10_shortflow.report(shortflow)
        assert "Figure 14" in fig14_mean_fct.report(shortflow)
        assert "Figures 15/16" in fig15_queues.report(shortflow)

    def test_heavytail_hbh_cuts_buffers(self):
        result = fig11_heavytail.run(
            n=16, h_values=(2,), duration=10_000,
            mechanisms=("none", "hbh+spray"), propagation_delay=2,
        )
        none_cell = result.cell("none", 2)
        hbh_cell = result.cell("hbh+spray", 2)
        assert hbh_cell.buffer_p9999 < none_cell.buffer_p9999


class TestFig12:
    @pytest.fixture(scope="class")
    def result(self):
        return fig12_failures.run(
            n=16, h_values=(2,), failed_fractions=(0.0, 0.125),
            duration=5000, flow_cells=5000, permutations=4,
        )

    def test_throughput_declines_modestly(self, result):
        tputs = {row.fraction: row.throughput for row in result.rows}
        assert tputs[0.125] > 0.5 * tputs[0.0]
        assert tputs[0.0] >= tputs[0.125] * 0.95  # no failures >= failures

    def test_conservation_and_detection_columns(self, result):
        assert all(row.conserved for row in result.rows)
        for row in result.rows:
            if row.failed_count:
                assert row.detect_epochs is not None

    def test_link_mode(self):
        result = fig12_failures.run(
            n=16, h_values=(2,), failed_fractions=(0.0, 0.125),
            duration=4000, flow_cells=3000, permutations=4, mode="links",
        )
        assert result.mode == "links"
        assert all(row.conserved for row in result.rows)
        tputs = {row.fraction: row.throughput for row in result.rows}
        # the fabric stays connected: link failures cost little throughput
        assert tputs[0.125] > 0.6 * tputs[0.0]

    def test_report(self, result):
        report = fig12_failures.report(result)
        assert "Figure 12" in report
        assert "conserved" in report


class TestFig13:
    def test_resources_stay_bounded(self):
        result = fig13_scalability.run(
            sizes={2: (16, 64)}, duration=6000, propagation_delay=2
        )
        assert len(result.rows) == 2
        (h1, n1, a1, p1, _), (h2, n2, a2, p2, _) = result.rows
        assert n2 == 4 * n1
        # 4x nodes should not multiply resources by anything close to 4x
        assert a2 <= 4 * max(1, a1)
        assert "Figure 13" in fig13_scalability.report(result)

    def test_infeasible_sizes_rejected_up_front(self):
        # an infeasible (h, n) must fail before any simulation time is
        # spent, naming the nearest feasible alternatives
        with pytest.raises(ValueError) as err:
            fig13_scalability.run(sizes={2: (1000,)}, duration=6000)
        message = str(err.value)
        assert "h=2, n=1000" in message
        assert "961" in message and "1024" in message

    def test_paper_scale_grid_is_feasible(self):
        # the --paper-scale grid itself passes validation and reaches
        # N >= 10,000 for both tunings
        sizes = fig13_scalability.PAPER_SIZES
        fig13_scalability._validate_sizes(
            {h: tuple(v) for h, v in sizes.items()}
        )
        assert all(max(v) >= 10_000 for v in sizes.values())


class TestFig17:
    def test_runs_and_filters(self):
        result = fig17_nonincast.run(
            n=16, h=2, duration=8000,
            mechanisms=("isd", "hbh+spray"),
            elephant_bytes=1_000_000, propagation_delay=2,
        )
        assert set(result.all_tails) == {"isd", "hbh+spray"}
        assert "Figure 17" in fig17_nonincast.report(result)


class TestAppD:
    @pytest.fixture(scope="class")
    def result(self):
        return appd_token_budget.run(
            n=16, h=2, propagation_delays=(0, 120),
            first_hop_budgets=(1, 4), duration=6000, flow_cells=6000,
        )

    def test_budget_recovers_throughput_at_high_delay(self, result):
        by_key = {(p, tf): tput for p, tf, _t, tput, _g, _a in result.rows}
        assert by_key[(120, 4)] > by_key[(120, 1)]

    def test_low_delay_meets_guarantee(self, result):
        by_key = {(p, tf): tput for p, tf, _t, tput, _g, _a in result.rows}
        assert by_key[(0, 1)] > 0.2

    def test_report(self, result):
        assert "Appendix D" in appd_token_budget.report(result)
