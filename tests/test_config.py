"""Unit tests for simulation configuration and the timing model."""

import numpy as np
import pytest

from repro.sim.config import PAPER_TIMING, SimConfig, TimingModel


class TestTimingModel:
    def test_paper_constants(self):
        """Section 5's numbers: 256 B cells, 400 Gbps aggregate, 5.632 ns
        effective timeslot period."""
        t = PAPER_TIMING
        assert t.cell_bytes == 256
        assert t.aggregate_gbps == 400.0
        assert t.effective_slot_ns == pytest.approx(5.632)
        assert t.usable_ns == pytest.approx(40.96)

    def test_unit_conversions_roundtrip(self):
        t = TimingModel()
        assert t.ns_to_slots(t.slots_to_ns(89)) == pytest.approx(89)

    def test_propagation_delay_of_half_us(self):
        """0.5 us ~ 89 timeslots (the paper's datacenter setting)."""
        assert round(PAPER_TIMING.ns_to_slots(500)) == 89


class TestSimConfig:
    def test_defaults_valid(self):
        cfg = SimConfig()
        assert cfg.n == 64
        assert cfg.h == 2

    def test_non_power_n_rejected(self):
        with pytest.raises(ValueError):
            SimConfig(n=10, h=2)

    def test_unknown_cc_rejected(self):
        with pytest.raises(ValueError, match="unknown congestion control"):
            SimConfig(congestion_control="tcp")

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            SimConfig(propagation_delay=-1)

    def test_zero_duration_rejected(self):
        with pytest.raises(ValueError):
            SimConfig(duration=0)

    def test_token_budget_validation(self):
        with pytest.raises(ValueError):
            SimConfig(token_budget=0)
        with pytest.raises(ValueError):
            SimConfig(tokens_per_header=0)

    @pytest.mark.parametrize("field, value", [
        ("metrics_sample_interval", 0),
        ("metrics_sample_interval", -3),
        ("warmup", -5),
    ])
    def test_sampling_fields_rejected(self, field, value):
        """Regression: a zero sample interval was accepted, clamped to 1 by
        the metrics collector and then crashed a monitored run at slot 0
        (``t % 0`` in the monitor's check)."""
        with pytest.raises(ValueError, match=field):
            SimConfig(**{field: value})

    @pytest.mark.parametrize("field, value", [
        ("pull_batch", 0),              # ZeroDivisionError mid-run (ndp)
        ("pull_batch", -1),             # a PULL on every delivery (rd)
        ("initial_window", 0),          # no flow ever completes
        ("ndp_queue_limit", 0),         # every forwarded cell trimmed
        ("first_hop_token_budget", -1),  # refused only once a node is built
        ("isd_rate_factor", 0.0),       # no cell ever injected
        ("isd_rate_factor", -1.0),
        ("isd_rate_factor", float("nan")),
    ])
    def test_mechanism_fields_rejected(self, field, value):
        """Mechanism parameters that crash or stall a run are refused at
        construction, not found mid-run."""
        with pytest.raises(ValueError, match=field):
            SimConfig(**{field: value})

    @pytest.mark.parametrize("field, value", [
        ("n", 16.0),
        ("h", 2.0),
        ("propagation_delay", 1.5),   # a checkpoint's wire table is float
        ("propagation_delay", True),
        ("duration", 100.5),
        ("token_budget", 1.5),
        ("first_hop_token_budget", 1.5),
        ("tokens_per_header", 2.5),   # slice indices must be integers
        ("ndp_queue_limit", 1.5),
        ("pull_batch", 2.5),
        ("initial_window", 4.5),
        ("warmup", 2.5),
        ("metrics_sample_interval", 2.5),
    ])
    def test_integer_fields_refuse_other_types(self, field, value):
        """Every integer field refuses a float or a bool by name, at
        construction instead of mid-run."""
        config = {"n": 16, field: value}
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            SimConfig(**config)

    def test_integer_fields_accept_numpy_integers(self):
        config = SimConfig(n=np.int64(16), h=np.int32(2),
                           duration=np.int64(100))
        assert config.n == 16 and config.duration == 100

    def test_infinite_isd_rate_is_uncapped(self):
        assert SimConfig(isd_rate_factor=float("inf")).isd_rate_factor \
            == float("inf")

    @pytest.mark.parametrize(
        "cc,spray,hbh",
        [
            ("none", False, False),
            ("priority", False, False),
            ("isd", False, False),
            ("rd", False, False),
            ("ndp", False, False),
            ("spray-short", True, False),
            ("hop-by-hop", False, True),
            ("hbh+spray", True, True),
        ],
    )
    def test_mechanism_flags(self, cc, spray, hbh):
        cfg = SimConfig(congestion_control=cc)
        assert cfg.uses_spray_short == spray
        assert cfg.uses_hop_by_hop == hbh

    def test_all_valid_cc_construct(self):
        for cc in SimConfig.VALID_CC:
            SimConfig(congestion_control=cc)


class TestStrategySelection:
    """SimConfig validates the (schedule, routing, n, h) design up front."""

    def test_defaults_are_ebs_vlb(self):
        cfg = SimConfig()
        assert cfg.schedule == "ebs"
        assert cfg.routing == "vlb"

    def test_unknown_schedule_rejected_with_registry(self):
        """The error names the bad strategy and lists what is registered."""
        with pytest.raises(ValueError, match="unknown schedule strategy"):
            SimConfig(schedule="rotornet")
        with pytest.raises(ValueError, match="ebs"):
            SimConfig(schedule="rotornet")

    def test_unknown_routing_rejected_with_registry(self):
        with pytest.raises(ValueError, match="unknown routing strategy"):
            SimConfig(routing="ecmp")
        with pytest.raises(ValueError, match="vlb"):
            SimConfig(routing="ecmp")

    def test_srrd_rejects_multi_phase_h(self):
        with pytest.raises(ValueError, match="exactly one phase"):
            SimConfig(n=16, h=2, schedule="srrd")

    def test_srrd_accepts_any_n_at_h1(self):
        """SRRD lifts the perfect-power constraint EBS imposes."""
        cfg = SimConfig(n=10, h=1, schedule="srrd")
        assert cfg.schedule == "srrd"

    def test_ebs_infeasible_n_h_still_rejected(self):
        with pytest.raises(ValueError, match="not a perfect"):
            SimConfig(n=10, h=2, schedule="ebs")

    def test_all_registered_pairs_construct(self):
        from repro.core.strategies import routing_names, schedule_names

        for sched in schedule_names():
            n, h = (9, 1) if sched == "srrd" else (9, 2)
            for routing in routing_names():
                cfg = SimConfig(n=n, h=h, schedule=sched, routing=routing)
                assert (cfg.schedule, cfg.routing) == (sched, routing)
