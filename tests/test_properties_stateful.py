"""Model-based and additional property tests (hypothesis)."""

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    rule,
)

from repro.core.buckets import TokenLedger
from repro.core.interleave import (
    InterleavedSchedule,
    SubScheduleSpec,
)
from repro.core.schedule import Schedule
from repro.failures import FaultInjector
from repro.sim.config import SimConfig
from repro.sim.engine import Engine
from repro.sim.monitor import RunMonitor
from repro.sim.reorder import ReorderBuffer
from repro.workloads.generators import permutation_workload
from repro.baselines.opera.topology import RotorTopology


class TokenLedgerMachine(RuleBasedStateMachine):
    """The ledger must always agree with a naive reference model."""

    def __init__(self):
        super().__init__()
        self.budget = 2
        self.ledger = TokenLedger(budget=self.budget)
        self.model = {}  # (neighbor, bucket) -> outstanding

    keys = st.tuples(st.integers(0, 3), st.tuples(st.integers(0, 3),
                                                  st.integers(0, 2)))

    @rule(key=keys)
    def charge_if_possible(self, key):
        neighbor, bucket = key
        outstanding = self.model.get(key, 0)
        if outstanding < self.budget:
            self.ledger.charge(neighbor, bucket)
            self.model[key] = outstanding + 1
        else:
            try:
                self.ledger.charge(neighbor, bucket)
                raise AssertionError("charge beyond budget did not raise")
            except RuntimeError:
                pass

    @rule(key=keys)
    def credit(self, key):
        neighbor, bucket = key
        self.ledger.credit(neighbor, bucket)
        if self.model.get(key, 0) > 0:
            self.model[key] -= 1
            if not self.model[key]:
                del self.model[key]

    @invariant()
    def availability_matches_model(self):
        for key in list(self.model) + [(0, (0, 0))]:
            neighbor, bucket = key
            expected = self.budget - self.model.get(key, 0)
            assert self.ledger.available(neighbor, bucket) == expected

    @invariant()
    def outstanding_matches_model(self):
        assert self.ledger.outstanding() == sum(self.model.values())


TestTokenLedgerModel = TokenLedgerMachine.TestCase


class ReorderBufferMachine(RuleBasedStateMachine):
    """Feeding any permutation of 0..n-1 releases everything in order."""

    def __init__(self):
        super().__init__()
        self.buffer = ReorderBuffer()
        self.delivered = set()
        self.released = []
        self.t = 0

    @rule(seq=st.integers(0, 30))
    def deliver(self, seq):
        self.t += 1
        out = self.buffer.accept(seq, self.t)
        self.released.extend(out)
        self.delivered.add(seq)

    @invariant()
    def releases_are_in_order_and_unique(self):
        assert self.released == sorted(set(self.released))
        assert self.released == list(range(len(self.released)))

    @invariant()
    def held_never_contains_released(self):
        assert self.buffer.held >= 0
        assert self.buffer.next_seq == len(self.released)


TestReorderBufferModel = ReorderBufferMachine.TestCase


class TestInterleaveProperties:
    @given(
        st.floats(0.05, 0.95),
        st.integers(10, 200),
        st.integers(0, 3000),
    )
    def test_sub_timeslot_mapping_is_bijective(self, share, resolution, t):
        """(owner, sub_t) pairs enumerate master slots without gaps."""
        inter = InterleavedSchedule(
            [
                SubScheduleSpec(Schedule.for_network(16, 4), share=share),
                SubScheduleSpec(Schedule.for_network(16, 2), share=1 - share),
            ],
            resolution=resolution,
        )
        # walk slots 0..t and confirm each class's sub clock is contiguous
        counters = [0, 0]
        for slot in range(min(t, 600)):
            owner, sub_t = inter.sub_timeslot(slot)
            assert sub_t == counters[owner]
            counters[owner] += 1

    @given(st.floats(0.05, 0.95))
    def test_share_accounting(self, share):
        inter = InterleavedSchedule(
            [
                SubScheduleSpec(Schedule.for_network(16, 4), share=share),
                SubScheduleSpec(Schedule.for_network(16, 2), share=1 - share),
            ],
            resolution=100,
        )
        assert sum(inter.pattern_counts) == 100
        assert abs(inter.pattern_counts[0] - share * 100) <= 1
        # total guaranteed throughput never exceeds the best single schedule
        assert inter.total_throughput() <= 0.25 + 1e-9


class TestFaultConservationProperties:
    @settings(
        max_examples=8, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(0, 2**32 - 1),
        node_mtbf=st.sampled_from([0, 1200, 2500]),
        link_mtbf=st.sampled_from([0, 1500, 3000]),
        loss=st.sampled_from([0.0, 0.01]),
        detection_epochs=st.integers(1, 3),
    )
    def test_random_fault_schedule_conserves_cells(
            self, seed, node_mtbf, link_mtbf, loss, detection_epochs):
        """Under any random crash/flap/loss schedule, every injected cell is
        delivered, dropped, trimmed, queued or in flight — never leaked."""
        duration = 4000
        inj = FaultInjector(
            16, 2, duration, seed=seed,
            node_mtbf=node_mtbf, node_mttr=500,
            link_mtbf=link_mtbf, link_mttr=400,
            cell_loss_rate=loss,
        )
        manager = inj.build_manager(detection_epochs=detection_epochs)
        cfg = SimConfig(
            n=16, h=2, duration=duration, propagation_delay=2,
            congestion_control="hbh+spray", seed=seed % 1000,
        )
        engine = Engine(cfg, failure_manager=manager)
        monitor = RunMonitor(strict=True).attach(engine)
        engine.schedule_flows(permutation_workload(cfg, size_cells=300))
        engine.run()  # strict: any leak raises ConservationError mid-run
        monitor.check(engine, engine.t)
        assert not monitor.violations


class TestOperaProperties:
    @given(st.integers(5, 60), st.integers(1, 6), st.integers(0, 500))
    def test_live_offsets_valid(self, n, uplinks, period):
        if uplinks >= n:
            uplinks = n - 1
        topo = RotorTopology(n, uplinks)
        for offset in topo.live_offsets(period):
            assert 1 <= offset <= n - 1

    @given(st.integers(5, 40), st.integers(0, 400))
    def test_pair_coverage_within_cycle(self, n, start):
        """Any pair is directly connected within n periods of any start."""
        topo = RotorTopology(n, 2)
        rng = random.Random(start)
        dst = rng.randrange(1, n)
        period = topo.next_direct_period(0, dst, after=start)
        assert start <= period <= start + n
        assert topo.connected(0, dst, period) is not None
