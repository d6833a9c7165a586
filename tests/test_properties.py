"""Property-based tests (hypothesis) for core data structures and invariants."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.coordinates import CoordinateSystem
from repro.core.header import (
    TOKEN_INVALIDATE,
    TOKEN_REGULAR,
    TOKEN_REVALIDATE,
    HeaderCodec,
    Token,
)
from repro.core.routing import Router
from repro.core.schedule import Schedule
from repro.sim.config import SimConfig
from repro.sim.pieo import PieoQueue
from repro.workloads.distributions import (
    HeavyTailedDistribution,
    ShortFlowDistribution,
    bucket_of,
    bytes_to_cells,
)

# networks small enough to enumerate exhaustively inside properties
NETWORKS = st.sampled_from(
    [(4, 1), (8, 1), (4, 2), (9, 2), (16, 2), (25, 2), (8, 3), (27, 3), (16, 4)]
)


class TestCoordinateProperties:
    @given(NETWORKS, st.integers(min_value=0, max_value=10**6))
    def test_roundtrip(self, net, raw):
        n, h = net
        cs = CoordinateSystem(n, h)
        node = raw % n
        assert cs.node_id(cs.coords(node)) == node

    @given(NETWORKS, st.integers(0, 10**6), st.integers(0, 10**6),
           st.integers(0, 10**6))
    def test_with_coordinate_sets_exactly_one(self, net, raw, p_raw, v_raw):
        n, h = net
        cs = CoordinateSystem(n, h)
        node = raw % n
        p = p_raw % h
        value = v_raw % cs.r
        moved = cs.with_coordinate(node, p, value)
        for q in range(h):
            if q == p:
                assert cs.coordinate(moved, q) == value
            else:
                assert cs.coordinate(moved, q) == cs.coordinate(node, q)

    @given(NETWORKS, st.integers(0, 10**6))
    def test_neighbor_relation_symmetric(self, net, raw):
        n, h = net
        cs = CoordinateSystem(n, h)
        node = raw % n
        for nb in cs.all_neighbors(node):
            assert node in cs.all_neighbors(nb)


class TestScheduleProperties:
    @given(NETWORKS, st.integers(0, 5000))
    def test_every_slot_is_permutation(self, net, t):
        n, h = net
        sched = Schedule.for_network(n, h)
        matrix = sched.connection_matrix(t)
        assert sorted(matrix) == list(range(n))

    @given(NETWORKS, st.integers(0, 5000))
    def test_send_recv_inverse(self, net, t):
        n, h = net
        sched = Schedule.for_network(n, h)
        for x in range(n):
            assert sched.recv_source(sched.send_target(x, t), t) == x

    @given(NETWORKS, st.integers(0, 1000), st.integers(0, 10**6),
           st.integers(0, 10**6))
    def test_next_send_slot_correct(self, net, after, a_raw, b_raw):
        n, h = net
        sched = Schedule.for_network(n, h)
        src = a_raw % n
        neighbors = sched.coords.all_neighbors(src)
        dst = neighbors[b_raw % len(neighbors)]
        t = sched.next_send_slot(src, dst, after)
        assert t >= after
        assert t - after < sched.epoch_length
        assert sched.send_target(src, t) == dst


class TestRoutingProperties:
    @settings(max_examples=60)
    @given(NETWORKS, st.integers(0, 10**6), st.integers(0, 10**6),
           st.integers(0, 3), st.integers(0, 2**31 - 1))
    def test_sampled_paths_always_reach(self, net, a_raw, b_raw, phase_raw,
                                        seed):
        n, h = net
        src = a_raw % n
        dst = b_raw % n
        router = Router(Schedule.for_network(n, h), rng=random.Random(seed))
        path = router.sample_path(src, dst, start_phase=phase_raw % h)
        assert path[0] == src
        assert path[-1] == dst
        assert len(path) - 1 <= 2 * h

    @settings(max_examples=60)
    @given(NETWORKS, st.integers(0, 10**6), st.integers(0, 10**6),
           st.integers(0, 10**6))
    def test_path_via_visits_intermediate(self, net, a_raw, b_raw, m_raw):
        n, h = net
        router = Router(Schedule.for_network(n, h),
                        rng=random.Random(0))
        src, dst, mid = a_raw % n, b_raw % n, m_raw % n
        path = router.path_via(src, mid, dst)
        assert path[h] == mid
        assert path[-1] == dst


class TestHeaderProperties:
    codec = HeaderCodec()

    @given(
        st.integers(0, (1 << 15) - 1),
        st.integers(0, (1 << 15) - 1),
        st.integers(0, 3),
        st.integers(0, (1 << 18) - 1),
        st.lists(
            st.tuples(
                st.integers(0, (1 << 15) - 1),
                st.integers(0, 3),
                st.sampled_from(
                    [TOKEN_REGULAR, TOKEN_INVALIDATE, TOKEN_REVALIDATE]
                ),
            ),
            max_size=2,
        ),
    )
    def test_pack_unpack_roundtrip(self, src, dst, sprays, seq, token_specs):
        tokens = [Token(d, s, k) for d, s, k in token_specs]
        data = self.codec.pack(src, dst, sprays, seq, tokens=tokens)
        assert len(data) == 12
        got = self.codec.unpack(data)
        assert got == (src, dst, sprays, seq, tokens)

    @given(st.binary(min_size=12, max_size=12))
    def test_unpack_never_crashes_on_garbage(self, data):
        """Arbitrary 12 bytes either decode or raise ValueError — never
        anything else."""
        try:
            self.codec.unpack(data)
        except ValueError:
            pass


class TestPieoProperties:
    @given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 100)),
                    max_size=50))
    def test_extraction_order_sorted_by_rank_then_fifo(self, items):
        q = PieoQueue()
        for i, (rank, _) in enumerate(items):
            q.push((rank, i), rank=rank)
        out = []
        while q:
            out.append(q.extract_head())
        assert out == sorted(out, key=lambda x: (x[0], x[1]))

    @given(st.lists(st.integers(0, 9), max_size=40), st.sets(st.integers(0, 9)))
    def test_extract_first_eligible_semantics(self, values, eligible_set):
        q = PieoQueue()
        for v in values:
            q.push(v)
        got = q.extract_first_eligible(lambda v: v in eligible_set)
        expected = next((v for v in values if v in eligible_set), None)
        assert got == expected
        remaining = list(q)
        if expected is None:
            assert remaining == values
        else:
            copy = list(values)
            copy.remove(expected)
            assert remaining == copy

    @given(st.lists(st.integers(0, 100), max_size=50))
    def test_length_conserved(self, values):
        q = PieoQueue()
        for v in values:
            q.push(v)
        assert len(q) == len(values)
        count = 0
        while q.extract_head() is not None:
            count += 1
        assert count == len(values)


class TestWorkloadProperties:
    @given(st.integers(0, 2**31 - 1))
    def test_short_flow_samples_in_support(self, seed):
        dist = ShortFlowDistribution()
        size = dist.sample(random.Random(seed))
        assert 1 <= size <= 3_000_000

    @given(st.integers(0, 2**31 - 1))
    def test_heavy_tail_samples_in_support(self, seed):
        dist = HeavyTailedDistribution()
        size = dist.sample(random.Random(seed))
        assert 1 <= size <= 1_000_000_000

    @given(st.integers(1, 10**10))
    def test_bucket_of_total_and_monotone(self, size):
        b = bucket_of(size)
        assert 0 <= b <= 8
        assert bucket_of(size + 1) >= b

    @given(st.integers(1, 10**9))
    def test_bytes_to_cells_covers_payload(self, size):
        cells = bytes_to_cells(size)
        assert cells * 244 >= size
        assert (cells - 1) * 244 < size


class TestEngineFastPathEquivalence:
    """The active set must be invisible in simulated behaviour.

    ``object_backend.run_tx`` visits only the nodes in the active set and
    retires the ones it finds failed or idle; with ``force_full_scan`` it
    visits every node each slot and never touches the set.  Both call the
    same ``Node.transmit``, so the only thing under test is the set: every
    path that gives an idle node work must wake it — enqueue and new flows
    (all mechanisms), queued tokens (hop-by-hop family), ``pending_ctrl``
    and ``rtx_queue`` (``rd`` / ``ndp``), ranked queues (``priority``) and
    the RX-side shortest-queue pick (``spray-short``).  The two scans must
    produce identical delivery events and identical event digests for every
    mechanism and seed.
    """

    @settings(deadline=None, max_examples=10)
    @given(
        st.sampled_from([16, 64]),
        st.sampled_from([1, 2]),
        st.sampled_from(SimConfig.VALID_CC),
        st.integers(min_value=0, max_value=2**16),
    )
    def test_active_set_matches_full_scan(self, n, h, cc, seed):
        from repro.sim.engine import Engine
        from repro.workloads.generators import permutation_workload

        def run(full_scan):
            cfg = SimConfig(
                n=n, h=h, duration=10**9, propagation_delay=2,
                congestion_control=cc, seed=seed,
            )
            engine = Engine(cfg, workload=permutation_workload(cfg, 40))
            engine.force_full_scan = full_scan
            digest = engine.enable_digest()
            events = []
            engine.delivery_hook = lambda cell, t: events.append(
                (t, cell.flow_id, cell.seq, cell.src, cell.dst)
            )
            engine.run(duration=400)
            return events, digest.hexdigest(), engine.metrics.cells_sent

        fast_events, fast_digest, fast_sent = run(False)
        ref_events, ref_digest, ref_sent = run(True)
        assert fast_events == ref_events
        assert fast_digest == ref_digest
        assert fast_sent == ref_sent
