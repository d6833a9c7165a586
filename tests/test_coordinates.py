"""Unit tests for the coordinate system."""

import pytest

from repro.core.coordinates import (
    CoordinateSystem,
    integer_root,
    is_perfect_power,
)


class TestIntegerRoot:
    def test_exact_square(self):
        assert integer_root(81, 2) == 9

    def test_exact_cube(self):
        assert integer_root(27, 3) == 3

    def test_h_one_returns_n(self):
        assert integer_root(17, 1) == 17

    def test_large_power(self):
        assert integer_root(10**12, 4) == 1000

    def test_non_power_raises(self):
        with pytest.raises(ValueError):
            integer_root(80, 2)

    def test_zero_raises(self):
        with pytest.raises(ValueError):
            integer_root(0, 2)

    def test_negative_h_raises(self):
        with pytest.raises(ValueError):
            integer_root(8, -1)

    def test_is_perfect_power(self):
        assert is_perfect_power(64, 3)
        assert not is_perfect_power(65, 3)


class TestConstruction:
    def test_basic(self):
        cs = CoordinateSystem(81, 2)
        assert cs.r == 9
        assert cs.n == 81
        assert cs.h == 2

    def test_h1_is_srrd(self):
        cs = CoordinateSystem(10, 1)
        assert cs.r == 10

    def test_radix_one_rejected(self):
        # 1**h == 1 node: meaningless network
        with pytest.raises(ValueError):
            CoordinateSystem(1, 2)

    def test_non_power_rejected(self):
        with pytest.raises(ValueError):
            CoordinateSystem(10, 2)

    def test_equality_and_hash(self):
        assert CoordinateSystem(16, 2) == CoordinateSystem(16, 2)
        assert CoordinateSystem(16, 2) != CoordinateSystem(16, 4)
        assert hash(CoordinateSystem(16, 2)) == hash(CoordinateSystem(16, 2))


class TestConversions:
    def test_roundtrip_all_nodes(self):
        cs = CoordinateSystem(27, 3)
        for node in cs.nodes():
            assert cs.node_id(cs.coords(node)) == node

    def test_coords_match_base_r_digits(self):
        cs = CoordinateSystem(27, 3)
        # node 14 = 1*9 + 1*3 + 2 in base 3: digits (1, 1, 2)
        assert cs.coords(14) == (1, 1, 2)

    def test_single_coordinate_matches_tuple(self):
        cs = CoordinateSystem(64, 3)
        for node in (0, 17, 42, 63):
            full = cs.coords(node)
            for p in range(3):
                assert cs.coordinate(node, p) == full[p]

    def test_with_coordinate(self):
        cs = CoordinateSystem(16, 2)
        node = cs.node_id((1, 2))
        moved = cs.with_coordinate(node, 0, 3)
        assert cs.coords(moved) == (3, 2)

    def test_with_coordinate_identity(self):
        cs = CoordinateSystem(16, 2)
        node = cs.node_id((2, 3))
        assert cs.with_coordinate(node, 1, 3) == node

    def test_out_of_range_node(self):
        cs = CoordinateSystem(16, 2)
        with pytest.raises(ValueError):
            cs.coords(16)
        with pytest.raises(ValueError):
            cs.coords(-1)

    def test_bad_coordinate_value(self):
        cs = CoordinateSystem(16, 2)
        with pytest.raises(ValueError):
            cs.node_id((4, 0))
        with pytest.raises(ValueError):
            cs.with_coordinate(0, 0, 4)

    def test_wrong_arity(self):
        cs = CoordinateSystem(16, 2)
        with pytest.raises(ValueError):
            cs.node_id((1, 2, 3))


class TestNeighborhood:
    def test_phase_neighbors_count(self):
        cs = CoordinateSystem(81, 2)
        for p in range(2):
            assert len(cs.phase_neighbors(40, p)) == 8

    def test_phase_neighbors_differ_only_in_p(self):
        cs = CoordinateSystem(27, 3)
        node = 13
        for p in range(3):
            for nb in cs.phase_neighbors(node, p):
                diff = [
                    q for q in range(3)
                    if cs.coordinate(node, q) != cs.coordinate(nb, q)
                ]
                assert diff == [p]

    def test_phase_group_includes_self(self):
        cs = CoordinateSystem(16, 2)
        group = cs.phase_group(5, 0)
        assert 5 in group
        assert len(group) == 4

    def test_all_neighbors_count(self):
        cs = CoordinateSystem(16, 2)
        assert len(cs.all_neighbors(0)) == 2 * 3

    def test_all_neighbors_distinct(self):
        cs = CoordinateSystem(64, 2)
        nbs = cs.all_neighbors(10)
        assert len(set(nbs)) == len(nbs)

    def test_neighbor_at_offset_wraps(self):
        cs = CoordinateSystem(16, 2)
        node = cs.node_id((3, 0))
        nb = cs.neighbor_at_offset(node, 0, 1)
        assert cs.coords(nb) == (0, 0)

    def test_neighbor_offset_roundtrip(self):
        cs = CoordinateSystem(16, 2)
        for p in range(2):
            for k in range(1, 4):
                nb = cs.neighbor_at_offset(6, p, k)
                assert cs.offset_to(6, p, nb) == k

    def test_offset_zero_rejected(self):
        cs = CoordinateSystem(16, 2)
        with pytest.raises(ValueError):
            cs.neighbor_at_offset(0, 0, 0)

    def test_offset_to_non_neighbor_raises(self):
        cs = CoordinateSystem(16, 2)
        # node differing in both coordinates is not a phase neighbour
        a = cs.node_id((0, 0))
        b = cs.node_id((1, 1))
        with pytest.raises(ValueError):
            cs.offset_to(a, 0, b)

    def test_neighborhood_is_symmetric(self):
        cs = CoordinateSystem(27, 3)
        for node in (0, 13, 26):
            for nb in cs.all_neighbors(node):
                assert node in cs.all_neighbors(nb)

    def test_neighbor_table_is_the_per_entry_lookup(self):
        """Every feasible (n, h) with n <= 1296: the digit-arithmetic
        table is ``neighbor_at_offset`` entry by entry, in link order —
        at every node for h >= 2; for h = 1, where a table is the other
        n - 1 nodes, at a middle one (its table runs up, then wraps)."""
        for h in range(1, 11):
            for r in range(2, 1297):
                n = r ** h
                if n > 1296:
                    break
                cs = CoordinateSystem(n, h)
                nodes = range(n) if h > 1 else (n // 2,)
                for node in nodes:
                    expected = tuple(
                        cs.neighbor_at_offset(node, p, k)
                        for p in range(h) for k in range(1, r))
                    assert cs.neighbor_table(node) == expected, (n, h, node)


class TestDistance:
    def test_distance_zero_to_self(self):
        cs = CoordinateSystem(16, 2)
        assert cs.distance(7, 7) == 0

    def test_distance_counts_mismatches(self):
        cs = CoordinateSystem(27, 3)
        a = cs.node_id((0, 1, 2))
        b = cs.node_id((0, 2, 1))
        assert cs.distance(a, b) == 2
        assert cs.mismatched_phases(a, b) == [1, 2]

    def test_max_distance_is_h(self):
        cs = CoordinateSystem(16, 4)
        a = cs.node_id((0, 0, 0, 0))
        b = cs.node_id((1, 1, 1, 1))
        assert cs.distance(a, b) == 4


class TestLabels:
    def test_paper_style_labels(self):
        cs = CoordinateSystem(9, 2)
        assert cs.label(0) == "AA"
        assert cs.label(8) == "CC"

    def test_numeric_fallback_for_large_radix(self):
        cs = CoordinateSystem(30, 1)
        assert cs.label(29) == "29"
