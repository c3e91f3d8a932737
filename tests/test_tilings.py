"""Tiling counters against each other, closed forms, and the condensation
identity."""

from __future__ import annotations

from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lambdadet.condensation import numeric_pyramid
from lambdadet.errors import OrderExceeded, WidthExceeded
from lambdadet.matrices import diamond_even
from lambdadet.tilings import (
    SUB_DIAMOND_OFFSETS,
    KuoCheck,
    aztec_count_formula,
    aztec_region,
    count_tilings,
    diamond_window_region,
    edge_key,
    kuo_identity_check,
    matching_sum,
    matching_sum_brute,
    random_edge_weights,
    rectangle_region,
    region_edges,
    region_from_cells,
    square_region,
    sub_diamond_cells,
    tfk_count,
    tip_edges,
    trimmed_aztec_square,
)

SQUARE_COUNTS = {2: 2, 4: 36, 6: 6728, 8: 12988816}


class TestRegions:
    def test_edge_key_is_order_free(self):
        assert edge_key((2, 3), (2, 4)) == edge_key((2, 4), (2, 3)) == ((2, 3), (2, 4))

    def test_rectangle_and_square_sizes(self):
        assert len(rectangle_region(3, 5)) == 15
        assert square_region(4) == rectangle_region(4, 4)

    def test_aztec_region_sizes(self):
        assert aztec_region(0) == frozenset()
        for n in range(1, 6):
            assert len(aztec_region(n)) == 2 * n * (n + 1)

    def test_aztec_region_order_one_shape(self):
        assert aztec_region(1) == region_from_cells([(1, 1), (1, 2), (2, 1), (2, 2)])

    def test_region_edges_on_a_square(self):
        edges = region_edges(square_region(2))
        assert len(edges) == 4
        assert all(edge == edge_key(*edge) for edge in edges)


class TestCounting:
    def test_small_fixed_counts(self):
        assert count_tilings(frozenset()) == 1
        assert count_tilings(region_from_cells([(1, 1)])) == 0
        assert count_tilings(rectangle_region(1, 2)) == 1
        assert count_tilings(rectangle_region(2, 3)) == 3
        assert count_tilings(square_region(3)) == 0

    def test_square_counts(self):
        for size, expected in SQUARE_COUNTS.items():
            assert count_tilings(square_region(size)) == expected

    def test_larger_squares_pin_the_sweep(self):
        assert count_tilings(square_region(10)) == 258584046368
        assert count_tilings(square_region(12)) == 53060477521960000

    def test_aztec_counts_match_formula(self):
        for n in range(0, 6):
            assert count_tilings(aztec_region(n)) == aztec_count_formula(n)

    def test_long_strip_is_a_fibonacci_number(self):
        assert count_tilings(rectangle_region(30, 2)) == 1346269

    def test_sweep_matches_brute_on_random_ragged_regions(self):
        rng = Random(408)
        box = [(r, c) for r in range(1, 5) for c in range(1, 6)]
        for _ in range(30):
            cells = frozenset(cell for cell in box if rng.random() < 0.7)
            assert matching_sum(cells) == matching_sum_brute(cells)

    def test_weighted_sweep_matches_brute(self):
        rng = Random(409)
        cells = rectangle_region(3, 4)
        for _ in range(10):
            weights = {
                edge: Fraction(rng.randint(0, 6), rng.randint(1, 3))
                for edge in region_edges(cells)
            }
            assert matching_sum(cells, weights) == matching_sum_brute(cells, weights)

    def test_zero_weight_disables_an_edge(self):
        cells = square_region(2)
        weights = {edge_key((1, 1), (1, 2)): 0}
        assert matching_sum(cells, weights) == 1
        assert matching_sum(cells, {edge_key((1, 1), (2, 1)): Fraction(5, 2)}) == (
            1 + Fraction(5, 2)
        )

    @given(
        st.sets(
            st.tuples(st.integers(1, 3), st.integers(1, 4)), min_size=0, max_size=12
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_evaluators_always_agree(self, cells):
        region = frozenset(cells)
        assert matching_sum(region) == matching_sum_brute(region)


class TestWindowRegions:
    def test_trimmed_diamond_is_a_translated_square(self):
        for n in range(1, 5):
            shift = n - 1
            translated = frozenset(
                (r + shift, c + shift) for (r, c) in square_region(2 * n)
            )
            assert trimmed_aztec_square(n) == translated

    def test_trimmed_diamond_counts_match_squares(self):
        for n in range(1, 4):
            assert count_tilings(trimmed_aztec_square(n)) == SQUARE_COUNTS[2 * n]

    def test_corner_trimmed_square_fixture(self):
        corners = {(1, 1), (1, 2), (2, 1), (1, 3), (1, 4), (2, 4)}
        region = square_region(4) - corners
        assert count_tilings(region) == 6
        assert matching_sum_brute(region) == 6

    def test_window_regions_reproduce_order_two_pyramid(self):
        pyramid = numeric_pyramid(diamond_even(2), 1)
        for k in range(1, 5):
            span = 4 - k + 1
            for i in range(1, span + 1):
                for j in range(1, span + 1):
                    region = diamond_window_region(2, k, i, j)
                    expected = 0 if region is None else count_tilings(region)
                    assert pyramid.value(k, i, j) == expected

    def test_window_region_spot_checks_order_three(self):
        pyramid = numeric_pyramid(diamond_even(3), 1)
        for (k, i, j) in [(6, 1, 1), (5, 2, 2), (4, 1, 3), (3, 2, 1), (2, 5, 5)]:
            region = diamond_window_region(3, k, i, j)
            expected = 0 if region is None else count_tilings(region)
            assert pyramid.value(k, i, j) == expected

    def test_full_window_trims_to_the_square(self):
        assert diamond_window_region(2, 4, 1, 1) == trimmed_aztec_square(2)
        assert diamond_window_region(3, 6, 1, 1) == trimmed_aztec_square(3)

    def test_swallowed_window_returns_none(self):
        assert diamond_window_region(2, 1, 1, 1) is None
        assert diamond_window_region(3, 2, 1, 1) is None


class TestCondensationIdentity:
    def test_sub_diamonds_nest_in_the_parent(self):
        for n in (2, 3, 4):
            parent = aztec_region(n)
            for which in SUB_DIAMOND_OFFSETS:
                assert sub_diamond_cells(n, which) <= parent

    def test_tip_edges_are_graph_edges(self):
        for n in (2, 3):
            edges = set(region_edges(aztec_region(n)))
            assert set(tip_edges(n).values()) <= edges

    def test_identity_on_unweighted_diamonds(self):
        for n in range(2, 6):
            check = kuo_identity_check(n)
            assert check.holds
            assert check.lhs == aztec_count_formula(n) * aztec_count_formula(n - 2)

    def test_identity_on_random_weights(self):
        rng = Random(410)
        for n in (2, 3, 4):
            for _ in range(10):
                check = kuo_identity_check(n, random_edge_weights(n, rng))
                assert check.holds

    def test_identity_components_against_brute_force(self):
        rng = Random(411)
        weights = random_edge_weights(2, rng)
        for which in SUB_DIAMOND_OFFSETS:
            cells = sub_diamond_cells(2, which)
            assert matching_sum(cells, weights) == matching_sum_brute(cells, weights)

    def test_holds_flag_reports_disagreement(self):
        assert not KuoCheck(order=2, lhs=1, rhs=2).holds


class TestTrigonometricProduct:
    def test_rounds_to_exact_small_counts(self):
        for n, exact in ((1, 2), (2, 36), (3, 6728), (4, 12988816)):
            assert round(tfk_count(n)) == exact

    def test_relative_error_stays_tiny(self):
        for n, exact in ((5, 258584046368), (6, 53060477521960000)):
            assert abs(tfk_count(n) - exact) / exact < 1e-9


class TestGuards:
    def test_wide_region_is_refused_with_advice(self):
        with pytest.raises(WidthExceeded, match="transpose"):
            matching_sum(rectangle_region(2, 30))

    def test_brute_force_cell_cap(self):
        with pytest.raises(OrderExceeded):
            matching_sum_brute(aztec_region(6))

    def test_identity_needs_order_two(self):
        with pytest.raises(OrderExceeded):
            kuo_identity_check(1)
