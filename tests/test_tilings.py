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
    diamond_cells,
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

    def test_diamond_cells_follow_both_parity_forms(self):
        for size in range(1, 20):
            n, odd = divmod(size, 2)
            span = range(1, size + 1)
            if odd:
                expected = {
                    (r, c) for r in span for c in span
                    if abs(r - n - 1) + abs(c - n - 1) <= n
                }
            else:
                expected = {
                    (r, c) for r in span for c in span
                    if abs(2 * r - 2 * n - 1) + abs(2 * c - 2 * n - 1) <= 2 * n
                }
            assert diamond_cells(size) == expected
            if not odd:
                assert aztec_region(n) == expected
        assert diamond_cells(0) == diamond_cells(-3) == aztec_region(-1) == frozenset()

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


def asymmetric_weights(cells, rng):
    """A distinct rational weight per edge, zeros and negatives included."""
    return {
        edge: Fraction(rng.randint(-4, 7), rng.randint(1, 9))
        for edge in region_edges(cells)
    }


class TestIntegerStateSweep:
    """The sweep clears denominators and carries int states; brute force
    on the same weights is the oracle."""

    @pytest.mark.parametrize("height, width", [(7, 3), (3, 7), (5, 4), (4, 5)])
    def test_ragged_weighted_regions_match_brute(self, height, width):
        rng = Random(412 + height)
        box_edges = region_edges(rectangle_region(height, width))
        nonzero = 0
        for _ in range(12):
            # A union of disjoint random dominoes: ragged, but tileable.
            rng.shuffle(box_edges)
            cells: set = set()
            for a, b in box_edges:
                if a not in cells and b not in cells and rng.random() < 0.8:
                    cells |= {a, b}
            cells = frozenset(cells)
            weights = asymmetric_weights(cells, rng)
            value = matching_sum(cells, weights)
            assert value == matching_sum_brute(cells, weights)
            nonzero += value != 0
        assert nonzero >= 6

    def test_weighted_aztec_five_at_the_brute_cap(self):
        rng = Random(413)
        cells = aztec_region(5)
        assert len(cells) == 60
        weights = {
            edge: Fraction(rng.choice([-3, -1, 1, 2, 5]), rng.randint(1, 6))
            for edge in region_edges(cells)
        }
        value = matching_sum(cells, weights)
        assert value == matching_sum_brute(cells, weights)
        assert isinstance(value, Fraction) and value.denominator > 1

    def test_edges_outside_the_region_are_ignored(self):
        cells = rectangle_region(4, 3)
        weights = asymmetric_weights(cells, Random(414))
        padded = dict(weights)
        padded[edge_key((5, 1), (5, 2))] = Fraction(1, 10**40 + 7)
        padded[edge_key((1, 3), (1, 4))] = Fraction(3, 2**61 - 1)
        padded[edge_key((4, 3), (5, 3))] = Fraction(-7, 10**30)
        assert matching_sum(cells, padded) == matching_sum(cells, weights)
        assert matching_sum(cells, padded) == matching_sum_brute(cells, weights)

    def test_integral_results_come_back_as_ints(self):
        cells = square_region(2)
        value = matching_sum(cells, {edge_key((1, 1), (1, 2)): Fraction(1, 2)})
        assert value == Fraction(3, 2)
        halves = {edge: Fraction(1, 2) for edge in region_edges(cells)}
        value = matching_sum(cells, halves)
        assert value == Fraction(1, 2) and isinstance(value, Fraction)
        reciprocal = {
            edge_key((1, 1), (1, 2)): Fraction(1, 2),
            edge_key((2, 1), (2, 2)): Fraction(2),
            edge_key((1, 1), (2, 1)): Fraction(3, 2),
            edge_key((1, 2), (2, 2)): Fraction(2, 3),
        }
        value = matching_sum(cells, reciprocal)
        assert value == 2 and type(value) is int

    def test_odd_regions_sum_to_zero(self):
        rng = Random(415)
        for cells in (rectangle_region(3, 3), aztec_region(3) - {(1, 3)}):
            assert len(cells) % 2 == 1
            weights = asymmetric_weights(cells, rng)
            assert matching_sum(cells, weights) == 0
            assert matching_sum(cells) == 0

    @given(
        st.sets(
            st.tuples(st.integers(1, 4), st.integers(1, 4)), min_size=0, max_size=12
        ),
        st.fractions(min_value=-4, max_value=4, max_denominator=7),
        st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_scaling_every_weight_scales_the_sum(self, cells, factor, data):
        region = frozenset(cells)
        weights = {
            edge: data.draw(st.fractions(min_value=-3, max_value=3, max_denominator=5))
            for edge in region_edges(region)
        }
        scaled = {edge: factor * w for edge, w in weights.items()}
        expected = factor ** (len(region) // 2) * matching_sum_brute(region, weights)
        assert matching_sum(region, scaled) == expected
        assert matching_sum(region, weights) == matching_sum_brute(region, weights)


class TestWindowRegions:
    def test_trimmed_diamond_is_a_translated_square(self):
        for n in range(1, 5):
            shift = n - 1
            translated = frozenset(
                (r + shift, c + shift) for (r, c) in square_region(2 * n)
            )
            assert diamond_window_region(n, 2 * n, 1, 1) == translated

    def test_trimmed_diamond_counts_match_squares(self):
        for n in range(1, 4):
            region = diamond_window_region(n, 2 * n, 1, 1)
            assert count_tilings(region) == SQUARE_COUNTS[2 * n]

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
        for n in (2, 3):
            shift = n - 1
            translated = frozenset(
                (r + shift, c + shift) for (r, c) in square_region(2 * n)
            )
            assert diamond_window_region(n, 2 * n, 1, 1) == translated

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
    def test_wide_region_is_swept_transposed(self):
        assert matching_sum(rectangle_region(2, 30)) == 1346269

    def test_region_wide_both_ways_is_refused(self):
        with pytest.raises(WidthExceeded, match="shorter side"):
            matching_sum(square_region(25))

    def test_brute_force_cell_cap(self):
        with pytest.raises(OrderExceeded):
            matching_sum_brute(aztec_region(6))

    def test_identity_needs_order_two(self):
        with pytest.raises(OrderExceeded):
            kuo_identity_check(1)
