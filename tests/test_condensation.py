"""Condensation engines against fixtures, each other, and classical
determinants."""

from __future__ import annotations

from fractions import Fraction
from random import Random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lambdadet.asm import lambda_det_sum
from lambdadet.condensation import (
    lambda_det,
    numeric_pyramid,
    perturbed_det,
    symbolic_pyramid,
)
from lambdadet.errors import (
    CondensationBreakdown,
    IndeterminateForm,
    PoleAtZero,
    SizeMismatch,
    ZeroMinor,
)
from lambdadet.laurent import ONE_PLUS_LAM, LaurentPoly
from lambdadet.matrices import (
    PolyMatrix,
    center_perturbed,
    diamond_even,
    diamond_odd,
    ones_matrix,
    random_monomial_matrix,
)


def gauss_det(rows: list[list[Fraction]]) -> Fraction:
    """Plain fraction Gaussian elimination, written independently."""
    n = len(rows)
    work = [[Fraction(v) for v in row] for row in rows]
    sign = 1
    for col in range(n):
        pivot = next((r for r in range(col, n) if work[r][col]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            work[col], work[pivot] = work[pivot], work[col]
            sign = -sign
        for r in range(col + 1, n):
            factor = work[r][col] / work[col][col]
            for c in range(col, n):
                work[r][c] -= factor * work[col][c]
    result = Fraction(sign)
    for i in range(n):
        result *= work[i][i]
    return result


rational_entries = st.fractions(min_value=-5, max_value=5, max_denominator=4)


def square_matrix(n: int):
    return st.lists(
        st.lists(rational_entries, min_size=n, max_size=n), min_size=n, max_size=n
    )


class TestFixtures:
    def test_two_by_two_rule(self):
        matrix = PolyMatrix.from_rows([[2, 3], [5, 7]])
        assert lambda_det(matrix) == LaurentPoly([(14, 0, 0), (15, 1, 0)])

    def test_all_ones_closed_form(self):
        for n in range(2, 7):
            assert lambda_det(ones_matrix(n)) == ONE_PLUS_LAM ** (n * (n - 1) // 2)

    def test_four_by_four_diamond_layers(self):
        pyramid = numeric_pyramid(diamond_even(2), 1)
        assert pyramid.layer(2) == ((1, 2, 1), (2, 2, 2), (1, 2, 1))
        assert pyramid.layer(3) == ((6, 6), (6, 6))
        assert pyramid.layer(4) == ((36,),)
        assert pyramid.top == 36
        assert pyramid.value(3, 2, 1) == 6

    def test_eight_by_eight_diamond_headline(self):
        result = perturbed_det(diamond_even(4))
        assert result.was_perturbed
        assert result.det.term_count == 191
        assert result.limit.term_count == 17
        assert result.limit.eval_at(1) == 12988816

    def test_perturbed_center_family_through_condensation(self):
        for c in (1, 2, 3):
            result = perturbed_det(center_perturbed(c))
            assert not result.was_perturbed
            assert result.det == lambda_det_sum(center_perturbed(c))
            assert result.limit == LaurentPoly([(c, 1, 0), (c, 2, 0)])


class TestEngineAgreement:
    def test_summation_formula_on_random_monomial_matrices(self):
        rng = Random(404)
        for _ in range(40):
            matrix = random_monomial_matrix(rng.randint(2, 4), rng)
            assert lambda_det(matrix) == lambda_det_sum(matrix)

    def test_numeric_engine_matches_symbolic_evaluation(self):
        rng = Random(405)
        for _ in range(20):
            n = rng.randint(2, 4)
            matrix = PolyMatrix.from_rows(
                [[rng.randint(1, 9) for _ in range(n)] for _ in range(n)]
            )
            top = symbolic_pyramid(matrix).top
            for lam in (0, 1, 2, Fraction(1, 2), -3):
                assert numeric_pyramid(matrix, lam).top == top.eval_at(lam)

    @given(square_matrix(3))
    @settings(max_examples=60, deadline=None)
    def test_classical_determinant_at_minus_one(self, rows):
        try:
            top = numeric_pyramid(PolyMatrix.from_rows(rows), -1).top
        except (IndeterminateForm, CondensationBreakdown):
            assume(False)
        assert top == gauss_det(rows)

    def test_classical_determinant_at_minus_one_larger(self):
        rng = Random(406)
        hits = 0
        while hits < 25:
            n = rng.randint(3, 5)
            rows = [
                [Fraction(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(n)]
                for _ in range(n)
            ]
            try:
                top = numeric_pyramid(PolyMatrix.from_rows(rows), -1).top
            except (IndeterminateForm, CondensationBreakdown):
                continue
            assert top == gauss_det(rows)
            hits += 1


class TestTransposeInvariance:
    def test_symbolic_pyramid_of_transpose_is_reflected(self):
        rng = Random(407)
        for _ in range(10):
            n = rng.randint(2, 4)
            matrix = random_monomial_matrix(n, rng)
            pyramid = symbolic_pyramid(matrix)
            mirrored = symbolic_pyramid(matrix.transpose())
            for k in range(1, n + 1):
                span = n - k + 1
                for i in range(1, span + 1):
                    for j in range(1, span + 1):
                        assert pyramid.value(k, i, j) == mirrored.value(k, j, i)

    def test_symmetric_input_gives_symmetric_pyramid(self):
        pyramid = symbolic_pyramid(diamond_even(3).perturb_zeros())
        for k in range(1, 7):
            span = 6 - k + 1
            for i in range(1, span + 1):
                for j in range(i, span + 1):
                    assert pyramid.value(k, i, j) == pyramid.value(k, j, i)


class TestPerturbationPipeline:
    def test_polynomiality_of_diamond_pyramids(self):
        for n in (1, 2, 3):
            pyramid = symbolic_pyramid(diamond_even(n).perturb_zeros())
            for layer in pyramid.layers:
                for row in layer:
                    for value in row:
                        assert value.min_t_exp() >= 0

    def test_unperturbed_matrix_passes_through(self):
        result = perturbed_det(ones_matrix(3))
        assert not result.was_perturbed
        assert result.det == result.limit == ONE_PLUS_LAM**3

    def test_pole_is_reported(self):
        matrix = PolyMatrix.from_rows(
            [["1*t^1", 1, 1], [1, "1*t^-4", 1], [1, 1, "1*t^1"]]
        )
        with pytest.raises(PoleAtZero):
            perturbed_det(matrix)


class TestNumericZeroOverZero:
    """A 0/0 in a matrix with zeros reruns the perturbed recurrence at the
    given l; the oracle is the bivariate pipeline evaluated after t -> 0."""

    def test_entries_equal_the_symbolic_limit(self):
        for matrix in [diamond_even(n) for n in (1, 2, 3, 4)] + [
            diamond_odd(n) for n in (1, 2, 3)
        ]:
            symbolic = symbolic_pyramid(matrix.perturb_zeros())
            for lam in (1, -2, 2, Fraction(1, 2)):
                numeric = numeric_pyramid(matrix, lam)
                for k in range(1, matrix.size + 1):
                    span = matrix.size - k + 1
                    for i in range(1, span + 1):
                        for j in range(1, span + 1):
                            expected = symbolic.value(k, i, j).limit_t0().eval_at(lam)
                            assert numeric.value(k, i, j) == expected

    def test_exact_limits_at_minus_two(self):
        assert numeric_pyramid(diamond_even(4), -2).top == -1313216
        assert numeric_pyramid(diamond_odd(3), -2).top == 2624

    def test_unresolved_indeterminate_step_raises(self):
        # At l = -1 a divisor of the perturbed rerun vanishes for every t.
        with pytest.raises(IndeterminateForm, match="det --eval"):
            numeric_pyramid(diamond_even(2), -1)

    def test_pole_propagates(self):
        matrix = PolyMatrix.from_rows(
            [[2, 0, -1, 0], [1, 0, 0, 0], [2, -1, 0, 1], [2, 0, 1, 2]]
        )
        with pytest.raises(PoleAtZero):
            perturbed_det(matrix)
        with pytest.raises(PoleAtZero):
            numeric_pyramid(matrix, 1)


class TestFailureModes:
    def test_zero_minor_stops_symbolic_condensation(self):
        # The order-3 diamond happens to keep its zeros off the divisor
        # positions; order 4 is the first where condensation hits one.
        assert symbolic_pyramid(diamond_even(3)).top.eval_at(1) == 6728
        with pytest.raises(ZeroMinor):
            symbolic_pyramid(diamond_even(4))

    def test_numeric_indeterminate_and_convention(self):
        with pytest.raises(IndeterminateForm):
            numeric_pyramid(ones_matrix(4), -1)

    def test_numeric_breakdown_on_nonzero_over_zero(self):
        matrix = PolyMatrix.from_rows(
            [[1, 1, 1], [1, 0, 1], [1, 1, 2]]
        )
        with pytest.raises(CondensationBreakdown):
            numeric_pyramid(matrix, 1)

    def test_numeric_needs_constant_entries(self):
        with pytest.raises(SizeMismatch):
            numeric_pyramid(center_perturbed(1), 1)

    def test_minus_one_on_symbolic_all_ones(self):
        assert lambda_det(ones_matrix(4)).eval_at(-1) == 0
