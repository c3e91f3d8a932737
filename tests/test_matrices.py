"""Matrix type behavior and the stock matrix families."""

from __future__ import annotations

from fractions import Fraction
from random import Random

import pytest

from lambdadet.errors import SizeMismatch
from lambdadet.laurent import ONE, ZERO, LaurentPoly, T_VAR
from lambdadet.matrices import (
    PolyMatrix,
    center_perturbed,
    diamond_even,
    diamond_odd,
    diamond_pattern,
    ones_matrix,
    random_monomial_matrix,
)
from lambdadet.tilings import diamond_cells


class TestPolyMatrix:
    def test_from_rows_coerces_mixed_entries(self):
        matrix = PolyMatrix.from_rows([[1, "1*t^2"], [Fraction(1, 2), 0]])
        assert matrix.entry(1, 2) == T_VAR**2
        assert matrix.entry(2, 1) == LaurentPoly.const(Fraction(1, 2))
        assert matrix.entry(2, 2).is_zero()

    def test_rejects_non_square(self):
        with pytest.raises(SizeMismatch):
            PolyMatrix.from_rows([[1, 2], [3]])
        with pytest.raises(SizeMismatch):
            PolyMatrix.from_rows([])

    def test_indexing_is_one_based_and_checked(self):
        matrix = ones_matrix(2)
        assert matrix.entry(1, 1) == LaurentPoly.const(1)
        for bad in ((0, 1), (1, 0), (3, 1), (1, 3)):
            with pytest.raises(SizeMismatch):
                matrix.entry(*bad)

    def test_json_round_trip_preserves_polynomials(self):
        matrix = PolyMatrix.from_rows([[1, "3/2*l^1"], ["1*t^-1", 4]])
        again = PolyMatrix.from_json(matrix.to_json())
        assert again == matrix

    def test_json_size_field_is_validated(self):
        with pytest.raises(SizeMismatch):
            PolyMatrix.from_json('{"size": 3, "entries": [[1, 2], [3, 4]]}')
        with pytest.raises(SizeMismatch):
            PolyMatrix.from_json('{"entries": 7}')

    def test_json_document_must_be_an_object(self):
        for text in ("[1]", "null", "7", '"entries"'):
            with pytest.raises(SizeMismatch, match="must be an object"):
                PolyMatrix.from_json(text)

    def test_transpose_and_symmetry(self):
        matrix = PolyMatrix.from_rows([[1, 2], [3, 4]])
        assert matrix.transpose().entry(1, 2) == LaurentPoly.const(3)
        assert not matrix.is_symmetric()
        assert diamond_even(3).is_symmetric()

    def test_perturb_zeros(self):
        matrix = diamond_even(2)
        assert matrix.has_zero_entry()
        perturbed = matrix.perturb_zeros()
        assert not perturbed.has_zero_entry()
        assert perturbed.entry(1, 1) == T_VAR
        assert perturbed.entry(1, 2) == LaurentPoly.const(1)

    def test_constant_entries(self):
        assert ones_matrix(2).constant_entries() == [[1, 1], [1, 1]]
        with pytest.raises(SizeMismatch):
            center_perturbed(1).constant_entries()


class TestFamilies:
    def test_even_diamond_shapes(self):
        for n, zeros_per_corner in ((1, 0), (2, 1), (3, 3), (4, 6)):
            matrix = diamond_even(n)
            assert matrix.size == 2 * n
            zero_count = sum(
                1 for row in matrix.rows for cell in row if cell.is_zero()
            )
            assert zero_count == 4 * zeros_per_corner
            assert matrix.is_symmetric()

    def test_odd_diamond_shapes(self):
        for n in range(4):
            matrix = diamond_odd(n)
            assert matrix.size == 2 * n + 1
            ones = sum(1 for row in matrix.rows for cell in row if not cell.is_zero())
            assert ones == 2 * n * (n + 1) + 1

    def test_diamond_pattern_marks_the_diamond_cells(self):
        for size in range(1, 10):
            matrix = diamond_pattern(size)
            ones = {
                (i + 1, j + 1)
                for i, row in enumerate(matrix.rows)
                for j, cell in enumerate(row)
                if cell == ONE
            }
            assert ones == diamond_cells(size)
            assert all(cell in (ONE, ZERO) for row in matrix.rows for cell in row)
        for size in (0, -1):
            with pytest.raises(SizeMismatch):
                diamond_pattern(size)

    def test_even_diamond_rows_match_band_pattern(self):
        rows = [
            [0 if cell.is_zero() else 1 for cell in row]
            for row in diamond_even(2).rows
        ]
        assert rows == [[0, 1, 1, 0], [1, 1, 1, 1], [1, 1, 1, 1], [0, 1, 1, 0]]

    def test_center_perturbed_entries(self):
        matrix = center_perturbed(Fraction(3, 2))
        assert matrix.entry(1, 1) == T_VAR
        center = matrix.entry(2, 2).as_monomial()
        assert center == (Fraction(2, 3), 0, 4)
        with pytest.raises(SizeMismatch):
            center_perturbed(0)

    def test_random_monomial_matrix_is_reproducible(self):
        first = random_monomial_matrix(4, Random(11))
        second = random_monomial_matrix(4, Random(11))
        assert first == second
        for row in first.rows:
            for cell in row:
                coeff, l_exp, t_exp = cell.as_monomial()
                assert coeff >= 1 and l_exp == 0 and t_exp >= 0
