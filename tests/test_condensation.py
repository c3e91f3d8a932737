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
    _D4,
    _condense,
    _symmetries,
    lambda_det,
    numeric_pyramid,
    perturbed_det,
    symbolic_pyramid,
)
from lambdadet.errors import (
    IndeterminateForm,
    InexactDivision,
    PoleAtZero,
    SizeMismatch,
    ZeroMinor,
)
from lambdadet.laurent import LAM, ONE, ONE_PLUS_LAM, LaurentPoly
from lambdadet.matrices import (
    PolyMatrix,
    center_perturbed,
    diamond_even,
    diamond_odd,
    ones_matrix,
    random_monomial_matrix,
)


def half_turn_fixes(matrix: PolyMatrix) -> bool:
    """Whether condensation finds matrix fixed by the half-turn."""
    return _D4[2] in _symmetries(matrix, ONE)


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


def plain_condensation(rows: list[list[Fraction]], lam: Fraction) -> list[list[list[Fraction]]]:
    """Fraction condensation with no zero handling, written independently:
    the layers, or ZeroDivisionError(numerator, k, i, j) at the first zero
    divisor, met while condensing the k-by-k window at (i, j)."""
    layers = [[[Fraction(v) for v in row] for row in rows]]
    for k in range(2, len(rows) + 1):
        up, span = layers[-1], len(rows) - k + 1
        layer = []
        for i in range(span):
            layer.append([])
            for j in range(span):
                num = up[i][j] * up[i + 1][j + 1] + lam * up[i][j + 1] * up[i + 1][j]
                den = layers[-2][i + 1][j + 1] if k > 2 else 1
                if den == 0:
                    raise ZeroDivisionError(num, k, i + 1, j + 1)
                layer[i].append(num / den)
        layers.append(layer)
    return layers


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
        except (IndeterminateForm, PoleAtZero):
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
            except (IndeterminateForm, PoleAtZero):
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
            mirrored = symbolic_pyramid(PolyMatrix(tuple(zip(*matrix.rows))))
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


class TestHalfTurnInvariance:
    def test_symbolic_pyramid_of_half_turn_is_turned(self):
        # Neither matrix is symmetric or centrosymmetric, so both pyramids
        # are computed window by window, with no shortcut.
        rng = Random(417)
        for n in (3, 4, 5, 6):
            matrix = mixed_monomial_matrix(n, rng)
            turned = PolyMatrix(tuple(row[::-1] for row in matrix.rows[::-1]))
            for m in (matrix, turned):
                assert not m.is_symmetric() and not half_turn_fixes(m)
            pyramid = symbolic_pyramid(matrix)
            turned_pyramid = symbolic_pyramid(turned)
            for k in range(1, n + 1):
                span = n - k + 1
                for i in range(1, span + 1):
                    for j in range(1, span + 1):
                        assert turned_pyramid.value(k, i, j) == pyramid.value(
                            k, span + 1 - i, span + 1 - j
                        )


def count_divisions(monkeypatch, run) -> int:
    calls = []
    exact_div = LaurentPoly.exact_div

    def counting(self, other):
        calls.append(None)
        return exact_div(self, other)

    monkeypatch.setattr(LaurentPoly, "exact_div", counting)
    try:
        run()
    finally:
        monkeypatch.undo()
    return len(calls)


def dihedral_orbits(s: int) -> int:
    """Orbits of the cells of an s-by-s grid under the dihedral group of the
    square, by Burnside's lemma: of its eight elements the identity fixes
    s^2 cells, and for even s only the two diagonal mirrors fix any (s
    each); for odd s the three turns also fix the centre and the two
    middle-line mirrors fix s cells each."""
    if s % 2 == 0:
        return (s * s + 2 * s) // 8
    return (s * s + 4 * s + 3) // 8


class TestOrbitShortcut:
    """Each window is computed once per orbit of the matrix's symmetries."""

    def test_diamond_divides_once_per_orbit(self, monkeypatch):
        # Layers 3-2n of a 2n-by-2n diamond are s-by-s grids, s = 2n-2..1.
        # The diamond is fixed by every symmetry of the square and its
        # entries hold no l, so each layer divides once per orbit of the
        # whole dihedral group: 40 and 70 divisions at orders 5 and 6,
        # where transpose, half-turn and anti-transpose alone left 70 and
        # 125.
        for order, divisions in ((5, 40), (6, 70)):
            matrix = diamond_even(order).perturb_zeros()
            assert matrix.is_symmetric() and half_turn_fixes(matrix)
            assert sum(dihedral_orbits(s) for s in range(1, 2 * order - 1)) == divisions
            assert count_divisions(monkeypatch, lambda: symbolic_pyramid(matrix)) == divisions

    def test_l_entries_keep_the_even_subgroup_count(self, monkeypatch):
        # l-reversal needs entries free of l.  With l in border entries a
        # row-mirror matrix divides at all s^2 windows of an s-by-s grid,
        # not once per pair of mirrored rows, s * ceil(s / 2); and a matrix
        # fixed by the whole group divides once per orbit of its even
        # half (transpose and half-turn), (s^2 + 2s + s % 2) / 4, not once
        # per orbit of the whole group.
        rng = Random(2401)
        cases = [(6, [ROW_REVERSAL], lambda s: s * s, lambda s: s * ((s + 1) // 2)),
                 (8, [TRANSPOSE, QUARTER_TURN], lambda s: (s * s + 2 * s + s % 2) // 4,
                  dihedral_orbits)]
        for n, moves, with_l, without_l in cases:
            for l_border, orbits in ((True, with_l), (False, without_l)):
                while True:
                    matrix = mixed_monomial_matrix(n, rng, moves, l_border)
                    if l_border == any(cell.max_l_exp() for row in matrix.rows for cell in row):
                        break
                expected = sum(orbits(s) for s in range(1, n - 1))
                assert count_divisions(monkeypatch, lambda: symbolic_pyramid(matrix)) == expected

    def test_matrix_without_symmetry_divides_at_every_window(self, monkeypatch):
        matrix = random_monomial_matrix(7, Random(8))
        assert count_divisions(monkeypatch, lambda: lambda_det(matrix)) == 55

    def test_zero_divisor_off_the_centre_is_met_first_in_reading_order(self):
        # The 2-by-2 window at (2, 3) is [[l, 1], [-1, 1]], whose
        # lambda-determinant l - l is identically zero; its half-turn, the
        # window at (4, 3), is zero too.  The 4-by-4 windows at (1, 2) and
        # (3, 2) divide by them, and (1, 2) comes first in reading order, as
        # in a scan with no shortcut: changing entry (1, 1), which no
        # divisor of layers 3-4 contains, leaves a matrix with no symmetry
        # that fails at the same window.
        l = LAM
        rows = [
            [2, 3, 5, 7, 11, 13],
            [17, 19, l, 1, 23, 29],
            [31, 37, -1, 1, 41, 43],
            [43, 41, 1, -1, 37, 31],
            [29, 23, 1, l, 19, 17],
            [13, 11, 7, 5, 3, 2],
        ]
        matrix = PolyMatrix.from_rows(rows)
        assert half_turn_fixes(matrix) and not matrix.is_symmetric()
        broken = PolyMatrix.from_rows([[4] + rows[0][1:]] + rows[1:])
        assert not half_turn_fixes(broken)
        for m in (matrix, broken):
            with pytest.raises(ZeroMinor, match=r"2-by-2 window at \(2, 3\)") as caught:
                symbolic_pyramid(m)
            assert caught.value.window == (2, 2, 3)

    def test_first_zero_divisor_matches_plain_condensation(self):
        # Centrosymmetric-only integer matrices: the first zero divisor in
        # reading order is the independent Fraction scan's, most of them
        # off the centre; the rest agree at l = 7919/104729.
        rng = Random(811)
        lam = Fraction(7919, 104729)
        failed = off_centre = agreed = 0
        for _ in range(40):
            n = rng.choice((5, 6))
            rows = [[rng.choice((0, 0, 1, -1, 2, 3)) for _ in range(n)] for _ in range(n)]
            matrix = symmetrized(rows, [HALF_TURN])
            if matrix.is_symmetric():
                continue
            rows = matrix.constant_entries()
            try:
                top = plain_condensation(rows, lam)[-1][0][0]
            except ZeroDivisionError as exc:
                _numerator, k, i, j = exc.args
                with pytest.raises(ZeroMinor) as caught:
                    symbolic_pyramid(matrix)
                assert caught.value.window == (k - 2, i + 1, j + 1)
                failed += 1
                divisor_span = matrix.size - k + 3
                off_centre += 2 * (i + 1) != divisor_span + 1 or 2 * (j + 1) != divisor_span + 1
            else:
                assert symbolic_pyramid(matrix).top.eval_at(lam) == top
                agreed += 1
        assert failed and off_centre and agreed


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
    """A matrix with zeros is condensed with its zeros perturbed to t at the
    given l and limited layer by layer; the oracle is the bivariate pipeline
    evaluated after t -> 0."""

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

    def test_agrees_with_plain_condensation(self):
        # Where plain Fraction condensation never divides by zero, the
        # perturbed pipeline gives its layers exactly.  Where it meets x/0,
        # that window's value keeps a pole in t, and every earlier layer has
        # a limit, so that window is the one reported.
        rng = Random(410)
        outcomes = {"layers": 0, "pole": 0, "0/0": 0}
        for _ in range(150):
            n = rng.randint(3, 5)
            rows = [[rng.choice((0, 0, 1, -1, 2, 3)) for _ in range(n)] for _ in range(n)]
            matrix = PolyMatrix.from_rows(rows)
            for lam in (1, -1, 2, -2, Fraction(1, 2)):
                try:
                    expected = plain_condensation(rows, Fraction(lam))
                except ZeroDivisionError as exc:
                    numerator, k, i, j = exc.args
                    if numerator == 0:
                        outcomes["0/0"] += 1
                        continue
                    outcomes["pole"] += 1
                    window = r"the %d-by-%d window at \(%d, %d\)" % (k, k, i, j)
                    with pytest.raises(PoleAtZero, match=window):
                        numeric_pyramid(matrix, lam)
                    continue
                outcomes["layers"] += 1
                pyramid = numeric_pyramid(matrix, lam)
                assert [[list(row) for row in layer] for layer in pyramid.layers] == expected
        assert min(outcomes.values()) > 0, outcomes

    def test_pole_before_a_later_zero_over_zero_is_reported(self):
        # Layer 4 divides by the 2-by-2 window at (3, 2), which is zero for
        # every t at l = -2, but layer 3 already keeps a pole at (1, 3).
        matrix = PolyMatrix.from_rows([
            [1, 2, 0, -1, 2], [0, 0, 3, 0, 3], [2, 2, 1, 1, 2],
            [-1, -1, -1, -1, -1], [-1, -1, 3, 2, 2],
        ])
        with pytest.raises(ZeroMinor) as caught:
            list(_condense(matrix.perturb_zeros(), LaurentPoly.const(-2)))
        assert caught.value.window == (2, 3, 2)
        pole = r"the 3-by-3 window at \(1, 3\) keeps t\^-1 at l = -2"
        with pytest.raises(PoleAtZero, match=pole):
            numeric_pyramid(matrix, -2)

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


# Generators of subgroups of the dihedral group of the square, as maps of
# the cells (i, j) of a grid whose last index is m.
def TRANSPOSE(i: int, j: int, m: int) -> tuple[int, int]:
    return j, i


def HALF_TURN(i: int, j: int, m: int) -> tuple[int, int]:
    return m - i, m - j


def ROW_REVERSAL(i: int, j: int, m: int) -> tuple[int, int]:
    return m - i, j


def QUARTER_TURN(i: int, j: int, m: int) -> tuple[int, int]:
    return j, m - i


def symmetrized(rows: list[list], moves) -> PolyMatrix:
    """The matrix whose (i, j) entry is rows' entry at the first cell of
    (i, j)'s orbit under the group that moves generate."""
    n = len(rows)

    def first(i: int, j: int) -> tuple[int, int]:
        cells = {(i, j)}
        while True:
            grown = cells | {move(a, b, n - 1) for a, b in cells for move in moves}
            if grown == cells:
                return min(cells)
            cells = grown

    return PolyMatrix.from_rows(
        [[rows[a][b] for a, b in (first(i, j) for j in range(n))] for i in range(n)]
    )


def mixed_monomial_matrix(n: int, rng: Random, moves=(), l_border: bool = True) -> PolyMatrix:
    """Monomials c*t^e with c a signed int (unit or not) or a Fraction.

    With l_border, entries on the outer border may also carry l: no window
    has them inside, so no ASM term inverts them.  The matrix is
    symmetrized under the group that moves generate.
    """

    def entry(i: int, j: int) -> LaurentPoly:
        sign = rng.choice((-1, 1))
        kind = rng.randrange(4)
        if kind == 0:
            coeff = sign
        elif kind == 1:
            coeff = Fraction(sign * rng.randint(1, 5), rng.randint(2, 3))
        else:
            coeff = sign * rng.randint(2, 6)
        border = i in (0, n - 1) or j in (0, n - 1)
        l_exp = rng.randint(1, 2) if l_border and border and rng.random() < 0.3 else 0
        return LaurentPoly.monomial(coeff, l_exp, rng.randint(-1, 2))

    rows = [[entry(i, j) for j in range(n)] for i in range(n)]
    return symmetrized(rows, moves)


def assert_windows_equal_the_asm_sum(matrix: PolyMatrix) -> None:
    pyramid = symbolic_pyramid(matrix)
    n = matrix.size
    for k in range(1, n + 1):
        for i in range(n - k + 1):
            for j in range(n - k + 1):
                window = PolyMatrix(tuple(row[j : j + k] for row in matrix.rows[i : i + k]))
                assert pyramid.value(k, i + 1, j + 1) == lambda_det_sum(window)


class TestDihedralShortcut:
    """Matrices fixed by a row mirror, by a quarter turn, or by every
    symmetry of the square: each window, computed, copied or l-reversed,
    equals the sum over alternating-sign matrices, whether or not border
    entries hold l (when they do, no mirror or quarter turn is used)."""

    @pytest.mark.parametrize("moves", [[ROW_REVERSAL], [QUARTER_TURN],
                                       [TRANSPOSE, QUARTER_TURN]],
                             ids=["mirror", "quarter-turn", "dihedral"])
    @pytest.mark.parametrize("l_border", [False, True], ids=["l-free", "l-border"])
    def test_every_window_equals_the_asm_sum(self, moves, l_border):
        rng = Random(2400 + len(moves) + 10 * l_border)
        for n in (4, 5, 6):
            matrix = mixed_monomial_matrix(n, rng, moves, l_border)
            m = n - 1
            assert all(matrix.rows[a][b] == matrix.rows[i][j]
                       for i in range(n) for j in range(n)
                       for a, b in [move(i, j, m) for move in moves])
            assert_windows_equal_the_asm_sum(matrix)

    def test_l_reversed_windows_of_a_perturbed_mirror(self):
        # Zero entries perturbed to t, in a matrix fixed only by a row
        # mirror: the mirrored windows are l-reversals of each other.
        rng = Random(2403)
        rows = [[rng.choice((0, 0, 1, -1, 2)) for _ in range(6)] for _ in range(6)]
        matrix = symmetrized(rows, [ROW_REVERSAL]).perturb_zeros()
        assert not matrix.is_symmetric() and not half_turn_fixes(matrix)
        pyramid = symbolic_pyramid(matrix)
        for k in range(1, 7):
            span = 7 - k
            for i in range(1, span + 1):
                for j in range(1, span + 1):
                    mirrored = pyramid.value(k, span + 1 - i, j)
                    assert pyramid.value(k, i, j) == mirrored.l_reversed(k * (k - 1) // 2)
        assert_windows_equal_the_asm_sum(matrix)


class TestIntegerScaledCondensation:
    """Monomial entries with coefficients other than +-1 put 1/c into the
    window values; symbolic_pyramid must still give the summation
    formula's values, with integral coefficients stored as ints."""

    def test_every_window_equals_the_summation_formula(self):
        rng = Random(707)
        matrices = [mixed_monomial_matrix(n, rng) for n in (3, 4, 4, 5, 5, 6)]
        matrices.append(mixed_monomial_matrix(5, rng, [TRANSPOSE]))
        matrices.append(mixed_monomial_matrix(5, rng, [HALF_TURN]))
        matrices.append(mixed_monomial_matrix(6, rng, [TRANSPOSE, HALF_TURN]))
        assert half_turn_fixes(matrices[-2]) and not matrices[-2].is_symmetric()
        assert half_turn_fixes(matrices[-1]) and matrices[-1].is_symmetric()
        for matrix in matrices:
            assert_windows_equal_the_asm_sum(matrix)

    def test_integral_coefficients_are_stored_as_ints(self):
        rng = Random(708)
        for n in (4, 5, 6):
            pyramid = symbolic_pyramid(mixed_monomial_matrix(n, rng))
            for layer in pyramid.layers[2:]:
                for row in layer:
                    for value in row:
                        for _l, _t, coeff in value.terms():
                            assert isinstance(coeff, int) or coeff.denominator != 1

    def test_int_entries_divide_in_the_integers(self, monkeypatch):
        quotients = []
        exact_div = LaurentPoly.exact_div

        def recording(self, other):
            quotient = exact_div(self, other)
            quotients.append(quotient)
            return quotient

        monkeypatch.setattr(LaurentPoly, "exact_div", recording)
        matrix = random_monomial_matrix(6, Random(709))
        top = symbolic_pyramid(matrix).top
        monkeypatch.undo()
        assert len(quotients) == 4**2 + 3**2 + 2**2 + 1
        assert any(isinstance(c, Fraction) for _l, _t, c in top.terms())
        assert top == lambda_det_sum(matrix)

    def test_non_unit_centre_of_a_three_by_three(self):
        t = LaurentPoly.monomial
        matrix = PolyMatrix(
            (
                (t(2), t(3, 0, 1), t(5)),
                (t(7), t(6, 0, 2), t(-11)),
                (t(13), t(17), t(19, 0, 1)),
            )
        )
        assert lambda_det(matrix) == lambda_det_sum(matrix)
        assert lambda_det(matrix).coefficient(1, -1) == Fraction(-7 * 3 * 11 * 17, 6)

    def test_zero_minor_names_the_window(self):
        matrix = PolyMatrix.from_rows(
            [[2, 3, 5, 7], [11, 13, 17, 19], [23, 0, 29, 31], [37, 41, 43, 47]]
        )
        with pytest.raises(
            ZeroMinor,
            match=r"^the 1-by-1 window at \(3, 2\) has identically zero "
            r"lambda-determinant, so condensation cannot divide by it$",
        ):
            symbolic_pyramid(matrix)


    def test_inexact_division_names_the_window_and_its_divisor(self):
        # 2 + l does not divide the 3-by-3 numerator in Q[l].
        matrix = PolyMatrix.from_rows([[1, 1, 1], [1, LAM + 2, 1], [1, 1, 1]])
        with pytest.raises(
            InexactDivision,
            match=r"^computing the 3-by-3 window at \(1, 1\), the division by "
            r"the 1-by-1 window at \(2, 2\) is inexact: nonzero remainder",
        ) as caught:
            symbolic_pyramid(matrix)
        assert isinstance(caught.value.__cause__, InexactDivision)

    def test_inexact_division_names_the_negative_power_of_l_it_needs(self):
        # The divisor l^2 has l-order 2 and the numerator l-order 1, so the
        # quotient needs l^-1, not l^-2.
        matrix = PolyMatrix.from_rows([[1, 3, 3], [1, LAM**2, -1], [2, 1, -1]])
        with pytest.raises(
            InexactDivision,
            match=r"is inexact \(its quotient needs l\^-1, which Q\[l\]\[t, 1/t\] "
            r"cannot hold\): nonzero remainder",
        ):
            symbolic_pyramid(matrix)


class TestFailureModes:
    def test_zero_minor_stops_symbolic_condensation(self):
        # The abstract's first claim.  Up to order 3 the diamond keeps its
        # zeros off the divisor positions, and plain condensation gives the
        # perturbed limit.  Order 4 is the first where condensation hits
        # one: the 3-by-3 window at (1, 1) is 0/0, as its divisor, entry
        # (2, 2), is 0 and so is its numerator.
        assert symbolic_pyramid(diamond_even(3)).top.eval_at(1) == 6728
        for n in (1, 2, 3):
            matrix = diamond_even(n)
            assert symbolic_pyramid(matrix).top == perturbed_det(matrix).limit
        matrix = diamond_even(4)
        with pytest.raises(ZeroMinor, match=r"1-by-1 window at \(2, 2\)") as caught:
            symbolic_pyramid(matrix)
        assert caught.value.window == (1, 2, 2)
        assert matrix.entry(2, 2).is_zero()

        def two_by_two(i, j):
            a = matrix.entry
            return a(i, j) * a(i + 1, j + 1) + LAM * a(i, j + 1) * a(i + 1, j)

        nw, ne, sw, se = (two_by_two(i, j) for i in (1, 2) for j in (1, 2))
        assert (nw * se + LAM * ne * sw).is_zero()

    def test_numeric_indeterminate_and_convention(self):
        with pytest.raises(IndeterminateForm):
            numeric_pyramid(ones_matrix(4), -1)

    def test_numeric_breakdown_on_nonzero_over_zero(self):
        matrix = PolyMatrix.from_rows(
            [[1, 1, 1], [1, 0, 1], [1, 1, 2]]
        )
        with pytest.raises(PoleAtZero, match=r"3-by-3 window at \(1, 1\)"):
            numeric_pyramid(matrix, 1)
        with pytest.raises(PoleAtZero):
            perturbed_det(matrix)

    def test_numeric_needs_constant_entries(self):
        with pytest.raises(SizeMismatch):
            numeric_pyramid(center_perturbed(1), 1)

    def test_minus_one_on_symbolic_all_ones(self):
        assert lambda_det(ones_matrix(4)).eval_at(-1) == 0
