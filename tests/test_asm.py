"""Alternating-sign matrices against independent brute-force oracles."""

from __future__ import annotations

import itertools
from fractions import Fraction
from random import Random

import pytest

from lambdadet.asm import (
    MAX_CACHED_SIZE,
    ASMStats,
    _cached_table,
    _table,
    asm_count_formula,
    asm_stats,
    complement_cells,
    count_asms,
    enumerate_asms,
    expanded_term_count,
    is_asm,
    lambda_det_sum,
    mask_cells,
    min_region_sum,
    region_sum,
    region_sum_counts,
    window_cells,
)
from lambdadet.errors import (
    CapExceeded,
    DivisionByZero,
    LambdaDetError,
    NonMonomialEntry,
    SizeMismatch,
    TableTooLarge,
)
from lambdadet.laurent import LAM, ONE_PLUS_LAM, LaurentPoly
from lambdadet.matrices import (
    PolyMatrix,
    center_perturbed,
    diamond_even,
    diamond_odd,
    ones_matrix,
    random_monomial_matrix,
)


def reference_is_asm(rows: tuple[tuple[int, ...], ...]) -> bool:
    """Definition check written independently of the package code."""
    n = len(rows)
    lines = [list(r) for r in rows] + [list(col) for col in zip(*rows)]
    for line in lines:
        running = 0
        for value in line:
            running += value
            if running not in (0, 1):
                return False
        if running != 1:
            return False
    return True


def reference_stats(rows) -> tuple[int, int]:
    """Quadratic-pair inversion count straight from the definition."""
    n = len(rows)
    inversions = 0
    for i, r in itertools.product(range(n), repeat=2):
        if i >= r:
            continue
        for j, s in itertools.product(range(n), repeat=2):
            if j > s:
                inversions += rows[i][j] * rows[r][s]
    negatives = sum(1 for row in rows for value in row if value == -1)
    return inversions, negatives


class TestEnumeration:
    def test_counts_match_closed_form(self):
        expected = [1, 2, 7, 42, 429, 7436, 218348]
        assert [count_asms(n) for n in range(1, 8)] == expected
        assert [asm_count_formula(n) for n in range(1, 8)] == expected

    def test_size_three_against_exhaustive_scan(self):
        brute = {
            rows
            for rows in itertools.product(
                itertools.product((-1, 0, 1), repeat=3), repeat=3
            )
            if reference_is_asm(rows)
        }
        assert set(enumerate_asms(3)) == brute

    def test_size_four_against_row_product_scan(self):
        rows4 = [
            row
            for row in itertools.product((-1, 0, 1), repeat=4)
            if all(sum(row[: k + 1]) in (0, 1) for k in range(4))
            and sum(row) == 1
        ]
        assert len(rows4) == 8
        brute = {
            candidate
            for candidate in itertools.product(rows4, repeat=4)
            if reference_is_asm(candidate)
        }
        assert set(enumerate_asms(4)) == brute

    def test_every_generated_matrix_satisfies_the_definition(self):
        for n in (1, 2, 3, 4, 5):
            for asm in enumerate_asms(n):
                assert is_asm(asm)

    def test_is_asm_rejects_near_misses(self):
        assert not is_asm(((1, 1), (0, 0)))
        assert not is_asm(((1, -1), (0, 1)))
        assert not is_asm(((2, -1), (-1, 2)))
        assert not is_asm(((1, 0), (0,)))
        assert not is_asm(((0, 1), (1, -1)))

    def test_cap_enforcement_and_override(self):
        with pytest.raises(CapExceeded, match="enumeration cap 7"):
            next(enumerate_asms(8))
        assert len(list(enumerate_asms(2, cap=3))) == 2
        assert is_asm(next(enumerate_asms(8, cap=9)))
        with pytest.raises(CapExceeded):
            next(enumerate_asms(5, cap=4))

    def test_folds_are_bounded_by_their_table_not_the_cap(self):
        assert count_asms(9) == asm_count_formula(9) == 911835460
        assert expanded_term_count(5) == 2**10
        for fold in (
            lambda: count_asms(13),
            lambda: lambda_det_sum(ones_matrix(13)),
            lambda: min_region_sum(13, ()),
            lambda: region_sum_counts(13, ()),
        ):
            with pytest.raises(TableTooLarge, match="797161"):
                fold()
        assert issubclass(TableTooLarge, LambdaDetError)

    def test_size_below_one_is_a_domain_error(self):
        for n in (0, -1):
            with pytest.raises(SizeMismatch, match="size must be positive"):
                count_asms(n)


class TestTransitionTable:
    def test_only_small_tables_stay_cached(self):
        # A size-12 table holds about 67 MB, so a large fold must not keep it.
        _cached_table.cache_clear()
        assert count_asms(10) == asm_count_formula(10)
        assert _cached_table.cache_info().currsize == 0
        assert count_asms(MAX_CACHED_SIZE) == asm_count_formula(MAX_CACHED_SIZE)
        assert _table(MAX_CACHED_SIZE) is _table(MAX_CACHED_SIZE)
        assert _cached_table.cache_info().currsize == 1

    def test_table_matches_its_definition(self):
        for n in range(1, 7):
            table = _table(n)
            assert list(table) == list(range((1 << n) - 1))
            total = 0
            for profile, moves in table.items():
                bits = [profile >> s & 1 for s in range(n)]
                expected = {}
                for row in itertools.product((-1, 0, 1), repeat=n):
                    prefixes = list(itertools.accumulate(row))
                    if prefixes[-1] != 1 or any(p not in (0, 1) for p in prefixes):
                        continue
                    if any(bits[s] + b not in (0, 1) for s, b in enumerate(row)):
                        continue
                    expected[row] = (
                        profile ^ sum(1 << s for s, b in enumerate(row) if b),
                        sum(b * sum(bits[s + 1 :]) for s, b in enumerate(row)),
                        row.count(-1),
                    )
                got = {row: (nxt, inv, neg) for row, nxt, inv, neg in moves}
                assert len(got) == len(moves)
                assert got == expected
                total += len(moves)
            assert total == (3**n - 1) // 2


class TestStats:
    def test_against_definition_for_small_sizes(self):
        for n in (1, 2, 3, 4):
            for asm in enumerate_asms(n):
                stats = asm_stats(asm)
                assert (stats.inversions, stats.negatives) == reference_stats(asm)
                assert stats.plus_exponent >= 0

    def test_sampled_size_five(self):
        rng = Random(5)
        sample = [asm for asm in enumerate_asms(5) if rng.random() < 0.1]
        assert sample
        for asm in sample:
            stats = asm_stats(asm)
            assert (stats.inversions, stats.negatives) == reference_stats(asm)

    def test_permutation_matrices_reduce_to_inversions(self):
        for perm in itertools.permutations(range(4)):
            rows = tuple(
                tuple(1 if j == perm[i] else 0 for j in range(4)) for i in range(4)
            )
            inversions = sum(
                1
                for a, b in itertools.combinations(range(4), 2)
                if perm[a] > perm[b]
            )
            assert asm_stats(rows) == ASMStats(inversions, 0)

    def test_center_minus_example(self):
        stats = asm_stats(((0, 1, 0), (1, -1, 1), (0, 1, 0)))
        assert (stats.inversions, stats.negatives, stats.plus_exponent) == (2, 1, 1)


class TestSummationFormula:
    def test_all_ones_closed_form(self):
        for n in range(1, 6):
            assert lambda_det_sum(ones_matrix(n)) == ONE_PLUS_LAM ** (
                n * (n - 1) // 2
            )

    def test_center_perturbed_family(self):
        for c in (1, 2, 3):
            det = lambda_det_sum(center_perturbed(c))
            expected = LaurentPoly(
                [
                    (c, 1, 0),
                    (c, 2, 0),
                    (2, 1, 3),
                    (2, 2, 3),
                    (Fraction(1, c), 0, 6),
                    (Fraction(1, c), 3, 6),
                ]
            )
            assert det == expected
            assert det.limit_t0() == LaurentPoly([(c, 1, 0), (c, 2, 0)])

    def test_two_by_two_is_the_generalized_determinant(self):
        matrix = PolyMatrix.from_rows([[2, 3], [5, 7]])
        assert lambda_det_sum(matrix) == LaurentPoly.const(14) + LAM * 15

    def test_expanded_term_counts(self):
        for m in range(1, 6):
            assert expanded_term_count(m) == 2 ** (m * (m - 1) // 2)

    def test_negative_exponent_needs_invertible_entries(self):
        with_zero_center = PolyMatrix.from_rows(
            [[1, 1, 1], [1, 0, 1], [1, 1, 1]]
        )
        with pytest.raises(DivisionByZero):
            lambda_det_sum(with_zero_center)
        with_sum_center = PolyMatrix.from_rows(
            [[1, 1, 1], [1, "1 + 1*t^1", 1], [1, 1, 1]]
        )
        with pytest.raises(NonMonomialEntry):
            lambda_det_sum(with_sum_center)
        with_l_center = PolyMatrix.from_rows(
            [[1, 1, 1], [1, "1*l^1", 1], [1, 1, 1]]
        )
        with pytest.raises(NonMonomialEntry):
            lambda_det_sum(with_l_center)

    def test_t_monomial_entries_stay_exact(self):
        matrix = PolyMatrix.from_rows(
            [["1*t^1"] * 3, ["1*t^1", "1*t^2", "1*t^1"], ["1*t^1"] * 3]
        )
        det = lambda_det_sum(matrix)
        assert det.min_t_exp() >= 0
        assert det.eval_at(1, 1) == 8


class TestRegionSums:
    def test_cell_helpers(self):
        pattern = diamond_odd(1)
        mask = mask_cells(pattern)
        holes = complement_cells(pattern)
        assert mask == {(1, 2), (2, 1), (2, 2), (2, 3), (3, 2)}
        assert holes == {(1, 1), (1, 3), (3, 1), (3, 3)}
        assert window_cells(mask, 1, 1, 2) == {(1, 2), (2, 1), (2, 2)}
        # Windows are re-based so their top left corner is (1, 1).
        assert window_cells(mask, 2, 2, 2) == {(1, 1), (1, 2), (2, 1)}
        assert window_cells(mask, 1, 2, 2) == {(1, 1), (2, 1), (2, 2)}
        assert window_cells(mask, 1, 1, 3) == mask

    def test_minima_for_small_diamonds(self):
        cases = [
            (2, mask_cells(diamond_even(1)), 2),
            (4, mask_cells(diamond_even(2)), 2),
            (4, complement_cells(diamond_even(2)), 0),
            (3, mask_cells(diamond_odd(1)), 1),
            (5, mask_cells(diamond_odd(2)), 1),
            (5, complement_cells(diamond_odd(2)), 0),
        ]
        for size, cells, expected in cases:
            value, minimizer = min_region_sum(size, cells)
            assert value == expected
            assert is_asm(minimizer)
            assert region_sum(minimizer, cells) == expected

    def test_size_seven_diamond_sum_goes_negative(self):
        """The odd diamond pattern admits a negative partial sum at size 7.

        This pins the smallest counterexample to the folklore claim that
        diamond-masked partial sums of alternating-sign matrices are
        always non-negative: true for odd sizes 3 and 5 and even sizes
        through 8, false first at odd size 7.
        """
        witness = (
            (0, 0, 0, 0, 1, 0, 0),
            (0, 1, 0, 0, -1, 1, 0),
            (0, 0, 0, 0, 1, 0, 0),
            (0, 0, 0, 1, 0, 0, 0),
            (1, -1, 1, 0, 0, -1, 1),
            (0, 1, 0, 0, -1, 1, 0),
            (0, 0, 0, 0, 1, 0, 0),
        )
        assert is_asm(witness)
        assert reference_is_asm(witness)
        mask = mask_cells(diamond_odd(3))
        assert region_sum(witness, mask) == -1
        assert region_sum(witness, complement_cells(diamond_odd(3))) == 8


def mixed_matrix(n: int, rng: Random, border_l: bool) -> PolyMatrix:
    """Monomials p/q t^e with p of either sign, q up to 4 and e from -2 to
    2.  The border, where no ASM has a -1, also holds zeros and, with
    border_l, sums of up to three t-terms carrying l^0 to l^5."""

    def monomial() -> LaurentPoly:
        coeff = Fraction(rng.choice((-3, -2, -1, 1, 2, 5)), rng.randint(1, 4))
        return LaurentPoly.monomial(coeff, 0, rng.randint(-2, 2))

    def border() -> LaurentPoly:
        roll = rng.random()
        if roll < 0.2:
            return LaurentPoly()
        if border_l and roll < 0.7:
            return LaurentPoly(
                (Fraction(rng.randint(-4, 4), rng.randint(1, 3)), l_exp, rng.randint(-2, 2))
                for l_exp in [rng.randint(0, 5) for _ in range(rng.randint(1, 3))]
            )
        return monomial()

    edge = {0, n - 1}
    return PolyMatrix(
        tuple(
            tuple(border() if i in edge or j in edge else monomial() for j in range(n))
            for i in range(n)
        )
    )


class TestProfileFoldAgainstEnumeration:
    """The profile folds against sums built here from enumerate_asms."""

    @staticmethod
    def enumerated_lambda_sum(matrix: PolyMatrix) -> LaurentPoly:
        total = LaurentPoly.const(0)
        for asm in enumerate_asms(matrix.size):
            inversions, negatives = reference_stats(asm)
            term = LAM ** (inversions - negatives) * ONE_PLUS_LAM**negatives
            for i, row in enumerate(asm):
                for j, b in enumerate(row):
                    entry = matrix.rows[i][j]
                    if b == 1:
                        term = term * entry
                    elif b == -1:
                        coeff, l_exp, t_exp = entry.as_monomial()
                        assert l_exp == 0
                        term = term * LaurentPoly.monomial(1 / Fraction(coeff), 0, -t_exp)
            total = total + term
        return total

    def test_lambda_det_sum_on_random_monomial_matrices(self):
        rng = Random(20041017)
        for n in (1, 2, 3, 4, 4, 5, 5, 5):
            matrix = random_monomial_matrix(n, rng)
            assert lambda_det_sum(matrix) == self.enumerated_lambda_sum(matrix)

    def test_lambda_det_sum_on_every_allowed_entry_kind(self):
        rng = Random(23)
        kinds = set()
        for n in (1, 2, 3, 3, 4, 4, 5, 5):
            for border_l in (False, True):
                matrix = mixed_matrix(n, rng, border_l)
                assert lambda_det_sum(matrix) == self.enumerated_lambda_sum(matrix)
                for cell in (cell for row in matrix.rows for cell in row):
                    size = cell.term_count
                    kinds.add("zero" if size == 0 else "sum" if size > 1 else "mono")
                    for l_exp, t_exp, coeff in cell.terms():
                        kinds.add("l^5" if l_exp == 5 else "l^<5")
                        kinds.add("t^-" if t_exp < 0 else "t^+")
                        kinds.add("p<0" if coeff < 0 else "p>0")
                        kinds.add("p/q" if isinstance(coeff, Fraction) else "int")
        assert kinds >= {"zero", "sum", "mono", "l^5", "t^-", "p<0", "p/q"}

    def test_l_degree_reaches_its_bound(self):
        # The anti-diagonal ASM alone has n(n-1)/2 inversions and puts its
        # corner +1s on the two l-carrying entries, so the sum's l-degree
        # is n(n-1)/2 + 10: the largest l-exponent the fold allows for.
        corner = LaurentPoly([(2, 5, 1), (Fraction(-1, 3), 5, -2), (1, 0, 0)])
        rng = Random(24)
        for n in (2, 3, 4, 5):
            rows = [list(row) for row in mixed_matrix(n, rng, border_l=False).rows]
            rows[0][n - 1] = rows[n - 1][0] = corner
            matrix = PolyMatrix(tuple(map(tuple, rows)))
            total = lambda_det_sum(matrix)
            assert total == self.enumerated_lambda_sum(matrix)
            assert max(l for l, _t, _c in total.terms()) == n * (n - 1) // 2 + 10
        # One row can put +1s on two l-carrying entries: degree 5 + 5 + 2 here.
        both_ends = PolyMatrix.from_rows([[1, 1, 1], ["1*l^5", 1, "1*l^5"], [1, 1, 1]])
        total = lambda_det_sum(both_ends)
        assert total == self.enumerated_lambda_sum(both_ends)
        assert max(l for l, _t, _c in total.terms()) == 12

    def test_expanded_term_count(self):
        for n in range(1, 7):
            expected = sum(2 ** reference_stats(asm)[1] for asm in enumerate_asms(n))
            assert expanded_term_count(n) == expected

    def test_region_sums_on_random_cell_sets(self):
        rng = Random(7)
        for n in (1, 2, 3, 4, 5, 6, 6):
            grid = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
            cells = frozenset(rng.sample(grid, rng.randint(0, len(grid))))
            histogram: dict[int, int] = {}
            for asm in enumerate_asms(n):
                value = sum(asm[i - 1][j - 1] for (i, j) in cells)
                histogram[value] = histogram.get(value, 0) + 1
            assert region_sum_counts(n, cells) == histogram
            value, witness = min_region_sum(n, cells)
            assert value == min(histogram)
            assert reference_is_asm(witness)
            assert sum(witness[i - 1][j - 1] for (i, j) in cells) == value

    def test_size_seven_histogram_records_the_negative_sum(self):
        counts = region_sum_counts(7, mask_cells(diamond_odd(3)))
        assert min(counts) == -1 and counts[-1] == 112
        assert sum(counts.values()) == 218348

    def test_cells_outside_the_matrix_are_refused(self):
        with pytest.raises(SizeMismatch, match="outside"):
            min_region_sum(3, [(4, 1)])
        with pytest.raises(SizeMismatch, match="outside"):
            region_sum_counts(3, [(0, 2)])


class TestVectorFoldKernel:
    """The folds work on int vectors: no ring arithmetic per transition."""

    @staticmethod
    def counted(monkeypatch) -> dict[str, int]:
        calls = {"mul": 0, "add": 0}
        for kind in ("mul", "add"):
            for name in ("__%s__" % kind, "__r%s__" % kind):

                def counting(self, other, original=getattr(LaurentPoly, name), kind=kind):
                    calls[kind] += 1
                    return original(self, other)

                monkeypatch.setattr(LaurentPoly, name, counting)
        return calls

    def test_lambda_det_sum_scales_once(self, monkeypatch):
        matrix = random_monomial_matrix(5, Random(3))
        expected = TestProfileFoldAgainstEnumeration.enumerated_lambda_sum(matrix)
        calls = self.counted(monkeypatch)
        total = lambda_det_sum(matrix)
        assert calls["mul"] <= 1 and calls["add"] == 0
        assert total == expected

    def test_region_sum_counts_uses_no_ring_arithmetic(self, monkeypatch):
        cells = mask_cells(diamond_odd(3))
        calls = self.counted(monkeypatch)
        counts = region_sum_counts(7, cells)
        assert calls == {"mul": 0, "add": 0}
        assert list(counts) == sorted(counts) and all(counts.values())
