"""Alternating-sign matrices: enumeration, statistics, summation formula.

An alternating-sign matrix (ASM) has entries in {-1, 0, 1}, every row and
column summing to 1 with the nonzero entries alternating in sign.  ASMs
are plain tuples of tuples of ints here.

Everything runs row by row over partial column-sum profiles.  After any
prefix of rows each column sum is 0 or 1, so the profile is a bitmask; a
row is admissible when its own prefix sums also stay in {0, 1} and it
ends at 1.  Each row raises the total sum by one, so depth n forces the
all-ones profile.  Row r's share of the inversion count,
sum_s b_rs * popcount(profile >> (s+1)), depends only on the profile and
the row.  One table per size maps each profile to its admissible rows
with their next profile, inv_r and neg_r (the row's -1 count); tables up
to size MAX_CACHED_SIZE = 8 stay cached.  Every sum over ASMs (the count,
the summation formula, the expanded term count, the masked-sum histogram
as a polynomial in t) is one _fold over the table; min_region_sum is a
min-plus fold, since it returns a witness.  A fold costs (3^n - 1)/2
transitions, not the count: size 9 (911835460 ASMs) takes hundredths of
a second, and MAX_TRANSITIONS admits size 12 (under a second, about
70 MB, freed after the fold) and refuses 13 with TableTooLarge.  Only
enumerate_asms lists matrices, for `asm enumerate|stats` and as the
tests' oracle; it refuses sizes above its cap argument, 7 by default.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Iterable, Iterator

from .errors import CapExceeded, DivisionByZero, NonMonomialEntry, TableTooLarge
from .laurent import LAM, ONE, ONE_PLUS_LAM, LaurentPoly
from .matrices import PolyMatrix

ASM = tuple[tuple[int, ...], ...]

DEFAULT_CAP = 7
MAX_TRANSITIONS = (3**12 - 1) // 2
MAX_CACHED_SIZE = 8


def enumerate_asms(n: int, cap: int = DEFAULT_CAP) -> Iterator[ASM]:
    """Yield every n-by-n alternating-sign matrix (CapExceeded past the cap)."""
    if n > cap:
        raise CapExceeded(
            "size %d exceeds the enumeration cap %d (pass a larger cap if "
            "you mean it)" % (n, cap)
        )
    table = _table(n)
    acc: list[tuple[int, ...]] = []

    def descend(profile: int, depth: int) -> Iterator[ASM]:
        if depth == n:
            yield tuple(acc)
            return
        for row, nxt, _inv, _neg in table[profile]:
            acc.append(row)
            yield from descend(nxt, depth + 1)
            acc.pop()

    yield from descend(0, 0)


Transition = tuple[tuple[int, ...], int, int, int]


def _table(n: int) -> dict[int, tuple[Transition, ...]]:
    """Profile -> every admissible row as (row, next_profile, inv_r, neg_r).

    Tables up to MAX_CACHED_SIZE stay cached, since the checks reuse them;
    a larger one (about 67 MB at size 12) is built for each fold and freed
    with it.
    """
    return _cached_table(n) if n <= MAX_CACHED_SIZE else _build_table(n)


def _build_table(n: int) -> dict[int, tuple[Transition, ...]]:
    """The table of _table, built without the cache.

    Every profile short of all-ones is reached by a partial permutation
    matrix and can be completed, so the keys are exactly the states of
    the fold.  The row adds inv_r inversions and neg_r entries -1.
    """
    if n < 1:
        raise ValueError("size must be positive")
    # Column by column, a (profile, row) pair keeps the row's running sum
    # (either profile bit allows it) or flips it (one bit does), so the
    # table holds entry (0, 1) of [[2, 1], [1, 2]]^n: (3^n - 1)/2 transitions.
    size = (3**n - 1) // 2
    if size > MAX_TRANSITIONS:
        raise TableTooLarge(
            "size %d needs %d profile transitions, beyond the limit %d"
            % (n, size, MAX_TRANSITIONS)
        )
    row = [0] * n
    moves: list[Transition] = []

    def walk(profile: int, j: int, running: int, nxt: int, inv: int, neg: int) -> None:
        # A +1 needs running sum 0 and a clear bit, a -1 running sum 1 and
        # a set bit; either adds +-1 times the set bits right of column j.
        if j == n:
            if running == 1:
                moves.append((tuple(row), nxt, inv, neg))
            return
        walk(profile, j + 1, running, nxt, inv, neg)
        bit = 1 << j
        right = (profile >> (j + 1)).bit_count()
        if running == 0 and not profile & bit:
            row[j] = 1
            walk(profile, j + 1, 1, nxt ^ bit, inv + right, neg)
            row[j] = 0
        elif running == 1 and profile & bit:
            row[j] = -1
            walk(profile, j + 1, 0, nxt ^ bit, inv - right, neg + 1)
            row[j] = 0

    table: dict[int, tuple[Transition, ...]] = {}
    for profile in range((1 << n) - 1):
        walk(profile, 0, 0, profile, 0, 0)
        table[profile] = tuple(moves)
        moves.clear()
    return table


_cached_table = cache(_build_table)


def _fold(n: int, start, weight):
    """Sum over all n-by-n ASMs of start * prod_r weight(r, row, inv_r, neg_r).

    One accumulated value per profile, extended a row at a time.  Every
    transition is weighed, zero or not, so a weight that raises for some
    row raises whenever an ASM contains that row.
    """
    table = _table(n)
    states = {0: start}
    for r in range(n):
        new: dict = {}
        for profile, acc in states.items():
            for row, nxt, inv, neg in table[profile]:
                term = acc * weight(r, row, inv, neg)
                new[nxt] = new[nxt] + term if nxt in new else term
        states = new
    return states[(1 << n) - 1]


def count_asms(n: int) -> int:
    """Number of n-by-n ASMs, by the profile fold."""
    return _fold(n, 1, lambda r, row, inv, neg: 1)


def asm_count_formula(n: int) -> int:
    """The closed-form count: product over k < n of (3k+1)! / (n+k)!."""
    value = Fraction(1)
    for k in range(n):
        value *= Fraction(math.factorial(3 * k + 1), math.factorial(n + k))
    if value.denominator != 1:
        raise ArithmeticError("count formula produced a non-integer")
    return value.numerator


def is_asm(candidate: Iterable[Iterable[int]]) -> bool:
    """Check the definition directly (row/column sums 1, signs alternating)."""
    rows = [tuple(r) for r in candidate]
    n = len(rows)
    if any(len(r) != n for r in rows):
        return False
    for line in list(rows) + [tuple(col) for col in zip(*rows)]:
        prefix = 0
        for b in line:
            if b not in (-1, 0, 1):
                return False
            prefix += b
            if prefix not in (0, 1):
                return False
        if prefix != 1:
            return False
    return True


@dataclass(frozen=True)
class ASMStats:
    """Inversion count I, negative-entry count N, and the exponent P = I - N."""

    inversions: int
    negatives: int

    @property
    def plus_exponent(self) -> int:
        return self.inversions - self.negatives


def asm_stats(asm: ASM) -> ASMStats:
    """I(B) = sum of b_ij * b_rs over pairs with i < r and j > s, plus N(B).

    Computed in one sweep: while scanning row r, prev[c] holds the sum of
    all entries above row r in columns 1..c, so the factor multiplying
    b_rs is prev[n] - prev[s].
    """
    n = len(asm)
    prev = [0] * (n + 1)
    inversions = 0
    negatives = 0
    for row in asm:
        for s, b in enumerate(row):
            if b:
                inversions += b * (prev[n] - prev[s + 1])
                if b < 0:
                    negatives += 1
        acc = 0
        for c, b in enumerate(row):
            acc += b
            prev[c + 1] += acc
    return ASMStats(inversions, negatives)


def _coefficient_weights(matrix: PolyMatrix) -> list[list[int]]:
    """u per entry: |c| for a monomial c*t^e with int c, else 1."""
    weights = []
    for row in matrix.rows:
        line = []
        for cell in row:
            mono = cell.as_monomial()
            line.append(abs(mono[0]) if mono and isinstance(mono[0], int) else 1)
        weights.append(line)
    return weights


def _scaled_inverse(value: LaurentPoly, scale: int) -> LaurentPoly:
    """scale / value for an invertible monomial entry."""
    mono = value.as_monomial()
    if mono is None:
        if value.is_zero():
            raise DivisionByZero("matrix entry 0 raised to a negative power")
        raise NonMonomialEntry(
            "entry %s is not a monomial, so it has no inverse in the ring" % value
        )
    coeff, l_exp, t_exp = mono
    if l_exp:
        raise NonMonomialEntry("entry %s with a positive l-power has no inverse" % value)
    return LaurentPoly.monomial(Fraction(scale) / Fraction(coeff), 0, -t_exp)


def lambda_det_sum(matrix: PolyMatrix) -> LaurentPoly:
    """The summation formula: sum over ASMs B of l^P(B) (1+l)^N(B) M^B.

    M^B multiplies entry (i, j) with exponent b_ij, so entries hit by a
    -1 must be invertible monomials.  Agrees with the condensation
    recurrence wherever both are defined.

    Folded over profiles: row r contributes
    l^(inv_r - neg_r) (1+l)^neg_r prod_j M_rj^b_rj, a polynomial in l
    because inv_r >= neg_r (the +1 left of each -1 outweighs it).  Each
    row's weight is scaled by prod_j u_rj, with u = |c| for an entry c*t^e
    with an int c and 1 for any other entry, so a -1 on such an entry
    contributes sign(c) t^-e and the fold's values keep denominator 1; the
    sum is divided by the product of all u at the end.
    """
    units = _coefficient_weights(matrix)

    @cache
    def product(r: int, row: tuple[int, ...]) -> LaurentPoly:
        value = ONE
        scale = 1
        for j, b in enumerate(row):
            if b == -1:
                value = value * _scaled_inverse(matrix.rows[r][j], units[r][j])
            else:
                scale *= units[r][j]
                if b == 1:
                    value = value * matrix.rows[r][j]
        return value * scale if scale != 1 else value

    @cache
    def power(exponent: int, neg: int) -> LaurentPoly:
        return LAM**exponent * ONE_PLUS_LAM**neg

    @cache
    def weight(r: int, row: tuple[int, ...], inv: int, neg: int) -> LaurentPoly:
        return power(inv - neg, neg) * product(r, row)

    total = _fold(matrix.size, ONE, weight)
    return total * Fraction(1, math.prod(u for line in units for u in line))


def expanded_term_count(matrix_size: int) -> int:
    """Number of monomials when every (1+l)^N(B) factor is distributed out,
    i.e. the sum of 2^N(B) over all ASMs of the given size."""
    return _fold(matrix_size, 1, lambda r, row, inv, neg: 1 << neg)


# -- masked partial sums ------------------------------------------------


def _pattern_cells(matrix: PolyMatrix, nonzero: bool) -> frozenset[tuple[int, int]]:
    return frozenset(
        (i + 1, j + 1)
        for i, row in enumerate(matrix.rows)
        for j, cell in enumerate(row)
        if cell.is_zero() != nonzero
    )


def mask_cells(matrix: PolyMatrix) -> frozenset[tuple[int, int]]:
    """1-based positions of the nonzero entries of a 0/1 pattern matrix."""
    return _pattern_cells(matrix, nonzero=True)


def complement_cells(matrix: PolyMatrix) -> frozenset[tuple[int, int]]:
    """1-based positions of the zero entries of a 0/1 pattern matrix."""
    return _pattern_cells(matrix, nonzero=False)


def window_cells(
    cells: frozenset[tuple[int, int]], i0: int, j0: int, k: int
) -> frozenset[tuple[int, int]]:
    """The cells inside the k-by-k window whose top left corner is
    (i0, j0), re-based so that corner becomes (1, 1): a pattern for
    k-by-k matrices."""
    return frozenset(
        (i - i0 + 1, j - j0 + 1)
        for (i, j) in cells
        if i0 <= i < i0 + k and j0 <= j < j0 + k
    )


def sketch(asm: ASM) -> str:
    """One-line text form: rows joined by '/', entries as '+', '-' or '.'."""
    symbols = {0: ".", 1: "+", -1: "-"}
    return "/".join("".join(symbols[b] for b in row) for row in asm)


def region_sum(asm: ASM, cells: Iterable[tuple[int, int]]) -> int:
    """Sum of the ASM entries at the given 1-based positions."""
    return sum(asm[i - 1][j - 1] for (i, j) in cells)


def _cells_by_row(n: int, cells: Iterable[tuple[int, int]]) -> list[list[int]]:
    """0-based columns of the given 1-based cells, grouped by 0-based row."""
    columns: list[list[int]] = [[] for _ in range(n)]
    for i, j in cells:
        if not (1 <= i <= n and 1 <= j <= n):
            raise ValueError(
                "cell (%d, %d) lies outside the %d-by-%d matrix" % (i, j, n, n)
            )
        columns[i - 1].append(j - 1)
    return columns


def min_region_sum(n: int, cells: Iterable[tuple[int, int]]) -> tuple[int, ASM]:
    """Minimum of region_sum over all n-by-n ASMs, with a minimizer.

    A min-plus fold over profiles that keeps one minimizing prefix of
    rows per profile.
    """
    table = _table(n)
    columns = _cells_by_row(n, cells)
    states: dict[int, tuple[int, ASM]] = {0: (0, ())}
    for r in range(n):
        new: dict[int, tuple[int, ASM]] = {}
        for profile, (value, rows) in states.items():
            for row, nxt, _inv, _neg in table[profile]:
                total = value + sum(row[j] for j in columns[r])
                if nxt not in new or total < new[nxt][0]:
                    new[nxt] = (total, rows + (row,))
        states = new
    return states[(1 << n) - 1]


def region_sum_counts(n: int, cells: Iterable[tuple[int, int]]) -> dict[int, int]:
    """How many n-by-n ASMs give each value of region_sum, by value.

    The fold of the generating polynomial sum_B t^region_sum(B), whose
    t-exponents (negative ones included) are the values.
    """
    columns = _cells_by_row(n, cells)

    def weight(r: int, row: tuple[int, ...], inv: int, neg: int) -> LaurentPoly:
        return LaurentPoly.monomial(1, 0, sum(row[j] for j in columns[r]))

    poly = _fold(n, ONE, weight)
    return {value: count for _l, value, count in poly.terms()}
