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
the row, so every aggregate (the count, the summation formula, masked-sum
minima and histograms) folds over at most 2^n profiles per row with one
cached transition table per size.  Only enumerate_asms lists matrices;
it serves `asm enumerate|stats` and is the oracle the tests hold the
folds to.  Counts grow fast (1, 2, 7, 42, 429, 7436, 218348, ...), so
enumeration and the folds refuse sizes above a cap: 7 by default,
overridable via the LAMBDADET_CAP environment variable or an explicit
argument.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Iterable, Iterator

from .errors import CapExceeded, DivisionByZero, NonMonomialEntry
from .laurent import LAM, ONE, ONE_PLUS_LAM, LaurentPoly
from .matrices import PolyMatrix

ASM = tuple[tuple[int, ...], ...]

DEFAULT_CAP = 7
CAP_ENV_VAR = "LAMBDADET_CAP"


def resolve_cap(cap: int | None = None) -> int:
    """Explicit cap, else the LAMBDADET_CAP environment variable, else 7."""
    if cap is not None:
        return cap
    env = os.environ.get(CAP_ENV_VAR)
    return int(env) if env else DEFAULT_CAP


def check_cap(n: int, cap: int | None = None) -> None:
    limit = resolve_cap(cap)
    if n > limit:
        raise CapExceeded(
            "size %d exceeds the enumeration cap %d (raise it explicitly "
            "or via %s if you mean it)" % (n, limit, CAP_ENV_VAR)
        )


def _admissible_rows(profile: int, n: int) -> list[tuple[int, ...]]:
    """All rows that extend the given column-sum profile by one valid row."""
    row = [0] * n
    out: list[tuple[int, ...]] = []

    def walk(j: int, prefix: int) -> None:
        if j == n:
            if prefix == 1:
                out.append(tuple(row))
            return
        walk(j + 1, prefix)
        if prefix == 0 and not profile >> j & 1:
            row[j] = 1
            walk(j + 1, 1)
            row[j] = 0
        elif prefix == 1 and profile >> j & 1:
            row[j] = -1
            walk(j + 1, 0)
            row[j] = 0

    walk(0, 0)
    return out


def enumerate_asms(n: int, cap: int | None = None) -> Iterator[ASM]:
    """Yield every n-by-n alternating-sign matrix (CapExceeded past the cap)."""
    table = _table(n, cap)
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


@cache
def _transitions(n: int) -> dict[int, tuple[Transition, ...]]:
    """Profile -> every admissible row as (row, next_profile, inv_r, neg_r).

    Every profile short of all-ones is reached by a partial permutation
    matrix and can be completed, so the keys are exactly the states of
    the fold.  The row adds inv_r inversions and neg_r entries -1.
    """
    table: dict[int, tuple[Transition, ...]] = {}
    for profile in range((1 << n) - 1):
        moves = []
        for row in _admissible_rows(profile, n):
            nxt, inv, neg = profile, 0, 0
            for s, b in enumerate(row):
                if b:
                    nxt ^= 1 << s
                    inv += b * (profile >> (s + 1)).bit_count()
                    neg += b < 0
            moves.append((row, nxt, inv, neg))
        table[profile] = tuple(moves)
    return table


def _table(n: int, cap: int | None) -> dict[int, tuple[Transition, ...]]:
    if n < 1:
        raise ValueError("size must be positive")
    check_cap(n, cap)
    return _transitions(n)


def _fold(n: int, cap: int | None, start, weight):
    """Sum over all n-by-n ASMs of start * prod_r weight(r, row, inv_r, neg_r).

    One accumulated value per profile, extended a row at a time.  Every
    transition is weighed, zero or not, so a weight that raises for some
    row raises whenever an ASM contains that row.
    """
    table = _table(n, cap)
    states = {0: start}
    for r in range(n):
        new: dict = {}
        for profile, acc in states.items():
            for row, nxt, inv, neg in table[profile]:
                term = acc * weight(r, row, inv, neg)
                new[nxt] = new[nxt] + term if nxt in new else term
        states = new
    return states[(1 << n) - 1]


def count_asms(n: int, cap: int | None = None) -> int:
    """Number of n-by-n ASMs, by the profile fold (subject to the cap)."""
    return _fold(n, cap, 1, lambda r, row, inv, neg: 1)


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


def _invert_entry(value: LaurentPoly) -> LaurentPoly:
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
    return LaurentPoly.monomial(Fraction(1, 1) / Fraction(coeff), 0, -t_exp)


def lambda_det_sum(matrix: PolyMatrix, cap: int | None = None) -> LaurentPoly:
    """The summation formula: sum over ASMs B of l^P(B) (1+l)^N(B) M^B.

    M^B multiplies entry (i, j) with exponent b_ij, so entries hit by a
    -1 must be invertible monomials.  Agrees with the condensation
    recurrence wherever both are defined.

    Folded over profiles: row r contributes
    l^(inv_r - neg_r) (1+l)^neg_r prod_j M_rj^b_rj, a polynomial in l
    because inv_r >= neg_r (the +1 left of each -1 outweighs it).
    """
    products: dict[tuple[int, tuple[int, ...]], LaurentPoly] = {}
    powers: dict[tuple[int, int], LaurentPoly] = {}

    def weight(r: int, row: tuple[int, ...], inv: int, neg: int) -> LaurentPoly:
        product = products.get((r, row))
        if product is None:
            product = ONE
            for j, b in enumerate(row):
                if b == 1:
                    product = product * matrix.rows[r][j]
                elif b == -1:
                    product = product * _invert_entry(matrix.rows[r][j])
            products[(r, row)] = product
        power = powers.get((inv - neg, neg))
        if power is None:
            power = powers[(inv - neg, neg)] = LAM ** (inv - neg) * ONE_PLUS_LAM**neg
        return power * product

    return _fold(matrix.size, cap, ONE, weight)


def expanded_term_count(matrix_size: int, cap: int | None = None) -> int:
    """Number of monomials when every (1+l)^N(B) factor is distributed out,
    i.e. the sum of 2^N(B) over all ASMs of the given size."""
    return _fold(matrix_size, cap, 1, lambda r, row, inv, neg: 1 << neg)


# -- masked partial sums ------------------------------------------------


def mask_cells(matrix: PolyMatrix) -> frozenset[tuple[int, int]]:
    """1-based positions of the nonzero entries of a 0/1 pattern matrix."""
    return frozenset(
        (i + 1, j + 1)
        for i, row in enumerate(matrix.rows)
        for j, cell in enumerate(row)
        if not cell.is_zero()
    )


def complement_cells(matrix: PolyMatrix) -> frozenset[tuple[int, int]]:
    """1-based positions of the zero entries of a 0/1 pattern matrix."""
    return frozenset(
        (i + 1, j + 1)
        for i, row in enumerate(matrix.rows)
        for j, cell in enumerate(row)
        if cell.is_zero()
    )


def window_cells(
    cells: frozenset[tuple[int, int]], i0: int, j0: int, k: int
) -> frozenset[tuple[int, int]]:
    """Intersection of a cell set with the k-by-k window whose top left
    corner is (i0, j0), 1-based."""
    return frozenset(
        (i, j) for (i, j) in cells if i0 <= i < i0 + k and j0 <= j < j0 + k
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


def min_region_sum(
    n: int, cells: Iterable[tuple[int, int]], cap: int | None = None
) -> tuple[int, ASM]:
    """Minimum of region_sum over all n-by-n ASMs, with a minimizer.

    A min-plus fold over profiles that keeps one minimizing prefix of
    rows per profile.
    """
    table = _table(n, cap)
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


def region_sum_counts(
    n: int, cells: Iterable[tuple[int, int]], cap: int | None = None
) -> dict[int, int]:
    """How many n-by-n ASMs give each value of region_sum, by value.

    A counting fold over (profile, partial sum) states.
    """
    table = _table(n, cap)
    columns = _cells_by_row(n, cells)
    states: dict[tuple[int, int], int] = {(0, 0): 1}
    for r in range(n):
        new: dict[tuple[int, int], int] = {}
        for (profile, partial), count in states.items():
            for row, nxt, _inv, _neg in table[profile]:
                key = (nxt, partial + sum(row[j] for j in columns[r]))
                new[key] = new.get(key, 0) + count
        states = new
    return dict(sorted((value, count) for (_, value), count in states.items()))
