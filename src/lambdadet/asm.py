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
the summation formula, the expanded term count, the masked-sum
histogram) is one _fold over the table, of sparse integer vectors: each
profile holds a dict from an int key to an int coefficient, and a row's
weight is a few (key offset, coefficient) pairs, so a transition adds
v * c at key k + dk and builds no ring value.  The count keys everything
at 0, the histogram at the masked sum, and the summation formula at
t-exponent * S + l-exponent, for a bound S above every l-exponent, with
integral coefficients (see lambda_det_sum); only its result becomes a
LaurentPoly.  min_region_sum is a min-plus fold, since it returns a
witness.  A fold costs (3^n - 1)/2 transitions, not the count: size 9
(911835460 ASMs) takes hundredths of a second, and MAX_TRANSITIONS
admits size 12 (about a second, about 70 MB, freed after the fold) and
refuses 13 with TableTooLarge.  Only
enumerate_asms lists matrices, for `asm enumerate|stats` and as the
tests' oracle; it refuses sizes above its cap argument, 7 by default.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Iterable, Iterator

from .errors import (
    CapExceeded,
    DivisionByZero,
    NonMonomialEntry,
    SizeMismatch,
    TableTooLarge,
)
from .laurent import LaurentPoly
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
        raise SizeMismatch("size must be positive")
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


def _fold(table: dict[int, tuple[Transition, ...]], weight) -> dict[int, int]:
    """Sum over all ASMs of the table's size of prod_r weight(r, row, inv_r, neg_r).

    Values are sparse integer vectors, dicts from an int key to an int
    coefficient, and a weight is a few (key offset, coefficient) pairs:
    keys add where the ring's monomials multiply.  One vector per
    profile, extended a row at a time.  Every transition is weighed, zero
    or not, so a weight that raises for some row raises whenever an ASM
    contains that row.
    """
    states = {0: {0: 1}}
    # The profiles run from 0 to 2^n - 2, so len(table) is the all-ones one.
    for r in range(len(table).bit_length()):
        new: defaultdict[int, dict[int, int]] = defaultdict(dict)
        for profile, vector in states.items():
            items = tuple(vector.items())
            for row, nxt, inv, neg in table[profile]:
                target = new[nxt]
                for dk, c in weight(r, row, inv, neg):
                    for k, v in items:
                        k += dk
                        target[k] = target.get(k, 0) + v * c
        states = new
    return states[len(table)]


def count_asms(n: int) -> int:
    """Number of n-by-n ASMs, by the profile fold."""
    return _fold(_table(n), lambda r, row, inv, neg: ((0, 1),))[0]


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


def _entry_weights(cell: LaurentPoly, span: int) -> tuple:
    """u, u * cell and u / cell for one entry, as (key offset, int) pairs,
    so that entry[b] is the entry's weight under b (entry[-1] the last).

    A monomial p/q l^k t^e has u = |p| q, so u * cell is p |p| l^k t^e
    and, for k = 0, u / cell is sign(p) q^2 t^-e.  Any other entry has
    u = the lcm of its denominators.  Only a monomial free of l has an
    inverse; for any other entry u / cell is None.
    """
    mono = cell.as_monomial()
    if mono is None:
        unit = math.lcm(*(Fraction(c).denominator for _l, _t, c in cell.terms()))
        direct = tuple((t * span + l, int(c * unit)) for l, t, c in cell.terms())
        return ((0, unit),), direct, None
    coeff, l_exp, t_exp = mono
    p, q = Fraction(coeff).as_integer_ratio()
    inverse = None if l_exp else ((-t_exp * span, q * q if p > 0 else -q * q),)
    return ((0, abs(p) * q),), ((t_exp * span + l_exp, p * abs(p)),), inverse


def _row_product(entries, cells, row: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    """prod_j u_j M_j^b_j over one matrix row, as (key, coefficient) pairs."""
    product = {0: 1}
    for entry, cell, b in zip(entries, cells, row):
        if entry[b] is None:
            if cell.is_zero():
                raise DivisionByZero("matrix entry 0 raised to a negative power")
            raise NonMonomialEntry("entry %s %s" % (cell, (
                "with a positive l-power has no inverse" if cell.as_monomial()
                else "is not a monomial, so it has no inverse in the ring")))
        out: dict[int, int] = {}
        for dk, c in entry[b]:
            for k, v in product.items():
                out[k + dk] = out.get(k + dk, 0) + v * c
        product = out
    return tuple(product.items())


def lambda_det_sum(matrix: PolyMatrix) -> LaurentPoly:
    """The summation formula: sum over ASMs B of l^P(B) (1+l)^N(B) M^B.

    M^B multiplies entry (i, j) with exponent b_ij, so entries hit by a
    -1 must be invertible monomials.  Agrees with the condensation
    recurrence wherever both are defined.

    Folded over profiles as sparse integer vectors, the monomial
    c t^a l^b being coefficient c at key a*S + b.  Keys decode by
    divmod(key, S) as long as every l-exponent a state holds lies in
    [0, S).  Row r contributes l^(inv_r - neg_r) (1+l)^neg_r
    prod_j M_rj^b_rj, a polynomial in l of degree at most r plus the
    l-degrees of the entries under its +1s (inv_r <= r, since each -1's
    share cancels at least that of the +1 right of it), so
    S = 1 + n(n-1)/2 + the sum of every entry's l-degree will do.  Each
    entry is scaled by a unit u that keeps the fold integral:
    u = |p| q for a monomial p/q t^e (p/q in lowest terms), so that a -1
    on it contributes sign(p) q^2 t^-e, and the lcm of its denominators
    for any other entry.  The product of a row's scaled entries is kept
    per (r, row); a transition shifts it by inv_r - neg_r and convolves
    it with the binomial row of (1+l)^neg_r.  The sum is divided by the
    product of all u at the end.
    """
    n = matrix.size
    table = _table(n)
    span = 1 + n * (n - 1) // 2 + sum(
        max(l for l, _t, _c in cell.terms()) for row in matrix.rows for cell in row if cell
    )
    entries = [[_entry_weights(cell, span) for cell in row] for row in matrix.rows]
    binomials = [tuple((i, math.comb(k, i)) for i in range(k + 1)) for k in range(n)]
    products: dict[tuple[int, tuple[int, ...]], tuple[tuple[int, int], ...]] = {}

    def weight(r: int, row: tuple[int, ...], inv: int, neg: int) -> list[tuple[int, int]]:
        product = products.get((r, row))
        if product is None:
            product = products[(r, row)] = _row_product(entries[r], matrix.rows[r], row)
        return [(k + inv - neg + i, c * m) for k, c in product for i, m in binomials[neg]]

    total = LaurentPoly((c, k % span, k // span) for k, c in _fold(table, weight).items())
    return total * Fraction(1, math.prod(e[0][0][1] for line in entries for e in line))


def expanded_term_count(matrix_size: int) -> int:
    """Number of monomials when every (1+l)^N(B) factor is distributed out,
    i.e. the sum of 2^N(B) over all ASMs of the given size."""
    return _fold(_table(matrix_size), lambda r, row, inv, neg: ((0, 1 << neg),))[0]


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
            raise SizeMismatch(
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

    The fold keyed by the masked sum, each row adding its own share;
    values ascend and none has a zero count.
    """
    columns = _cells_by_row(n, cells)
    counts = _fold(_table(n), lambda r, row, *_: ((sum(row[j] for j in columns[r]), 1),))
    return dict(sorted(counts.items()))
