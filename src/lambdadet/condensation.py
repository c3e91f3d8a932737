"""The condensation recurrence for lambda-determinants.

The 2-by-2 rule is det = nw * se + l * ne * sw.  For larger windows the
same combination of the four overlapping (k-1)-by-(k-1) window values is
divided by the central (k-2)-by-(k-2) window value.  Running it for every
connected square window of an n-by-n matrix yields a pyramid of layers:
layer k is an (n-k+1)-by-(n-k+1) grid whose (i, j) entry (1-based) is the
lambda-determinant of the window with top left corner (i, j).

One driver, _condense, runs the recurrence over the exact ring, with l
as a variable or fixed at a value, and yields each layer as it is
completed.  Divisions must be exact there: a divisor that is
identically zero stops the recurrence (ZeroMinor), and so does a
quotient the ring cannot hold, such as a negative power of l
(InexactDivision, naming the window and its divisor).  symbolic_pyramid
collects the layers; numeric_pyramid limits each one as it arrives.

The numeric engine is the same pipeline at a fixed rational l: it
replaces each zero entry by t, condenses over Q[t, 1/t] and lets t -> 0
entry by entry.  It needs no zero handling of its own.  Fixing l is a
ring map, so up to the first zero divisor every value is its window's
lambda-determinant at that l, and a zero divisor's numerator is
v(W) * 0 = 0: the only failure of the recurrence is a 0/0 that
perturbing zeros did not resolve, reported as IndeterminateForm.  A
divisor that vanishes only at t = 0 (an x/0 step of the unperturbed
recurrence) leaves a negative t-power in its window's value, which has
no limit and is reported as PoleAtZero with the first such window and
the value of l.  Each layer is limited before the next one runs, so the
first failing layer is the one reported: a pole in a layer before the
first unresolved 0/0 wins, and within the 0/0's own layer the 0/0 is
reported, because it stops that layer before the layer is limited.  At
l = 0 a window's lambda-determinant is its diagonal product, which no
perturbed matrix makes zero, so l = 0 never fails.

perturbed_det is the one perturb-and-limit pipeline: it replaces zeros
by t, runs an engine (condensation, or the sum over alternating-sign
matrices) and lets t -> 0.  It and numeric_pyramid take every limit
through _limit, which names the window that keeps a pole.

Each numerator nw * se + l * ne * sw is laurent.det2, which forms long
values' two products in one packed pass.

Symmetry.  The dihedral group of the square acts on a matrix and on its
windows.  Its even half (identity, transpose, half-turn, anti-transpose)
keeps every window's value: the transpose and the half-turn leave
nw * se + l * ne * sw unchanged.  Its odd half (row reversal, column
reversal, the two quarter turns, each an even element followed by a row
reversal) l-reverses it: for a k-by-k window W whose entries hold no l,
reversing W's rows gives l^C(k,2) * v(W)(1/l), v.l_reversed(C(k, 2))
(Robbins and Rumsey's expansion of det_l says so too).  By induction
on k, with rev_d(x) = x.l_reversed(d): reversing the rows swaps nw
with sw and ne with se and reverses each of them, so the numerator
becomes rev(sw) * rev(ne) + l * rev(se) * rev(nw), which is
rev_(2 C(k-1, 2) + 1)(nw * se + l * ne * sw); the divisor becomes
rev_C(k-2, 2) of the centre, and the quotient is rev at degree
2 C(k-1, 2) + 1 - C(k-2, 2) = C(k, 2).  The induction starts at k = 1,
where rev_0 keeps an entry only if it holds no l, and l-reversal means
nothing once l is fixed; so the odd half is used only when lam is the
variable l and no entry holds l, and otherwise the even half alone.

_condense computes each layer once per orbit of the elements that fix
the matrix, at the orbit's first window in reading order, and stores at
each other window the value (even elements) or its l-reversal (odd).
Every diamond is fixed by the whole group and holds no l, so the order-6
diamond divides 70 times, where the transpose and half-turn alone would
leave 125.  A window that an odd element fixes needs one product: that element
maps nw * se to ne * sw up to rev at degree 2 C(k-1, 2), so with
Q = nw * se the numerator is Q + Q.l_reversed((k-1)(k-2) + 1).  A zero
divisor is met at the same window as without the shortcut: the divisors
of an orbit are equal or l-reversals of each other, l-reversal keeps
zero and nonzero alike, and the orbit's first window comes first.  So is
an inexact division: l-reversal permutes l-coefficients, so the values
of an orbit lie in the ring, or out of it, together.

An ASM's -1 entries put inverses of entries into a window's value, so a
monomial entry c*t^e with |c| > 1 gives it 1/c coefficients.  The ring
keeps every value as integral t-slices over one denominator (see
laurent), so the symbolic engine runs the recurrence as written, and its
divisions run over Z whatever the entries' coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

from .errors import IndeterminateForm, InexactDivision, LambdaDetError, PoleAtZero, ZeroMinor
from .laurent import LAM, LaurentPoly, Rational, det2
from .matrices import PolyMatrix


@dataclass(frozen=True)
class Pyramid:
    """Lambda-determinants of every connected square window of one matrix.

    layers[k-1] is the layer of k-by-k window values; layers[0] echoes the
    matrix entries and layers[-1] holds the single full determinant.
    """

    layers: tuple[tuple[tuple[object, ...], ...], ...]

    @property
    def size(self) -> int:
        return len(self.layers)

    @property
    def top(self):
        return self.layers[-1][0][0]

    def layer(self, k: int):
        """Layer of k-by-k window values, k from 1 to size."""
        return self.layers[k - 1]

    def value(self, k: int, i: int, j: int):
        """Value for the k-by-k window with 1-based top left corner (i, j)."""
        return self.layers[k - 1][i - 1][j - 1]


def _window(k: int, i: int, j: int) -> str:
    return "the %d-by-%d window at (%d, %d)" % (k, k, i, j)


def _limit(value: LaurentPoly, k: int, i: int, j: int, where: str = "") -> LaurentPoly:
    """The t -> 0 limit of the value of the k-by-k window at (i, j); a
    value that keeps a negative t-power raises PoleAtZero naming the window."""
    if value.min_t_exp() < 0:
        raise PoleAtZero(
            "%s keeps t^%d%s, so it has no t -> 0 limit"
            % (_window(k, i, j), value.min_t_exp(), where)
        )
    return value.limit_t0()


def _l_order(value: LaurentPoly) -> int:
    return min(l_exp for l_exp, _t, _c in value.terms())


def _negative_l_power(numerator: LaurentPoly, divisor: LaurentPoly) -> str:
    """Why numerator / divisor left the ring, if its quotient needs a
    negative power of l.  The l-order is additive: the quotient needs
    l^(order(numerator) - m) when numerator * l^m divides exactly by a
    divisor of l-order m.  With m = 0 that is the division that failed."""
    m = _l_order(divisor)
    try:
        (numerator * LAM**m).exact_div(divisor)
    except LambdaDetError:
        return ""
    return " (its quotient needs l^%d, which Q[l][t, 1/t] cannot hold)" % (
        _l_order(numerator) - m)


# The dihedral group of the square on the cells (i, j) of a grid whose last
# index is m, the identity first, each element with whether it is odd: it
# carries the main diagonal onto the anti-diagonal, and so l-reverses the
# lambda-determinant of every window it moves (module docstring).
_D4 = (
    (lambda i, j, m: (i, j), False),
    (lambda i, j, m: (j, i), False),  # transpose
    (lambda i, j, m: (m - i, m - j), False),  # half-turn
    (lambda i, j, m: (m - j, m - i), False),  # anti-transpose
    (lambda i, j, m: (m - i, j), True),  # row reversal
    (lambda i, j, m: (i, m - j), True),  # column reversal
    (lambda i, j, m: (j, m - i), True),  # quarter turn
    (lambda i, j, m: (m - j, i), True),  # quarter turn back
)


def _symmetries(matrix: PolyMatrix, lam) -> list[tuple[Callable, bool]]:
    """The elements of _D4 that fix matrix.  The odd ones only when lam is
    the variable l and no entry holds l, the case where they l-reverse."""
    rows, m = matrix.rows, matrix.size - 1
    reversing = lam == LAM and all(not cell.max_l_exp() for row in rows for cell in row)
    return [
        (move, odd) for move, odd in _D4
        if (reversing or not odd) and all(
            rows[a][b] == cell
            for i, row in enumerate(rows)
            for j, cell in enumerate(row)
            for a, b in (move(i, j, m),)
        )
    ]


def _condense(matrix: PolyMatrix, lam) -> Iterator[tuple[tuple[object, ...], ...]]:
    """Yield the layers of matrix's pyramid in order, each once it is complete.

    Each window is computed once per orbit of the elements of _D4 that fix
    the matrix, and copied, or l-reversed, to the rest of its orbit."""
    symmetries = _symmetries(matrix, lam)
    n = matrix.size
    below = None
    prev = matrix.rows
    yield prev
    for k in range(2, n + 1):
        span = n - k + 1
        last = span - 1
        grid: list[list[object]] = [[None] * span for _ in range(span)]
        for i in range(span):
            for j in range(span):
                if grid[i][j] is not None:
                    continue
                if any(odd and move(i, j, last) == (i, j) for move, odd in symmetries):
                    # An odd element fixing the window makes ne * sw the
                    # l-reversal of nw * se at degree 2 * C(k-1, 2).
                    product = prev[i][j] * prev[i + 1][j + 1]
                    numerator = product + product.l_reversed((k - 1) * (k - 2) + 1)
                else:
                    numerator = det2(prev[i][j], prev[i][j + 1], prev[i + 1][j],
                                     prev[i + 1][j + 1], lam)
                if below is None:
                    value = numerator
                else:
                    divisor = below[i + 1][j + 1]
                    if divisor.is_zero():
                        window = (k - 2, i + 2, j + 2)
                        raise ZeroMinor(
                            "%s has identically zero lambda-determinant, so "
                            "condensation cannot divide by it" % _window(*window),
                            window,
                        )
                    try:
                        value = numerator.exact_div(divisor)
                    except InexactDivision as exc:
                        raise InexactDivision(
                            "computing %s, the division by %s is inexact%s: %s"
                            % (_window(k, i + 1, j + 1), _window(k - 2, i + 2, j + 2),
                               _negative_l_power(numerator, divisor), exc)
                        ) from exc
                reversed_value = None
                for move, odd in symmetries:
                    a, b = move(i, j, last)
                    if grid[a][b] is None:
                        if odd and reversed_value is None:
                            reversed_value = value.l_reversed(k * (k - 1) // 2)
                        grid[a][b] = reversed_value if odd else value
        below, prev = prev, tuple(tuple(row) for row in grid)
        yield prev


def symbolic_pyramid(matrix: PolyMatrix) -> Pyramid:
    """Full pyramid over the exact ring, with l as a variable."""
    return Pyramid(tuple(_condense(matrix, LAM)))


def lambda_det(matrix: PolyMatrix) -> LaurentPoly:
    """Lambda-determinant of the whole matrix via condensation."""
    return symbolic_pyramid(matrix).top


_KEEP_L_SYMBOLIC = "`lambdadet det --eval` keeps l symbolic"


def numeric_pyramid(matrix: PolyMatrix, lam_value: Rational) -> Pyramid:
    """Pyramid of exact rational values at a fixed l.

    Every zero entry is perturbed to t and the recurrence runs over
    Q[t, 1/t] at this l.  Each layer is replaced by its entries' t -> 0
    limits as soon as it is complete, before the next layer runs.  A
    window whose value keeps a negative t-power raises PoleAtZero; a
    divisor that vanishes for every t raises IndeterminateForm.  So a pole
    in a layer before the first unresolved 0/0 is reported, and a pole in
    the 0/0's own layer is not: the 0/0 stops that layer first.
    Non-constant entries raise SizeMismatch.
    """
    matrix.constant_entries()  # SizeMismatch unless every entry is constant
    perturbed = matrix.perturb_zeros()
    at_l = " at l = %s" % lam_value
    layers = []
    try:
        for k, layer in enumerate(_condense(perturbed, LaurentPoly.const(lam_value)), 1):
            layers.append(tuple(
                tuple(_limit(value, k, i, j, at_l).eval_at(lam_value)
                      for j, value in enumerate(row, 1))
                for i, row in enumerate(layer, 1)
            ))
    except ZeroMinor as exc:
        raise IndeterminateForm(
            "0/0 with zeros perturbed to t: %s is zero for every t%s; %s"
            % (_window(*exc.window), at_l, _KEEP_L_SYMBOLIC)
        ) from exc
    return Pyramid(tuple(layers))


@dataclass(frozen=True)
class PerturbedDet:
    """Result of the perturb-then-take-the-limit pipeline."""

    det: LaurentPoly
    limit: LaurentPoly
    was_perturbed: bool


def perturbed_det(
    matrix: PolyMatrix, engine: Callable[[PolyMatrix], LaurentPoly] = lambda_det
) -> PerturbedDet:
    """Replace zero entries by t, take the lambda-determinant, let t -> 0.

    The engine computes the determinant: condensation by default, or
    asm.lambda_det_sum for the sum over alternating-sign matrices.  For a
    matrix with no zero entries nothing is perturbed and the limit is
    trivial or not.  When the determinant keeps a negative t-power no
    limit exists, and PoleAtZero names the whole matrix and that power.
    """
    was_perturbed = matrix.has_zero_entry()
    work = matrix.perturb_zeros() if was_perturbed else matrix
    det = engine(work)
    limit = _limit(det, matrix.size, 1, 1)
    return PerturbedDet(det=det, limit=limit, was_perturbed=was_perturbed)
