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
matrices) and lets t -> 0.

A matrix and its transpose share the same pyramid up to reflection.  So
does a matrix and its half-turn (i, j) -> (n+1-i, n+1-j): the turn swaps
nw with se and ne with sw, which leaves nw*se + l*ne*sw unchanged, so the
window at (i, j) of the turned matrix has the value of the window at
(span+1-i, span+1-j) of the matrix.  For input equal to its transpose
(symmetric) or to its half-turn (centrosymmetric), as every diamond is,
each layer is computed once per orbit of those symmetries, the first
window of each orbit in reading order, and copied to the others.  A
zero divisor is met at the same window as without the shortcut: the
divisors of an orbit are equal, and its first window comes first.

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
from .laurent import LAM, LaurentPoly, Rational
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


def _pole(value: LaurentPoly, k: int, i: int, j: int, where: str = "") -> PoleAtZero:
    """The error for a window value that keeps a negative t-power."""
    return PoleAtZero(
        "%s keeps t^%d%s, so it has no t -> 0 limit"
        % (_window(k, i, j), value.min_t_exp(), where)
    )


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


def _condense(matrix: PolyMatrix, lam) -> Iterator[tuple[tuple[object, ...], ...]]:
    """Yield the layers of matrix's pyramid in order, each once it is complete.

    Each window is computed once per orbit of the matrix's symmetries
    (transpose, half-turn) and copied to the rest of its orbit."""
    symmetric, centrosymmetric = matrix.is_symmetric(), matrix.is_centrosymmetric()
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
                numerator = (
                    prev[i][j] * prev[i + 1][j + 1] + lam * prev[i][j + 1] * prev[i + 1][j]
                )
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
                grid[i][j] = value
                if symmetric:
                    grid[j][i] = value
                if centrosymmetric:
                    grid[last - i][last - j] = value
                    if symmetric:
                        grid[last - j][last - i] = value
        below, prev = prev, tuple(tuple(row) for row in grid)
        yield prev


def symbolic_pyramid(matrix: PolyMatrix, lam: LaurentPoly = LAM) -> Pyramid:
    """Full pyramid over the exact ring, with l as a variable or, given
    lam, at that fixed value of l."""
    return Pyramid(tuple(_condense(matrix, lam)))


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

    def limit(value, k: int, i: int, j: int):
        if value.min_t_exp() < 0:
            raise _pole(value, k, i, j, at_l)
        return value.limit_t0().eval_at(lam_value)

    layers = []
    try:
        for k, layer in enumerate(_condense(perturbed, LaurentPoly.const(lam_value)), 1):
            layers.append(tuple(
                tuple(limit(value, k, i, j) for j, value in enumerate(row, 1))
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
    try:
        limit = det.limit_t0()
    except PoleAtZero:
        raise _pole(det, matrix.size, 1, 1) from None
    return PerturbedDet(det=det, limit=limit, was_perturbed=was_perturbed)
