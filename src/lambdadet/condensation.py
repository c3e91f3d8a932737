"""The condensation recurrence for lambda-determinants.

The 2-by-2 rule is det = nw * se + l * ne * sw.  For larger windows the
same combination of the four overlapping (k-1)-by-(k-1) window values is
divided by the central (k-2)-by-(k-2) window value.  Running it for every
connected square window of an n-by-n matrix yields a pyramid of layers:
layer k is an (n-k+1)-by-(n-k+1) grid whose (i, j) entry (1-based) is the
lambda-determinant of the window with top left corner (i, j).

Two engines share one driver.  The symbolic engine works over the exact
ring with l as a variable; divisions must be exact there, and a divisor
that is identically zero stops the recurrence (ZeroMinor).  The numeric
engine takes a constant matrix and a rational value of l; a vanishing
divisor under a nonzero numerator is a genuine breakdown.  A 0/0 step is
not guessed.  For a matrix with zero entries the numeric engine reruns
the symbolic engine at that l on the perturbed matrix (each zero
replaced by t) and takes t -> 0.  That is perturbed_det's pipeline with
l fixed, so the two engines agree on the limit.

perturbed_det is the one perturb-and-limit pipeline: it replaces zeros
by t, runs an engine (condensation, or the sum over alternating-sign
matrices) and lets t -> 0.

A matrix and its transpose share the same pyramid up to reflection, so
for symmetric input each layer is computed above the diagonal only and
mirrored.

An ASM's -1 entries put inverses of entries into a window's value, so a
monomial entry c*t^e with |c| > 1 gives it 1/c coefficients.  The ring
keeps every value as integral t-slices over one denominator (see
laurent), so the symbolic engine runs the recurrence as written, and its
divisions run over Z whatever the entries' coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .errors import CondensationBreakdown, IndeterminateForm, ZeroMinor
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


Divide = Callable[[object, object, int, int, int], object]


def _condense(
    base: Sequence[Sequence[object]], lam, divide: Divide, symmetric: bool
) -> Pyramid:
    n = len(base)
    layers: list[tuple[tuple[object, ...], ...]] = [
        tuple(tuple(row) for row in base)
    ]
    for k in range(2, n + 1):
        prev = layers[-1]
        below = layers[-2] if k >= 3 else None
        span = n - k + 1
        grid: list[list[object]] = [[None] * span for _ in range(span)]
        for i in range(span):
            for j in range(i if symmetric else 0, span):
                numerator = (
                    prev[i][j] * prev[i + 1][j + 1] + lam * prev[i][j + 1] * prev[i + 1][j]
                )
                if below is None:
                    value = numerator
                else:
                    value = divide(numerator, below[i + 1][j + 1], k, i + 1, j + 1)
                grid[i][j] = value
                if symmetric and j != i:
                    grid[j][i] = value
        layers.append(tuple(tuple(row) for row in grid))
    return Pyramid(tuple(layers))


def _divide_symbolic(numerator, divisor, k: int, i: int, j: int):
    if divisor.is_zero():
        raise ZeroMinor(
            "the %d-by-%d window at (%d, %d) has identically zero "
            "lambda-determinant, so condensation cannot divide by it"
            % (k - 2, k - 2, i + 1, j + 1)
        )
    return numerator.exact_div(divisor)


def symbolic_pyramid(matrix: PolyMatrix, lam: LaurentPoly = LAM) -> Pyramid:
    """Full pyramid over the exact ring, with l as a variable or, given
    lam, at that fixed value of l."""
    return _condense(matrix.rows, lam, _divide_symbolic, matrix.is_symmetric())


def lambda_det(matrix: PolyMatrix) -> LaurentPoly:
    """Lambda-determinant of the whole matrix via condensation."""
    return symbolic_pyramid(matrix).top


_KEEP_L_SYMBOLIC = "`lambdadet det --eval` keeps l symbolic"


def numeric_pyramid(matrix: PolyMatrix, lam_value: Rational) -> Pyramid:
    """Pyramid of exact rational values at a fixed l.

    A nonzero numerator over a zero divisor raises CondensationBreakdown.
    A 0/0 step in a matrix with zero entries is resolved exactly: the
    recurrence reruns with every zero perturbed to t, over Q[t, 1/t] at
    this l, and each entry is its t -> 0 limit (PoleAtZero if there is
    none).  A 0/0 that this cannot resolve, because the matrix has no
    zero entry or a divisor of the rerun vanishes for every t, raises
    IndeterminateForm.
    """

    def divide(numerator, divisor, k: int, i: int, j: int):
        if divisor == 0:
            where = "the %d-by-%d window at (%d, %d)" % (k, k, i, j)
            if numerator == 0:
                raise IndeterminateForm(
                    "0/0 at l = %s while condensing %s; %s"
                    % (lam_value, where, _KEEP_L_SYMBOLIC)
                )
            raise CondensationBreakdown(
                "nonzero numerator over a zero minor while condensing %s" % where
            )
        quotient = Fraction(numerator) / Fraction(divisor)
        return quotient.numerator if quotient.denominator == 1 else quotient

    base = matrix.constant_entries()
    if isinstance(lam_value, Fraction) and lam_value.denominator == 1:
        lam_value = lam_value.numerator
    try:
        return _condense(base, lam_value, divide, matrix.is_symmetric())
    except IndeterminateForm:
        if not matrix.has_zero_entry():
            raise
    try:
        perturbed = symbolic_pyramid(
            matrix.perturb_zeros(), LaurentPoly.const(lam_value)
        )
    except ZeroMinor as exc:
        raise IndeterminateForm(
            "0/0 at l = %s persists with zeros perturbed to t: %s; %s"
            % (lam_value, exc, _KEEP_L_SYMBOLIC)
        ) from exc
    return Pyramid(
        tuple(
            tuple(tuple(v.limit_t0().eval_at(lam_value) for v in row) for row in layer)
            for layer in perturbed.layers
        )
    )


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
    trivial or not.  PoleAtZero propagates when the determinant keeps a
    negative t-power, in which case no limit exists.
    """
    was_perturbed = matrix.has_zero_entry()
    work = matrix.perturb_zeros() if was_perturbed else matrix
    det = engine(work)
    return PerturbedDet(det=det, limit=det.limit_t0(), was_perturbed=was_perturbed)
