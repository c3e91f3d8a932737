"""Square matrices over the exact ring, plus the stock families used here.

Entries are LaurentPoly values; indexing is 1-based in the public API to
match the usual matrix conventions (entry(1, 1) is the top left corner).
The JSON wire form is {"size": n, "entries": [[...]]} where each entry is
either an integer or the text form of a polynomial, e.g. "1*t^4".
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .errors import SizeMismatch
from .laurent import ONE, ZERO, LaurentPoly, Rational, T_VAR, coerce_entry
from .tilings import diamond_cells


@dataclass(frozen=True)
class PolyMatrix:
    """Immutable square matrix of LaurentPoly entries."""

    rows: tuple[tuple[LaurentPoly, ...], ...]

    def __post_init__(self):
        n = len(self.rows)
        if n == 0:
            raise SizeMismatch("matrix must have at least one row")
        if any(len(row) != n for row in self.rows):
            raise SizeMismatch("matrix must be square")

    @classmethod
    def from_rows(cls, rows) -> "PolyMatrix":
        return cls(tuple(tuple(coerce_entry(v) for v in row) for row in rows))

    @property
    def size(self) -> int:
        return len(self.rows)

    def entry(self, i: int, j: int) -> LaurentPoly:
        """1-based access; entry(1, 1) is the top left corner."""
        if not (1 <= i <= self.size and 1 <= j <= self.size):
            raise SizeMismatch(
                "index (%d, %d) outside %d-by-%d matrix" % (i, j, self.size, self.size)
            )
        return self.rows[i - 1][j - 1]

    def is_symmetric(self) -> bool:
        return all(
            self.rows[i][j] == self.rows[j][i]
            for i in range(self.size)
            for j in range(i + 1, self.size)
        )

    def has_zero_entry(self) -> bool:
        return any(cell.is_zero() for row in self.rows for cell in row)

    def perturb_zeros(self) -> "PolyMatrix":
        """Replace every exact-zero entry by the monomial t."""
        return PolyMatrix(
            tuple(
                tuple(T_VAR if cell.is_zero() else cell for cell in row)
                for row in self.rows
            )
        )

    def constant_entries(self) -> list[list[Rational]]:
        """Entries as rationals; SizeMismatch if any entry is non-constant."""
        out: list[list[Rational]] = []
        for row in self.rows:
            line: list[Rational] = []
            for cell in row:
                if cell.is_zero():
                    line.append(0)
                    continue
                mono = cell.as_monomial()
                if mono is None or mono[1:] != (0, 0):
                    raise SizeMismatch("entry %s is not a constant" % cell)
                line.append(mono[0])
            out.append(line)
        return out

    # -- JSON wire form --------------------------------------------------

    def to_json(self) -> str:
        entries = []
        for row in self.rows:
            line = []
            for cell in row:
                mono = cell.as_monomial()
                if cell.is_zero():
                    line.append(0)
                elif mono is not None and mono[1:] == (0, 0) and isinstance(mono[0], int):
                    line.append(mono[0])
                else:
                    line.append(cell.to_text())
            entries.append(line)
        return json.dumps({"size": self.size, "entries": entries})

    @classmethod
    def from_json(cls, text: str) -> "PolyMatrix":
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise SizeMismatch(
                "matrix JSON must be an object, got %s" % type(doc).__name__
            )
        entries = doc.get("entries")
        if not isinstance(entries, list) or not all(isinstance(row, list) for row in entries):
            raise SizeMismatch("matrix JSON needs an 'entries' list of row lists")
        for value in (value for row in entries for value in row):
            # bool is an int subclass: true would otherwise read as 1.
            if type(value) is not int and not isinstance(value, str):
                raise SizeMismatch(
                    "matrix entry %s is neither an integer nor polynomial text"
                    % json.dumps(value)
                )
        matrix = cls.from_rows(entries)
        declared = doc.get("size")
        if declared is not None and (type(declared) is not int or declared != matrix.size):
            raise SizeMismatch(
                "declared size %r does not match %d rows" % (declared, matrix.size)
            )
        return matrix


def ones_matrix(n: int) -> PolyMatrix:
    """The n-by-n all-ones matrix."""
    return PolyMatrix.from_rows([[1] * n for _ in range(n)])


def diamond_even(n: int) -> PolyMatrix:
    """2n-by-2n 0/1 matrix with 1's on diamond_cells(2n).

    The 1-entries form an Aztec-diamond shaped plus region; the four
    corners hold staircase blocks of zeros, n(n-1)/2 in each corner.
    """
    if n < 1:
        raise SizeMismatch("diamond order must be positive")
    return diamond_pattern(2 * n)


def diamond_odd(n: int) -> PolyMatrix:
    """(2n+1)-by-(2n+1) 0/1 matrix with 1's on diamond_cells(2n+1)."""
    if n < 0:
        raise SizeMismatch("diamond order must be non-negative")
    return diamond_pattern(2 * n + 1)


def diamond_pattern(size: int) -> PolyMatrix:
    """The size-by-size 0/1 matrix with 1's on diamond_cells(size):
    diamond_even for even sizes, diamond_odd for odd ones."""
    if size < 1:
        raise SizeMismatch("diamond size must be positive")
    cells = diamond_cells(size)
    span = range(1, size + 1)
    return PolyMatrix(
        tuple(tuple(ONE if (i, j) in cells else ZERO for j in span) for i in span)
    )


def random_monomial_matrix(n: int, rng) -> PolyMatrix:
    """Random matrix of monomials c * t^e with c in 1..5 and e in 0..3,
    suitable for comparing determinant engines (every entry invertible)."""
    return PolyMatrix(
        tuple(
            tuple(
                LaurentPoly.monomial(rng.randint(1, 5), 0, rng.randint(0, 3))
                for _ in range(n)
            )
            for _ in range(n)
        )
    )


def center_perturbed(c: Rational) -> PolyMatrix:
    """3-by-3 family with entries t and center t^4/c; its determinant's
    t -> 0 limit depends on c, the standard example of trajectory dependence."""
    c = Fraction(c)
    if c == 0:
        raise SizeMismatch("center parameter must be non-zero")
    t = T_VAR
    center = LaurentPoly.monomial(Fraction(1, 1) / c, 0, 4)
    return PolyMatrix(
        (
            (t, t, t),
            (t, center, t),
            (t, t, t),
        )
    )
