"""Exact sparse arithmetic in the ring Q[l][t, 1/t].

Values are polynomials in the weight variable l (written "l" in text form)
and Laurent polynomials in the perturbation variable t, with exact rational
coefficients.  Negative l-exponents never occur; negative t-exponents are
allowed and matter for the t -> 0 limit step.

Representation: a dict from a packed exponent key to a nonzero coefficient.
The pair (l_exp, t_exp) packs into the single integer

    key = l_exp * STRIDE + t_exp

so keys of a product add like exponent vectors and the inner loops of
multiplication run on ints rather than tuples.  Coefficients are ints
or fractions.Fraction.  Construction (the constructor, const, monomial,
parse) and exact division store an integral coefficient as an int, and
ints only ever combine into ints, which keeps the all-integer
condensation runs fast.  Sums and products that involve a Fraction keep
the type Python's arithmetic gives, so an integral coefficient can stay
a Fraction there: const(Fraction(1, 2)) * 2 holds Fraction(1, 1).  Such
a coefficient equals, hashes and prints like its int, so values compare
and print the same either way.  |t_exp| stays below
STRIDE // 4: construction, products (and so powers) and the shifts of
exact division check the t-range of their result, read off the operands'
t-ranges, and raise ExponentOverflow rather than let a key wrap into the
l-part.  A value finds its t-range once and keeps it, and products and
quotients are built knowing theirs, so the check stays off the per-term
path.  The bound is astronomically beyond what any supported computation
produces.

Exact division is long division in t over Q[l]: each operand is cut once
into t-slices (dense lists of l-coefficients), and the loop runs over at
most the quotient's t-span of slices, so an inexact division fails in
bounded time.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterable, Iterator

from .errors import DivisionByZero, ExponentOverflow, InexactDivision, PoleAtZero

STRIDE = 1 << 24
_HALF = STRIDE >> 1
_T_LIMIT = STRIDE >> 2

Rational = int | Fraction


def _check_t_range(low: int, high: int) -> None:
    if low <= -_T_LIMIT or high >= _T_LIMIT:
        raise ExponentOverflow(
            "t-exponents %d..%d leave the packed range (-%d, %d)"
            % (low, high, _T_LIMIT, _T_LIMIT)
        )


def _pack(l_exp: int, t_exp: int) -> int:
    if l_exp < 0:
        raise ValueError("negative l-exponent %d" % l_exp)
    _check_t_range(t_exp, t_exp)
    return l_exp * STRIDE + t_exp


def _unpack(key: int) -> tuple[int, int]:
    t_exp = ((key + _HALF) % STRIDE) - _HALF
    return (key - t_exp) // STRIDE, t_exp


def _as_coeff(value: Rational) -> Rational:
    if isinstance(value, int):
        return value
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    raise TypeError("coefficient must be int or Fraction, got %r" % (value,))


class LaurentPoly:
    """Immutable sparse polynomial in Q[l][t, 1/t]."""

    __slots__ = ("_terms", "_hash", "_t_bounds")

    def __init__(self, terms: Iterable[tuple[Rational, int, int]] = ()):
        data: dict[int, Rational] = {}
        for coeff, l_exp, t_exp in terms:
            coeff = _as_coeff(coeff)
            key = _pack(l_exp, t_exp)
            acc = data.get(key, 0) + coeff
            if acc:
                data[key] = acc
            else:
                data.pop(key, None)
        self._terms = data
        self._hash: int | None = None
        self._t_bounds: tuple[int, int] | None = None

    @classmethod
    def _wrap(
        cls, data: dict[int, Rational], t_bounds: tuple[int, int] | None = None
    ) -> "LaurentPoly":
        poly = cls.__new__(cls)
        poly._terms = data
        poly._hash = None
        poly._t_bounds = t_bounds
        return poly

    @classmethod
    def const(cls, value: Rational) -> "LaurentPoly":
        value = _as_coeff(value)
        return cls._wrap({0: value} if value else {})

    @classmethod
    def monomial(cls, coeff: Rational, l_exp: int = 0, t_exp: int = 0) -> "LaurentPoly":
        coeff = _as_coeff(coeff)
        return cls._wrap({_pack(l_exp, t_exp): coeff} if coeff else {})

    # -- inspection ------------------------------------------------------

    def terms(self) -> Iterator[tuple[int, int, Rational]]:
        """Yield (l_exp, t_exp, coeff) sorted by (t_exp, l_exp)."""
        decoded = [(_unpack(key), coeff) for key, coeff in self._terms.items()]
        decoded.sort(key=lambda item: (item[0][1], item[0][0]))
        for (l_exp, t_exp), coeff in decoded:
            yield l_exp, t_exp, coeff

    @property
    def term_count(self) -> int:
        return len(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def _t_range(self) -> tuple[int, int]:
        """Smallest and largest t-exponent of a nonzero value, found once."""
        if self._t_bounds is None:
            offsets = [(key + _HALF) % STRIDE for key in self._terms]
            self._t_bounds = (min(offsets) - _HALF, max(offsets) - _HALF)
        return self._t_bounds

    def _t_slices(self) -> dict[int, list[Rational]]:
        """{t_exp - min t_exp: dense l-coefficient list}, in one pass."""
        low = self._t_range()[0]
        slices: dict[int, list[Rational]] = {}
        for key, coeff in self._terms.items():
            l_exp, t_exp = _unpack(key)
            row = slices.setdefault(t_exp - low, [])
            if len(row) <= l_exp:
                row.extend([0] * (l_exp + 1 - len(row)))
            row[l_exp] = coeff
        return slices

    def min_t_exp(self) -> int:
        """Smallest t-exponent present, 0 for the zero polynomial."""
        return self._t_range()[0] if self._terms else 0

    def max_t_exp(self) -> int:
        return self._t_range()[1] if self._terms else 0

    def as_monomial(self) -> tuple[Rational, int, int] | None:
        """Return (coeff, l_exp, t_exp) if this is a single term, else None."""
        if len(self._terms) != 1:
            return None
        ((key, coeff),) = self._terms.items()
        l_exp, t_exp = _unpack(key)
        return coeff, l_exp, t_exp

    def coefficient(self, l_exp: int, t_exp: int) -> Rational:
        return self._terms.get(_pack(l_exp, t_exp), 0)

    # -- ring operations -------------------------------------------------

    def _coerce(self, other) -> "LaurentPoly | None":
        if isinstance(other, LaurentPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return LaurentPoly.const(other)
        return None

    def __add__(self, other) -> "LaurentPoly":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        big, small = self._terms, rhs._terms
        if len(big) < len(small):
            big, small = small, big
        out = dict(big)
        for key, coeff in small.items():
            acc = out.get(key, 0) + coeff
            if acc:
                out[key] = acc
            else:
                del out[key]
        return LaurentPoly._wrap(out)

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._wrap({key: -coeff for key, coeff in self._terms.items()})

    def __sub__(self, other) -> "LaurentPoly":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self + (-rhs)

    def __rsub__(self, other) -> "LaurentPoly":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return rhs + (-self)

    def __mul__(self, other) -> "LaurentPoly":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        a, b = self._terms, rhs._terms
        if not a or not b:
            return ZERO
        (low_a, high_a), (low_b, high_b) = self._t_range(), rhs._t_range()
        t_bounds = (low_a + low_b, high_a + high_b)
        _check_t_range(*t_bounds)
        if len(a) < len(b):
            a, b = b, a
        out: dict[int, Rational] = {}
        get = out.get
        for kb, cb in b.items():
            for ka, ca in a.items():
                key = ka + kb
                out[key] = get(key, 0) + ca * cb
        # Q[l] has no zero divisors, so the extreme t-slices never cancel.
        return LaurentPoly._wrap({k: c for k, c in out.items() if c}, t_bounds)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "LaurentPoly":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a non-negative int")
        result = ONE
        base = self
        while exponent:
            if exponent & 1:
                result = result * base
            base = base * base if exponent > 1 else base
            exponent >>= 1
        return result

    def __eq__(self, other) -> bool:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self._terms == rhs._terms

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self._terms.items()))
        return self._hash

    # -- division --------------------------------------------------------

    def exact_div(self, other) -> "LaurentPoly":
        """Exact quotient self / other; InexactDivision if it does not divide.

        Slice t of the remainder, for t = 0..t_span counted from each
        operand's minimal t-power, is cleared from its highest l down
        against the divisor's lowest slice.  Q[l] has no zero divisors, so
        t-spans add under multiplication: an exact quotient spans exactly
        t_span, and any remainder left after the loop proves it inexact.
        """
        rhs = self._coerce(other)
        if rhs is None:
            raise TypeError("cannot divide by %r" % (other,))
        if not rhs._terms:
            raise DivisionByZero("division by zero polynomial")
        if not self._terms:
            return ZERO
        num_shift, num_top = self._t_range()
        den_shift, den_top = rhs._t_range()
        t_span = (num_top - num_shift) - (den_top - den_shift)
        shift = num_shift - den_shift
        den_slices = rhs._t_slices()
        degree, lead = len(den_slices[0]) - 1, den_slices[0][-1]
        # Each divisor slice's t-offset and nonzero (l_exp, coeff) pairs.
        den = [
            (s, [(i, c) for i, c in enumerate(row) if c])
            for s, row in den_slices.items()
        ]
        remainder = self._t_slices()
        quotient: dict[int, Rational] = {}
        for t in range(t_span + 1):
            row = remainder.get(t, ())
            for top_l in range(len(row) - 1, degree - 1, -1):
                top = row[top_l]
                if not top:
                    continue
                if isinstance(top, int) and isinstance(lead, int) and top % lead == 0:
                    coeff: Rational = top // lead
                else:
                    coeff = _as_coeff(Fraction(top) / Fraction(lead))
                q_l = top_l - degree
                quotient[q_l * STRIDE + t + shift] = coeff
                for s, den_row in den:
                    target = remainder.setdefault(t + s, [])
                    need = q_l + den_row[-1][0] + 1
                    if len(target) < need:
                        target.extend([0] * (need - len(target)))
                    for i, dcoeff in den_row:
                        target[q_l + i] -= coeff * dcoeff
        if any(any(row) for row in remainder.values()):
            raise InexactDivision("nonzero remainder after %d t-slices" % (t_span + 1))
        t_bounds = (shift, shift + t_span)
        _check_t_range(*t_bounds)
        return LaurentPoly._wrap(quotient, t_bounds)

    def __truediv__(self, other) -> "LaurentPoly":
        return self.exact_div(other)

    # -- evaluation and limits -------------------------------------------

    def eval_at(self, l_value: Rational, t_value: Rational = 1) -> Rational:
        """Exact value at (l, t).  PoleAtZero if t=0 meets a negative t-exponent."""
        l_value = _as_coeff(l_value)
        t_value = _as_coeff(t_value)
        if t_value == 0 and self.min_t_exp() < 0:
            raise PoleAtZero("negative t-exponent evaluated at t=0")
        total: Rational = 0
        l_pows: dict[int, Rational] = {}
        t_pows: dict[int, Rational] = {}
        for key, coeff in self._terms.items():
            l_exp, t_exp = _unpack(key)
            lp = l_pows.get(l_exp)
            if lp is None:
                lp = l_pows[l_exp] = l_value**l_exp
            tp = t_pows.get(t_exp)
            if tp is None:
                if t_exp >= 0:
                    tp = t_value**t_exp
                else:
                    tp = Fraction(1) / Fraction(t_value) ** (-t_exp)
                t_pows[t_exp] = tp
            total = total + coeff * lp * tp
        return _as_coeff(Fraction(total)) if isinstance(total, Fraction) else total

    def limit_t0(self) -> "LaurentPoly":
        """Limit t -> 0: keep t^0 terms, drop positive ones, flag poles."""
        out: dict[int, Rational] = {}
        for key, coeff in self._terms.items():
            l_exp, t_exp = _unpack(key)
            if t_exp < 0:
                raise PoleAtZero(
                    "term with t-exponent %d has no t->0 limit" % t_exp
                )
            if t_exp == 0:
                out[key] = coeff
        return LaurentPoly._wrap(out)

    # -- text form -------------------------------------------------------

    def to_text(self) -> str:
        """Canonical text form, e.g. '1 + 1*l^1 + 3/2*l^2*t^3'."""
        if not self._terms:
            return "0"
        parts = []
        for l_exp, t_exp, coeff in self.terms():
            factors = [str(coeff)]
            if l_exp:
                factors.append("l^%d" % l_exp)
            if t_exp:
                factors.append("t^%d" % t_exp)
            parts.append("*".join(factors))
        return " + ".join(parts)

    def __str__(self) -> str:
        return self.to_text()

    def __repr__(self) -> str:
        return "LaurentPoly(%r)" % self.to_text()

    @classmethod
    def parse(cls, text: str) -> "LaurentPoly":
        """Parse the to_text grammar back into a polynomial."""
        text = text.strip()
        if not text:
            raise ValueError("empty polynomial text")
        if text == "0":
            return ZERO
        terms = []
        for chunk in text.split("+"):
            chunk = chunk.strip()
            if not chunk:
                raise ValueError("malformed polynomial text %r" % text)
            terms.append(_parse_term(chunk))
        return cls(terms)


_TERM_RE = re.compile(r"^(-?\d+(?:/\d+)?)((?:\*[lt]\^-?\d+)*)$")
_FACTOR_RE = re.compile(r"\*([lt])\^(-?\d+)")


def _parse_term(chunk: str) -> tuple[Rational, int, int]:
    match = _TERM_RE.match(chunk.replace(" ", ""))
    if match is None:
        raise ValueError("malformed term %r" % chunk)
    coeff = Fraction(match.group(1))
    l_exp = t_exp = 0
    for var, exp in _FACTOR_RE.findall(match.group(2)):
        if var == "l":
            l_exp += int(exp)
        else:
            t_exp += int(exp)
    if l_exp < 0:
        raise ValueError("negative l-exponent in %r" % chunk)
    return coeff, l_exp, t_exp


ZERO = LaurentPoly._wrap({})
ONE = LaurentPoly._wrap({0: 1})
LAM = LaurentPoly._wrap({STRIDE: 1})
T_VAR = LaurentPoly._wrap({1: 1})
ONE_PLUS_LAM = LaurentPoly._wrap({0: 1, STRIDE: 1})


def parse_rational(text: str) -> Rational:
    """Parse '3', '-2', or '3/2' into an exact rational."""
    return _as_coeff(Fraction(str(text).strip()))


def coerce_entry(value) -> LaurentPoly:
    """Turn an int, Fraction, text form, or polynomial into a LaurentPoly."""
    if isinstance(value, LaurentPoly):
        return value
    if isinstance(value, (int, Fraction)):
        return LaurentPoly.const(value)
    if isinstance(value, str):
        return LaurentPoly.parse(value)
    raise TypeError("cannot interpret %r as a polynomial entry" % (value,))
