"""Exact sparse arithmetic in the ring Q[l][t, 1/t].

Values are polynomials in the weight variable l (written "l" in text form)
and Laurent polynomials in the perturbation variable t, with exact rational
coefficients.  Negative l-exponents never occur; negative t-exponents are
allowed and matter for the t -> 0 limit step.

Representation: a value is stored the way the ring is built, as Laurent
polynomials in t over Q[l].  A dict maps each t-exponent to its t-slice,
a dict from l-exponent to coefficient:

    {t_exp: {l_exp: coeff}}

with no empty slice and no zero coefficient, so equal values hold equal
dicts.  The smallest and largest t-exponents are the smallest and largest
slice keys, and exact division reads the slices directly.  Exponents are
Python ints, which never wrap, so no operation needs a range check: a
product of t^5000000 and t^5000000 is t^10000000.  Coefficients are ints
or fractions.Fraction.  Construction (the constructor, const, monomial,
parse) and exact division store an integral coefficient as an int, and
ints only ever combine into ints, which keeps the all-integer
condensation runs fast.  Sums and products that involve a Fraction keep
the type Python's arithmetic gives, so an integral coefficient can stay
a Fraction there: const(Fraction(1, 2)) * 2 holds Fraction(1, 1).  Such
a coefficient equals, hashes and prints like its int, so values compare
and print the same either way.  Slices are never changed once a value
holds them, so values may share them.

Exact division is long division in t over Q[l]: the loop runs over the
quotient's t-slices, clearing dense lists of l-coefficients built from
the operands' slices.  It is the one bounded operation: a quotient of
more than MAX_T_SPAN = 2**18 t-slices raises ExponentOverflow before the
loop starts.  At the bound, (t^262144 + 1) / (t - 1) fails in about 1 s
(2-CPU machine, CPython 3.11).  The bound caps the number of slices, not
the work per slice: a divisor whose lowest slice leads with a coefficient
other than +-1, or whose higher slices reach a higher l-degree, grows the
remainder slice by slice, and a long inexact division then costs about
the square of its span ((t^32768 + 1) / (t - 2) takes about 1 s).
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterable, Iterator

from .errors import DivisionByZero, ExponentOverflow, InexactDivision, PoleAtZero

MAX_T_SPAN = 1 << 18

Rational = int | Fraction
Slices = dict[int, dict[int, Rational]]


def _valid_l_exp(l_exp: int) -> int:
    if l_exp < 0:
        raise ValueError("negative l-exponent %d" % l_exp)
    return l_exp


def _as_coeff(value: Rational) -> Rational:
    if isinstance(value, int):
        return value
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    raise TypeError("coefficient must be int or Fraction, got %r" % (value,))


class LaurentPoly:
    """Immutable sparse polynomial in Q[l][t, 1/t]."""

    __slots__ = ("_slices", "_hash")

    def __init__(self, terms: Iterable[tuple[Rational, int, int]] = ()):
        data: Slices = {}
        for coeff, l_exp, t_exp in terms:
            coeff = _as_coeff(coeff)
            l_exp = _valid_l_exp(l_exp)
            row = data.setdefault(t_exp, {})
            acc = row.get(l_exp, 0) + coeff
            if acc:
                row[l_exp] = acc
            else:
                row.pop(l_exp, None)
        self._slices = {t_exp: row for t_exp, row in data.items() if row}
        self._hash: int | None = None

    @classmethod
    def _wrap(cls, slices: Slices) -> "LaurentPoly":
        poly = cls.__new__(cls)
        poly._slices = slices
        poly._hash = None
        return poly

    @classmethod
    def const(cls, value: Rational) -> "LaurentPoly":
        value = _as_coeff(value)
        return cls._wrap({0: {0: value}} if value else {})

    @classmethod
    def monomial(cls, coeff: Rational, l_exp: int = 0, t_exp: int = 0) -> "LaurentPoly":
        coeff = _as_coeff(coeff)
        return cls._wrap({t_exp: {_valid_l_exp(l_exp): coeff}} if coeff else {})

    # -- inspection ------------------------------------------------------

    def terms(self) -> Iterator[tuple[int, int, Rational]]:
        """Yield (l_exp, t_exp, coeff) sorted by (t_exp, l_exp)."""
        for t_exp in sorted(self._slices):
            row = self._slices[t_exp]
            for l_exp in sorted(row):
                yield l_exp, t_exp, row[l_exp]

    @property
    def term_count(self) -> int:
        return sum(map(len, self._slices.values()))

    def is_zero(self) -> bool:
        return not self._slices

    def __bool__(self) -> bool:
        return bool(self._slices)

    def min_t_exp(self) -> int:
        """Smallest t-exponent present, 0 for the zero polynomial."""
        return min(self._slices, default=0)

    def max_t_exp(self) -> int:
        return max(self._slices, default=0)

    def as_monomial(self) -> tuple[Rational, int, int] | None:
        """Return (coeff, l_exp, t_exp) if this is a single term, else None."""
        if len(self._slices) == 1:
            ((t_exp, row),) = self._slices.items()
            if len(row) == 1:
                ((l_exp, coeff),) = row.items()
                return coeff, l_exp, t_exp
        return None

    def coefficient(self, l_exp: int, t_exp: int) -> Rational:
        return self._slices.get(t_exp, {}).get(_valid_l_exp(l_exp), 0)

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
        big, small = self._slices, rhs._slices
        if len(big) < len(small):
            big, small = small, big
        out = dict(big)
        for t_exp, row in small.items():
            target = out.get(t_exp)
            if target is None:
                out[t_exp] = row
                continue
            target = dict(target)
            for l_exp, coeff in row.items():
                acc = target.get(l_exp, 0) + coeff
                if acc:
                    target[l_exp] = acc
                else:
                    del target[l_exp]
            if target:
                out[t_exp] = target
            else:
                del out[t_exp]
        return LaurentPoly._wrap(out)

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._wrap(
            {t: {l: -c for l, c in row.items()} for t, row in self._slices.items()}
        )

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
        a, b = self._slices, rhs._slices
        if not a or not b:
            return ZERO
        out: Slices = {}
        for tb, row_b in b.items():
            for ta, row_a in a.items():
                target = out.get(ta + tb)
                if target is None:
                    target = out[ta + tb] = {}
                get = target.get
                for lb, cb in row_b.items():
                    for la, ca in row_a.items():
                        key = la + lb
                        target[key] = get(key, 0) + ca * cb
        # Only slices where terms cancelled are rebuilt.
        for t_exp in [t for t, row in out.items() if not all(row.values())]:
            row = {l_exp: c for l_exp, c in out[t_exp].items() if c}
            if row:
                out[t_exp] = row
            else:
                del out[t_exp]
        return LaurentPoly._wrap(out)

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
        return self._slices == rhs._slices

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(
                frozenset((t, frozenset(row.items())) for t, row in self._slices.items())
            )
        return self._hash

    # -- division --------------------------------------------------------

    def exact_div(self, other) -> "LaurentPoly":
        """Exact quotient self / other; InexactDivision if it does not divide.

        Slice t of the remainder, for t = 0..t_span - 1 counted from each
        operand's minimal t-power, is cleared from its highest l down
        against the divisor's lowest slice.  Q[l] has no zero divisors, so
        t-spans add under multiplication: an exact quotient spans exactly
        t_span slices, and any remainder left after the loop proves it
        inexact.  A t_span above MAX_T_SPAN raises ExponentOverflow.
        """
        rhs = self._coerce(other)
        if rhs is None:
            raise TypeError("cannot divide by %r" % (other,))
        num, den = self._slices, rhs._slices
        if not den:
            raise DivisionByZero("division by zero polynomial")
        if not num:
            return ZERO
        num_low, den_low = min(num), min(den)
        t_span = (max(num) - num_low) - (max(den) - den_low) + 1
        if t_span > MAX_T_SPAN:
            raise ExponentOverflow(
                "the quotient would span %d t-slices, more than %d"
                % (t_span, MAX_T_SPAN)
            )
        shift = num_low - den_low
        degree, lead = max(den[den_low].items())
        # Each divisor slice's t-offset and its (l_exp, coeff) pairs, sorted by l.
        den_rows = [(t - den_low, sorted(row.items())) for t, row in den.items()]
        # Each numerator slice as a list indexed by l-exponent.
        remainder: dict[int, list[Rational]] = {}
        for t, row in num.items():
            dense = remainder[t - num_low] = [0] * (max(row) + 1)
            for l_exp, coeff in row.items():
                dense[l_exp] = coeff
        quotient: Slices = {}
        for t in range(t_span):
            row = remainder.get(t, ())
            q_row: dict[int, Rational] = {}
            for top_l in range(len(row) - 1, degree - 1, -1):
                top = row[top_l]
                if not top:
                    continue
                if isinstance(top, int) and isinstance(lead, int) and top % lead == 0:
                    coeff: Rational = top // lead
                else:
                    coeff = _as_coeff(Fraction(top) / Fraction(lead))
                q_l = top_l - degree
                q_row[q_l] = coeff
                for s, den_row in den_rows:
                    target = remainder.setdefault(t + s, [])
                    need = q_l + den_row[-1][0] + 1
                    if len(target) < need:
                        target.extend([0] * (need - len(target)))
                    for i, dcoeff in den_row:
                        target[q_l + i] -= coeff * dcoeff
            if q_row:
                quotient[t + shift] = q_row
        if any(any(row) for row in remainder.values()):
            raise InexactDivision("nonzero remainder after %d t-slices" % t_span)
        return LaurentPoly._wrap(quotient)

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
        for t_exp, row in self._slices.items():
            if t_exp >= 0:
                tp = t_value**t_exp
            else:
                tp = Fraction(1) / Fraction(t_value) ** (-t_exp)
            for l_exp, coeff in row.items():
                lp = l_pows.get(l_exp)
                if lp is None:
                    lp = l_pows[l_exp] = l_value**l_exp
                total = total + coeff * lp * tp
        return _as_coeff(Fraction(total)) if isinstance(total, Fraction) else total

    def limit_t0(self) -> "LaurentPoly":
        """Limit t -> 0: keep t^0 terms, drop positive ones, flag poles."""
        low = self.min_t_exp()
        if low < 0:
            raise PoleAtZero("term with t-exponent %d has no t->0 limit" % low)
        row = self._slices.get(0)
        return LaurentPoly._wrap({0: row} if row else {})

    # -- text form -------------------------------------------------------

    def to_text(self) -> str:
        """Canonical text form, e.g. '1 + 1*l^1 + 3/2*l^2*t^3'."""
        if not self._slices:
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
ONE = LaurentPoly._wrap({0: {0: 1}})
LAM = LaurentPoly._wrap({0: {1: 1}})
T_VAR = LaurentPoly._wrap({1: {0: 1}})
ONE_PLUS_LAM = LaurentPoly._wrap({0: {0: 1, 1: 1}})


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
