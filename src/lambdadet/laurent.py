"""Exact sparse arithmetic in the ring Q[l][t, 1/t].

Values are polynomials in the weight variable l (written "l" in text form)
and Laurent polynomials in the perturbation variable t, with exact rational
coefficients.  Negative l-exponents never occur; negative t-exponents are
allowed and matter for the t -> 0 limit step.

Representation: a value is an integral numerator over one positive int
denominator.  The numerator is stored the way the ring is built, as
Laurent polynomials in t over Z[l]: a dict maps each t-exponent to its
t-slice, a dict from l-exponent to int coefficient:

    {t_exp: {l_exp: coeff}} / den

with no empty slice and no zero coefficient.  The form is canonical: den
shares no factor with every coefficient (the zero value has den 1), so
equal values hold equal dicts and denominators.  The constructor, const,
monomial and parse clear denominators with their lcm; a sum over unequal
denominators uses their lcm, a product multiplies them, and any result
whose den is not 1 is reduced by the gcd of den and its content.  A value
with den 1 never meets that reduction, so integral runs cost what they
did on plain ints.  terms(), coefficient(), as_monomial() and eval_at()
divide den back in, so a coefficient reads as an int exactly when it is
integral, as a Fraction otherwise.  The smallest and largest t-exponents
are the smallest and largest slice keys.  Exponents are Python ints,
which never wrap, so no operation needs a range check: a product of
t^5000000 and t^5000000 is t^10000000.  Slices are never changed once a
value holds them, so values may share them.

Packed slices.  A t-slice, packed, is one Python int: its value at
l = 2**B, sum of coeff * 2**(B * l_exp).  Packing is a ring map from Z[l],
so a product of two slices is one bigint product, and a sum of such
products is one bigint sum.  The result unpacks to its coefficients as
signed base-2**B digits, a digit at or above 2**(B-1) being negative and
borrowing one from the next, provided every coefficient lies strictly
inside +-2**(B-1).  The width rule makes sure of that: an output
coefficient of a * b sums at most m * s products of two input
coefficients, where m is the smaller of the operands' longest slices
(max l + 1) and s the smaller of their slice counts, so

    B = bitlen(max|a| * max|b| * m * s) + 2.

Every slice holds ints, so a product whose operands hold more than
DICT_MAX_TERMS terms each, rational or not, packs every slice once,
multiplies the slices pairwise, sums the products per output t-exponent
and unpacks each output slice once.  A smaller product, where packing
costs more than it saves, takes the dict loop over pairs of terms.
DICT_MAX_TERMS = 8 comes from timing both paths on every product of the
benchmark's diamond and ASM workloads, grouped by the smaller operand's
term count: the dict loop won up to 6 terms, whatever the number of
slices, the two were even from 7 to 17, and packing won beyond.

Exact division is long division in t over Z[l], one quotient slice at a
time (see exact_div), after the divisor's content (the gcd of its
coefficients) is divided out.  The divisor is then primitive, so by
Gauss's lemma an exact quotient of the numerators is integral, and the
first quotient coefficient that is not an integer ends the division:
(t^32768 + 1) / (2t - 4) fails at once.  With more than DICT_MAX_TERMS
divisor terms, each slice's remainder is formed as one packed dot
product.  The cut-off is the product's, counted on the divisor: timing
both paths on every division of one diamond_limit batch (395), grouped
by divisor term count, packing lost by 10-20% up to 8 terms, the two were
even from 9 to 20, and packing won beyond (0.033 -> 0.021 s on the 41
divisions of 21-60 terms, 0.119 -> 0.048 s on the 15 larger ones).

What bounds division.  In t: a quotient of more than MAX_T_SPAN = 2**18
t-slices raises ExponentOverflow before the loop starts, the loop walks
the quotient's slices densely and past them only the slices that occur,
and at the bound (t^262144 + 1) / (t - 1) fails in about 1.3 s (2-CPU
machine, CPython 3.11).  In l: the window of possible quotient
l-exponents, and Gauss's lemma, which stops a quotient whose coefficients
leave Z.  A unit lead in l escapes the lemma: (l^N + 1) / (l + 2) would
clear N integral quotient terms, doubling each time.  So when the window
is wider than CHECK_WINDOW = 256 l-exponents, the integral quotient's
value at (l0, 1) is checked first: the divisor's value there must divide
the numerator's at l0 = 2, 3 and 4 (a point where the divisor vanishes
is skipped), and (l^20000 + 1) / (l + 2) fails at l0 = 2 at once.  No
window on the benchmark's diamond and reproduce traffic is wider than 66,
so the check costs them nothing.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Iterator

from .errors import DivisionByZero, ExponentOverflow, InexactDivision, PoleAtZero

MAX_T_SPAN = 1 << 18
DICT_MAX_TERMS = 8
CHECK_WINDOW = 256

Rational = int | Fraction
Slices = dict[int, dict[int, int]]

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


def _ratio(coeff: int, den: int) -> Rational:
    """coeff / den, an int when it is integral."""
    return coeff if den == 1 else _as_coeff(Fraction(coeff, den))


def _term_count(slices: Slices) -> int:
    return sum(map(len, slices.values()))


def _content(slices: Slices, start: int = 0) -> int:
    """gcd of start and every coefficient, stopping once it reaches 1."""
    for row in slices.values():
        start = gcd(start, *row.values())
        if start == 1:
            break
    return start


def _scaled(slices: Slices, factor: int) -> Slices:
    if factor == 1:
        return slices
    return {t: {l: c * factor for l, c in row.items()} for t, row in slices.items()}


def _divided(slices: Slices, divisor: int) -> Slices:
    """slices with every coefficient divided by divisor, which divides them all."""
    return {t: {l: c // divisor for l, c in row.items()} for t, row in slices.items()}


def _value_at(slices: Slices, l_value: int, modulus: int | None = None) -> int:
    """The value at (l_value, t = 1), reduced mod modulus if one is given."""
    total = sum(
        c * pow(l_value, l, modulus) for row in slices.values() for l, c in row.items()
    )
    return total % modulus if modulus else total


def _int_shape(slices: Slices) -> tuple[int, int]:
    """(largest |coeff|, longest slice as max l + 1)."""
    top = length = 0
    for row in slices.values():
        top = max(top, max(map(abs, row.values())))
        length = max(length, max(row))
    return top, length + 1


def _pack(pairs: Iterable[tuple[int, int]], width: int) -> int:
    """Sum of coeff * 2**(width * l_exp): the slice evaluated at l = 2**width."""
    packed = 0
    for l_exp, coeff in pairs:
        packed += coeff << (width * l_exp)
    return packed


def _unpack(packed: int, width: int) -> list[int]:
    """The signed base-2**width digits of packed, lowest first.

    The inverse of _pack for coefficients inside +-2**(width - 1): a digit
    at or above half the base is negative and borrows one from the next.
    """
    digits = []
    mask = (1 << width) - 1
    half = 1 << (width - 1)
    while packed:
        digit = packed & mask
        packed >>= width
        if digit >= half:
            digit -= mask + 1
            packed += 1
        digits.append(digit)
    return digits


def _packed_product(
    a: Slices, b: Slices, shape_a: tuple[int, int], shape_b: tuple[int, int]
) -> Slices:
    """a * b for int slices: one bigint product per pair of t-slices."""
    # An output coefficient sums at most m * s products of two input
    # coefficients, m the shorter longest slice and s the fewer slices.
    bound = shape_a[0] * shape_b[0] * min(shape_a[1], shape_b[1]) * min(len(a), len(b))
    width = bound.bit_length() + 2
    packed_a = [(t, _pack(row.items(), width)) for t, row in a.items()]
    sums: dict[int, int] = {}
    for tb, row in b.items():
        pb = _pack(row.items(), width)
        for ta, pa in packed_a:
            sums[ta + tb] = sums.get(ta + tb, 0) + pa * pb
    out: Slices = {}
    for t, packed in sums.items():
        row = {l_exp: c for l_exp, c in enumerate(_unpack(packed, width)) if c}
        if row:
            out[t] = row
    return out


class LaurentPoly:
    """Immutable sparse polynomial in Q[l][t, 1/t]."""

    __slots__ = ("_slices", "_den", "_hash")

    def __init__(self, terms: Iterable[tuple[Rational, int, int]] = ()):
        data: dict[int, dict[int, Rational]] = {}
        for coeff, l_exp, t_exp in terms:
            coeff = _as_coeff(coeff)
            l_exp = _valid_l_exp(l_exp)
            row = data.setdefault(t_exp, {})
            acc = row.get(l_exp, 0) + coeff
            if acc:
                row[l_exp] = acc
            else:
                row.pop(l_exp, None)
        # No prime divides both the lcm of the reduced denominators and
        # every numerator it yields, so the result is already canonical.
        den = lcm(*(c.denominator for row in data.values() for c in row.values()))
        self._slices = {
            t_exp: {l_exp: c.numerator * (den // c.denominator) for l_exp, c in row.items()}
            for t_exp, row in data.items()
            if row
        }
        self._den = den
        self._hash: int | None = None

    @classmethod
    def _wrap(cls, slices: Slices, den: int = 1) -> "LaurentPoly":
        """The value slices / den, which must already be canonical."""
        poly = cls.__new__(cls)
        poly._slices = slices
        poly._den = den
        poly._hash = None
        return poly

    @classmethod
    def _reduced(cls, slices: Slices, den: int) -> "LaurentPoly":
        """The value slices / den in canonical form."""
        common = _content(slices, den)
        if common != 1:
            slices, den = _divided(slices, common), den // common
        return cls._wrap(slices, den)

    @classmethod
    def const(cls, value: Rational) -> "LaurentPoly":
        value = _as_coeff(value)
        return cls._wrap({0: {0: value.numerator}} if value else {}, value.denominator)

    @classmethod
    def monomial(cls, coeff: Rational, l_exp: int = 0, t_exp: int = 0) -> "LaurentPoly":
        coeff = _as_coeff(coeff)
        return cls._wrap(
            {t_exp: {_valid_l_exp(l_exp): coeff.numerator}} if coeff else {},
            coeff.denominator,
        )

    # -- inspection ------------------------------------------------------

    def terms(self) -> Iterator[tuple[int, int, Rational]]:
        """Yield (l_exp, t_exp, coeff) sorted by (t_exp, l_exp)."""
        for t_exp in sorted(self._slices):
            row = self._slices[t_exp]
            for l_exp in sorted(row):
                yield l_exp, t_exp, _ratio(row[l_exp], self._den)

    @property
    def term_count(self) -> int:
        return _term_count(self._slices)

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
                return _ratio(coeff, self._den), l_exp, t_exp
        return None

    def coefficient(self, l_exp: int, t_exp: int) -> Rational:
        coeff = self._slices.get(t_exp, {}).get(_valid_l_exp(l_exp), 0)
        return _ratio(coeff, self._den)

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
        big, small, den = self._slices, rhs._slices, self._den
        if den != rhs._den:
            den = lcm(den, rhs._den)
            big = _scaled(big, den // self._den)
            small = _scaled(small, den // rhs._den)
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
        return LaurentPoly._wrap(out) if den == 1 else LaurentPoly._reduced(out, den)

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._wrap(
            {t: {l: -c for l, c in row.items()} for t, row in self._slices.items()},
            self._den,
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
        den = self._den * rhs._den
        if min(_term_count(a), _term_count(b)) > DICT_MAX_TERMS:
            out = _packed_product(a, b, _int_shape(a), _int_shape(b))
        else:
            out = {}
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
        return LaurentPoly._wrap(out) if den == 1 else LaurentPoly._reduced(out, den)

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
        return self._den == rhs._den and self._slices == rhs._slices

    def __hash__(self) -> int:
        if self._hash is None:
            key = frozenset((t, frozenset(row.items())) for t, row in self._slices.items())
            self._hash = hash(key) if self._den == 1 else hash((key, self._den))
        return self._hash

    # -- division --------------------------------------------------------

    def exact_div(self, other) -> "LaurentPoly":
        """Exact quotient self / other; InexactDivision if it does not divide.

        The numerators divide over Z[l][t, 1/t] once the divisor's content
        c is divided out, and the quotient is (n / (d / c)) * den(other) /
        (c * den(self)), reduced.  Long division in t over Z[l]: counted
        from each operand's lowest t-power, quotient slice q_t solves
        q_t * d_0 = r_t, where d_0 is the divisor's lowest slice and
        r_t = n_t - sum_{s>=1} q_{t-s} * d_s.  Each r_t is divided in l by
        d_0 from its highest term down.  Z[l] has no zero divisors, so
        t-spans add under multiplication: an exact quotient spans exactly
        t_span slices, every r_t past them must be zero, and so must every
        l-remainder.  The loop walks t = 0 .. t_span - 1 densely, and past
        t_span only the t where some n_t or some q_{t-s} * d_s occurs, so a
        t_span above MAX_T_SPAN, refused with ExponentOverflow before any
        work, is the only bound in t it needs: (t^N + 1) / (t^N + 1) takes
        one step and two checks for any N.  The quotient's l-exponents lie
        in [ord_l(num) - ord_l(den), deg_l(num) - deg_l(den)], again as
        Z[l] has no zero divisors: an empty window, or a quotient term
        outside it, raises InexactDivision, and so does a window wider than
        CHECK_WINDOW whose values at (l0, 1) do not divide (module
        docstring).  The divisor is primitive, so Gauss's lemma makes an
        exact quotient integral, and the first quotient coefficient that is
        not an integer raises InexactDivision.

        A divisor of more than DICT_MAX_TERMS terms forms each r_t as one
        packed dot product (module docstring), unpacked once: r_t's
        coefficients are bounded by |n| + |q| * |d| * m * s (largest
        coefficients so far, m the shorter of the longest q- and d-slices,
        s the number of products), and the width B from that bound only
        grows, so packed slices are reused until it does.  A smaller
        divisor forms r_t on dense lists: the dict path.
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
        l_low = min(map(min, num.values())) - min(map(min, den.values()))
        l_high = max(map(max, num.values())) - max(map(max, den.values()))
        if l_low > l_high:
            raise InexactDivision(
                "the quotient's l-exponents would lie in [%d, %d]" % (l_low, l_high)
            )
        content = _content(den)
        if content != 1:
            den = _divided(den, content)
        if l_high - l_low >= CHECK_WINDOW:
            for l0 in (2, 3, 4):
                at = _value_at(den, l0)
                if at and _value_at(num, l0, abs(at)):
                    raise InexactDivision(
                        "at l = %d, t = 1 the divisor's value does not divide "
                        "the numerator's" % l0
                    )
        low_row = sorted(den[den_low].items())
        degree, lead = low_row[-1]
        # The divisor's higher slices: t-offset, sorted (l_exp, coeff) pairs.
        den_rows = [
            (t - den_low, sorted(row.items())) for t, row in den.items() if t != den_low
        ]
        packed_path = _term_count(den) > DICT_MAX_TERMS
        if packed_path:
            num_top, _ = _int_shape(num)
            den_top, den_len = _int_shape(den)
        quotient: Slices = {}
        q_top = q_len = width = 0
        q_packs: dict[int, int] = {}
        d_packs: dict[int, int] = {}
        # t -> the (t - s, s, d_s) whose product q_{t-s} * d_s r_t subtracts.
        pending: dict[int, list[tuple[int, int, list[tuple[int, int]]]]] = {}

        def steps() -> Iterator[int]:
            yield from range(t_span)
            # Past t_span only the slices some n_t or q_{t-s} * d_s reaches
            # can be nonzero; every such t has been queued by now.
            tail = {t - num_low for t in num if t - num_low >= t_span}
            yield from sorted(tail.union(pending))

        for t in steps():
            row = num.get(t + num_low, {})
            terms = pending.pop(t, ())
            if not (row or terms):
                continue
            if packed_path and terms:
                bound = num_top + q_top * den_top * min(q_len, den_len) * len(terms)
                if bound.bit_length() + 2 > width:
                    width = bound.bit_length() + 2
                    q_packs.clear()
                    d_packs.clear()
                packed = _pack(row.items(), width)
                for tq, s, d_row in terms:
                    pq = q_packs.get(tq)
                    if pq is None:
                        pq = q_packs[tq] = _pack(quotient[tq].items(), width)
                    pd = d_packs.get(s)
                    if pd is None:
                        pd = d_packs[s] = _pack(d_row, width)
                    packed -= pq * pd
                remainder = _unpack(packed, width)
            else:
                remainder = [0] * (max(row, default=-1) + 1)
                for l_exp, coeff in row.items():
                    remainder[l_exp] = coeff
                for tq, _, d_row in terms:
                    q_row = quotient[tq]
                    need = max(q_row) + d_row[-1][0] + 1
                    if len(remainder) < need:
                        remainder.extend([0] * (need - len(remainder)))
                    for q_l, q_coeff in q_row.items():
                        for d_l, d_coeff in d_row:
                            remainder[q_l + d_l] -= q_coeff * d_coeff
            q_row = {}
            if t < t_span:
                for top_l in range(len(remainder) - 1, degree - 1, -1):
                    top = remainder[top_l]
                    if not top:
                        continue
                    q_l = top_l - degree
                    if not l_low <= q_l <= l_high:
                        raise InexactDivision(
                            "quotient term l^%d lies outside [%d, %d]" % (q_l, l_low, l_high)
                        )
                    if top % lead:
                        raise InexactDivision(
                            "quotient coefficient %s/%s is not an integer" % (top, lead)
                        )
                    coeff = q_row[q_l] = top // lead
                    for i, d_coeff in low_row:
                        remainder[q_l + i] -= coeff * d_coeff
                remainder = remainder[:degree]
            if any(remainder):
                raise InexactDivision("nonzero remainder at t-slice %d of %d" % (t, t_span))
            if q_row:
                quotient[t] = q_row
                for s, d_row in den_rows:
                    pending.setdefault(t + s, []).append((t, s, d_row))
                if packed_path:
                    q_top = max(q_top, max(map(abs, q_row.values())))
                    q_len = max(q_len, max(q_row) + 1)
        shift = num_low - den_low
        out = _scaled({t + shift: row for t, row in quotient.items()}, rhs._den)
        out_den = content * self._den
        return LaurentPoly._wrap(out) if out_den == 1 else LaurentPoly._reduced(out, out_den)

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
        if self._den == 1 and isinstance(total, int):
            return total
        return _as_coeff(Fraction(total) / self._den)

    def limit_t0(self) -> "LaurentPoly":
        """Limit t -> 0: keep t^0 terms, drop positive ones, flag poles."""
        low = self.min_t_exp()
        if low < 0:
            raise PoleAtZero("term with t-exponent %d has no t->0 limit" % low)
        row = self._slices.get(0)
        return LaurentPoly._reduced({0: row} if row else {}, self._den)

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
    coeff = _fraction(match.group(1))
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


def _fraction(text: str) -> Fraction:
    """Fraction(text), refusing a zero denominator as malformed text."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError("zero denominator in %r" % text) from None


def parse_rational(text: str) -> Rational:
    """Parse '3', '-2', or '3/2' into an exact rational."""
    return _as_coeff(_fraction(str(text).strip()))


def coerce_entry(value) -> LaurentPoly:
    """Turn an int, Fraction, text form, or polynomial into a LaurentPoly."""
    if isinstance(value, LaurentPoly):
        return value
    if isinstance(value, (int, Fraction)):
        return LaurentPoly.const(value)
    if isinstance(value, str):
        return LaurentPoly.parse(value)
    raise TypeError("cannot interpret %r as a polynomial entry" % (value,))
