"""Ring axioms, exact division, evaluation, and text round-trips."""

from __future__ import annotations

import time
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lambdadet.errors import (
    DivisionByZero,
    ExponentOverflow,
    InexactDivision,
    PoleAtZero,
)
from lambdadet import laurent
from lambdadet.laurent import (
    DICT_MAX_TERMS,
    LAM,
    MAX_T_SPAN,
    ONE,
    ONE_PLUS_LAM,
    T_VAR,
    ZERO,
    LaurentPoly,
    coerce_entry,
    det2,
    parse_rational,
)

coefficients = st.one_of(
    st.integers(-9, 9),
    st.fractions(min_value=-5, max_value=5, max_denominator=6),
)

polys = st.lists(
    st.tuples(coefficients, st.integers(0, 5), st.integers(-4, 4)),
    max_size=6,
).map(LaurentPoly)

nonzero_polys = polys.filter(lambda p: not p.is_zero())

monomials = st.builds(
    LaurentPoly.monomial,
    coefficients.filter(bool),
    st.integers(0, 5),
    st.integers(-4, 4),
)

# Values that reach the packed paths: dense runs of l-coefficients of up
# to 200 bits, l up to about 60, negative t-exponents.
wide_ints = st.integers(-(2**200), 2**200)
wide_rationals = st.one_of(
    wide_ints, st.builds(Fraction, wide_ints, st.integers(1, 2**64))
)


@st.composite
def dense_polys(draw, coefficients=wide_ints):
    t_low = draw(st.integers(-6, 3))
    terms = []
    for t_exp in range(t_low, t_low + draw(st.integers(1, 4))):
        l_low = draw(st.integers(0, 30))
        run = draw(st.lists(coefficients, min_size=1, max_size=30))
        terms += [(coeff, l_low + i, t_exp) for i, coeff in enumerate(run)]
    return LaurentPoly(terms)


def term_by_term_product(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    return LaurentPoly(
        (ca * cb, la + lb, ta + tb)
        for la, ta, ca in a.terms()
        for lb, tb, cb in b.terms()
    )


def all_int(value: LaurentPoly) -> bool:
    return all(type(coeff) is int for _, _, coeff in value.terms())


# Right-hand operands: values, and bare ints and Fractions.
operands = st.one_of(polys, coefficients)


def assert_canonical(value: LaurentPoly) -> None:
    """Coefficients read as ints exactly when integral, and the constructor
    and parse rebuild the value with an equal hash."""
    for _, _, coeff in value.terms():
        assert type(coeff) is int or coeff.denominator != 1
    for rebuilt in (
        LaurentPoly((c, l, t) for l, t, c in value.terms()),
        LaurentPoly.parse(value.to_text()),
    ):
        assert rebuilt == value and hash(rebuilt) == hash(value)


lambda_values = st.one_of(
    st.integers(-4, 4), st.fractions(min_value=-3, max_value=3, max_denominator=4)
)
t_values = lambda_values.filter(lambda v: v != 0)


class TestRingAxioms:
    @given(polys, polys, polys)
    def test_addition_associates_and_commutes(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a

    @given(polys, polys, polys)
    def test_multiplication_distributes(self, a, b, c):
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a

    @given(polys)
    def test_identities(self, a):
        assert a + ZERO == a
        assert a * ONE == a
        assert a - a == ZERO
        assert a * ZERO == ZERO

    @given(polys, st.integers(0, 4))
    def test_power_matches_repeated_product(self, a, k):
        expected = ONE
        for _ in range(k):
            expected = expected * a
        assert a**k == expected

    @given(polys, polys)
    def test_equal_values_share_hashes(self, a, b):
        if a == b:
            assert hash(a) == hash(b)
        assert a + b == b + a
        assert hash(a + b) == hash(b + a)


class TestCanonicalForm:
    @given(polys, operands, operands)
    def test_ring_operations_give_canonical_values(self, a, b, c):
        results = [a + b, a - b, b - a, a * b, b * a, a * b + c, (a - c) * (b + c)]
        if b:
            results.append((a * b).exact_div(b))
        results += [r.limit_t0() for r in results if r.min_t_exp() >= 0]
        for value in results:
            assert_canonical(value)

    def test_integral_results_of_rational_operands_hold_ints(self):
        half = Fraction(1, 2)
        half_lam = LaurentPoly.monomial(half, 1)
        for value, expected in (
            (half_lam * 2, LAM),
            (half_lam + half_lam, LAM),
            ((half * (2 + T_VAR)).limit_t0(), ONE),
            ((LAM + 2).exact_div(half_lam + 1), LaurentPoly.const(2)),
            ((half_lam + 1).exact_div(half_lam + 1), ONE),
        ):
            assert value == expected and hash(value) == hash(expected)
            assert all_int(value)
        assert (half_lam + 1).exact_div(LAM + 2) == LaurentPoly.const(half)


class TestDivision:
    @given(polys, nonzero_polys)
    def test_product_division_round_trip(self, a, b):
        assert (a * b).exact_div(b) == a

    def test_inexact_division_is_refused(self):
        with pytest.raises(InexactDivision):
            (ONE + LAM).exact_div(LAM + 2)
        with pytest.raises(InexactDivision):
            (T_VAR + 1).exact_div(T_VAR - 1)

    @given(polys, polys.filter(lambda p: p.term_count >= 2), monomials)
    def test_adding_a_monomial_breaks_divisibility(self, a, b, m):
        # b would have to divide m, and only monomials divide a monomial.
        with pytest.raises(InexactDivision):
            (a * b + m).exact_div(b)

    @given(polys, nonzero_polys)
    def test_integral_quotient_coefficients_are_ints(self, a, b):
        for _, _, coeff in (a * b).exact_div(b).terms():
            assert not (isinstance(coeff, Fraction) and coeff.denominator == 1)

    def test_long_inexact_division_is_refused_quickly(self):
        start = time.perf_counter()
        with pytest.raises(InexactDivision):
            (T_VAR**400 + 1).exact_div(T_VAR - 1)
        assert time.perf_counter() - start < 2.0
        quotient = (T_VAR**400 - 1).exact_div(T_VAR - 1)
        assert quotient == sum((T_VAR**k for k in range(400)), ZERO)

    def test_inexact_division_by_a_non_unit_lead_is_refused_quickly(self):
        # Each divisor is (t - 2) times a constant, and (t - 2) is primitive,
        # so by Gauss's lemma the quotient's first coefficient, 1/(-2),
        # already proves the division inexact.
        for divisor in (T_VAR - 2, 2 * T_VAR - 4, Fraction(1, 2) * T_VAR - 1):
            start = time.perf_counter()
            with pytest.raises(InexactDivision):
                (T_VAR ** 2**15 + 1).exact_div(divisor)
            assert time.perf_counter() - start < 0.1

    def test_inexact_division_by_a_unit_lead_is_refused_quickly(self):
        # Long division would find 20000 integral quotient coefficients
        # before failing; the values at l = 2 (l = 4 for l - 2), t = 1
        # show at once that no quotient exists.
        for divisor in (LAM + 2, LAM - 2):
            start = time.perf_counter()
            with pytest.raises(InexactDivision):
                (LAM**20000 + 1).exact_div(divisor)
            assert time.perf_counter() - start < 0.1
        quotient = (LAM**300 - 2**300).exact_div(LAM - 2)
        assert quotient == sum((2 ** (299 - k) * LAM**k for k in range(300)), ZERO)

    def test_inexact_division_with_an_empty_l_window_is_refused_quickly(self):
        # deg_l(num) - deg_l(den) = -2 < 0 = ord_l(num) - ord_l(den).
        start = time.perf_counter()
        with pytest.raises(InexactDivision):
            (T_VAR**2000 + 1).exact_div(ONE + LAM**2 * T_VAR)
        assert time.perf_counter() - start < 0.1
        # A quotient term above the window is refused as it appears.
        with pytest.raises(InexactDivision):
            (T_VAR**2000 + LAM**2).exact_div(ONE + LAM**2 * T_VAR)

    def test_sparse_division_by_a_long_divisor_is_quick(self):
        # The quotients span one or two t-slices; past them only the slices
        # that occur are checked, not the 2**24 t-powers between them.
        long = T_VAR ** 2**24 + 1
        start = time.perf_counter()
        assert long.exact_div(long) == ONE
        assert (long * (1 + T_VAR)).exact_div(long) == 1 + T_VAR
        with pytest.raises(InexactDivision):
            (T_VAR ** 2**24 + 2).exact_div(long)
        with pytest.raises(InexactDivision):
            (long + T_VAR ** 2**23).exact_div(long)
        assert time.perf_counter() - start < 0.1

    def test_division_by_zero_is_refused(self):
        with pytest.raises(DivisionByZero):
            ONE.exact_div(ZERO)

    def test_laurent_shifts_divide_exactly(self):
        shifted = LaurentPoly.monomial(Fraction(3, 2), 2, -5)
        assert (ONE_PLUS_LAM * shifted).exact_div(shifted) == ONE_PLUS_LAM
        assert shifted.exact_div(shifted) == ONE

    def test_truediv_operator(self):
        assert (ONE_PLUS_LAM**3) / ONE_PLUS_LAM == ONE_PLUS_LAM**2


class TestPackedArithmetic:
    """Products and quotients of wide dense values against oracles built
    term by term through the constructor."""

    @settings(max_examples=60, deadline=None)
    @given(dense_polys(), dense_polys())
    def test_int_product_matches_the_term_by_term_product(self, a, b):
        product = a * b
        expected = term_by_term_product(a, b)
        assert product == expected and hash(product) == hash(expected)
        assert list(product.terms()) == list(expected.terms())
        assert all_int(product)

    @settings(max_examples=40, deadline=None)
    @given(dense_polys(), dense_polys(wide_rationals))
    def test_mixed_product_matches_the_term_by_term_product(self, a, b):
        assert a * b == term_by_term_product(a, b)

    @settings(max_examples=60, deadline=None)
    @given(dense_polys(), dense_polys().filter(bool))
    def test_int_division_undoes_the_product(self, a, b):
        quotient = (a * b).exact_div(b)
        assert quotient == a and hash(quotient) == hash(a)
        assert all_int(quotient)

    @settings(max_examples=30, deadline=None)
    @given(dense_polys(), dense_polys(wide_rationals).filter(bool))
    def test_mixed_division_undoes_the_product(self, a, b):
        assert (a * b).exact_div(b) == a

    def test_coefficients_at_the_width_bound(self):
        # Every coefficient is +-top, so the middle output coefficient is
        # top * top * m * s, the very bound the packing width comes from.
        top, m, s = 2**150 - 1, 24, 3
        a = LaurentPoly((top, l, t) for l in range(m) for t in range(-1, s - 1))
        for sign in (1, -1):
            b = LaurentPoly((sign * top, l, t) for l in range(m) for t in range(s))
            product = a * b
            assert product == term_by_term_product(a, b)
            assert product.coefficient(m - 1, s - 2) == sign * top * top * m * s
            assert product.exact_div(b) == a and product.exact_div(a) == b
        alternating = LaurentPoly(
            ((-1) ** (l + t) * top, l, t) for l in range(m) for t in range(s)
        )
        assert a * alternating == term_by_term_product(a, alternating)

    def test_product_that_cancels_whole_slices(self):
        p = LaurentPoly((3**l - 2**60, l, 0) for l in range(40))
        q = LaurentPoly((5**l + 7, l, -2) for l in range(40))
        product = (p + q) * (p - q)
        assert product == p * p - q * q == term_by_term_product(p + q, p - q)
        # The p*q cross terms cancel, t^-2 included: only t^0 and t^-4 remain.
        assert [t for t in (-4, -3, -2, -1, 0) if any(
            product.coefficient(l, t) for l in range(80))] == [-4, 0]
        assert product.term_count == (p * p).term_count + (q * q).term_count

    def test_division_whose_remainders_outgrow_the_numerator(self):
        # Each remainder slice r_t = q_t * d_0 peaks near 51 * 70 while the
        # numerator, q * (D + (1 - D) t), stays under 130: the packing
        # width must come from the quotient found so far, not from the
        # numerator alone.
        d_0 = ONE_PLUS_LAM**8
        den = d_0 + (ONE - d_0) * T_VAR
        tent = LaurentPoly((min(t, 100 - t) + 1, 0, t) for t in range(101))
        num = tent * den
        assert max(abs(c) for _, _, c in num.terms()) < 130
        assert num.exact_div(den) == tent

    def test_unpack_round_trips_long_and_short_values(self):
        # 0-700 signed digits, across the 64-digit split, with digits at
        # both ends of their range so that borrows run across the split.
        rng = Random(2500)
        for _ in range(400):
            width = rng.randint(2, 40)
            half = 1 << (width - 1)
            digits = [rng.choice((-half, half - 1, rng.randint(-half, half - 1)))
                      for _ in range(rng.randint(0, 700))]
            while digits and not digits[-1]:
                digits.pop()
            packed = laurent._pack(enumerate(digits), width)
            assert laurent._unpack(packed, width) == digits

    def test_non_primitive_divisor_gives_a_rational_quotient(self):
        a = LaurentPoly((l + 1, l, t) for l in range(12) for t in (-1, 0, 1))
        b = LaurentPoly((6 * (l + 2), l, t) for l in range(10) for t in (0, 1))
        assert (a * b).exact_div(b) == a and all_int((a * b).exact_div(b))
        half = LaurentPoly((Fraction(l + 1, 2), l, t) for l in range(12) for t in (-1, 0, 1))
        assert (a * b).exact_div(b * 2) == half
        with pytest.raises(InexactDivision):
            (a * b + ONE).exact_div(b)


def seeded_poly(rng: Random, terms: int) -> LaurentPoly:
    """terms distinct terms with signed coefficients over a denominator
    of 1 to 6, l-exponents 0..11 and t-exponents -3..3."""
    den = rng.randint(1, 6)
    cells = rng.sample([(l, t) for l in range(12) for t in range(-3, 4)], terms)
    return LaurentPoly(
        (Fraction(rng.choice((-1, 1)) * rng.randint(1, 2**rng.randint(1, 40)), den), l, t)
        for l, t in cells
    )


class TestDet2:
    """det2(nw, ne, sw, se, lam) against nw * se + lam * ne * sw formed on
    the dict path."""

    def test_matches_the_dict_path(self, monkeypatch):
        rng = Random(2402)
        lams = [LAM, LaurentPoly.const(Fraction(-7, 3)), LaurentPoly.monomial(5, 2),
                ONE_PLUS_LAM, LaurentPoly.monomial(2, 1, 1)]
        packed = 0
        for trial in range(120):
            # Term counts straddle DICT_MAX_TERMS, so some calls pack and
            # some fall back to the expression.
            nw, ne, sw, se = (seeded_poly(rng, rng.randint(DICT_MAX_TERMS - 2, 20))
                              for _ in range(4))
            lam = lams[trial % len(lams)]
            with monkeypatch.context() as patched:
                patched.setattr(laurent, "DICT_MAX_TERMS", 10**9)
                expected = nw * se + lam * ne * sw
            got = det2(nw, ne, sw, se, lam)
            assert got == expected and hash(got) == hash(expected)
            assert_canonical(got)
            packed += trial % len(lams) < 3 and min(
                x.term_count for x in (nw, ne, sw, se)) > DICT_MAX_TERMS
        assert 10 < packed < 72

    def test_cancelling_sum(self):
        # nw * se + l * ne * sw is zero when ne * sw = -nw * se / l.
        a = LaurentPoly((l + 1, l, t) for l in range(10) for t in (-1, 0))
        b = LaurentPoly((Fraction(3, l + 1), l, 1) for l in range(10))
        assert det2(a * LAM, a, -b, b, LAM) == ZERO
        assert det2(a, -a, b, b, LaurentPoly.const(1)) == ZERO

    def test_zero_operands(self):
        a = LaurentPoly((l + 1, l, 0) for l in range(10))
        assert det2(ZERO, a, a, a, LAM) == LAM * a * a
        assert det2(a, a, a, a, ZERO) == a * a


class TestLReversal:
    @given(polys, st.integers(0, 4))
    def test_reverses_each_l_exponent(self, a, extra):
        degree = a.max_l_exp() + extra
        reversed_ = a.l_reversed(degree)
        # The same coefficients, so the same denominator, at l^(degree - e).
        assert sorted(reversed_.terms()) == sorted(
            (degree - l, t, c) for l, t, c in a.terms())
        assert_canonical(reversed_)

    @given(polys, st.integers(0, 4))
    def test_is_an_involution(self, a, extra):
        degree = a.max_l_exp() + extra
        assert a.l_reversed(degree).l_reversed(degree) == a

    def test_is_l_to_the_degree_times_the_value_at_one_over_l(self):
        a = LaurentPoly([(Fraction(3, 2), 0, -1), (-4, 2, 0), (5, 3, 2)])
        assert a.l_reversed(5) == LaurentPoly(
            [(Fraction(3, 2), 5, -1), (-4, 3, 0), (5, 2, 2)])
        for l0 in (2, Fraction(-1, 3)):
            assert a.l_reversed(5).eval_at(l0, 2) == l0**5 * a.eval_at(1 / Fraction(l0), 2)
        assert ZERO.l_reversed(0) == ZERO

    def test_refuses_a_degree_below_the_l_degree(self):
        a = LaurentPoly([(1, 0, 0), (2, 3, 1)])
        assert a.max_l_exp() == 3
        a.l_reversed(3)
        with pytest.raises(ValueError, match="l-degree 3 at degree 2"):
            a.l_reversed(2)


class TestExponentRange:
    OLD_LIMIT = 1 << 22  # the t-range that packed exponent keys once held

    def test_product_past_the_old_packed_range_is_exact(self):
        assert T_VAR**5_000_000 * T_VAR**5_000_000 == LaurentPoly.monomial(
            1, 0, 10_000_000
        )
        low = LaurentPoly.monomial(1, 0, -3_000_000)
        high = LaurentPoly.monomial(1, 0, 3_000_000)
        assert high * high == LaurentPoly.monomial(1, 0, 6_000_000)
        product = low * (ONE + low)
        assert (product.min_t_exp(), product.max_t_exp()) == (-6_000_000, -3_000_000)
        assert product.term_count == 2

    def test_power_past_the_old_packed_range_is_exact(self):
        assert (T_VAR**self.OLD_LIMIT).as_monomial() == (1, 0, self.OLD_LIMIT)
        power = LaurentPoly.monomial(1, 1, -1) ** self.OLD_LIMIT
        assert power.as_monomial() == (1, self.OLD_LIMIT, -self.OLD_LIMIT)

    def test_construction_and_shifts_past_the_old_packed_range_are_exact(self):
        assert LaurentPoly.monomial(1, 0, self.OLD_LIMIT).max_t_exp() == self.OLD_LIMIT
        assert LaurentPoly([(1, 0, -self.OLD_LIMIT)]).min_t_exp() == -self.OLD_LIMIT
        low = LaurentPoly.monomial(1, 0, -3_000_000)
        high = LaurentPoly.monomial(1, 0, 3_000_000)
        assert low.exact_div(high) == LaurentPoly.monomial(1, 0, -6_000_000)

    def test_division_shift_past_the_packed_range_raises(self):
        # A shift keeps the numerator's t-span, so a value spanning past the
        # old packed range meets the quotient-span bound before any work.
        wide = T_VAR**self.OLD_LIMIT + 1
        shifts = (
            T_VAR**5,
            LaurentPoly.monomial(1, 1, -5),
            LaurentPoly.monomial(3, 2, 0),
        )
        for shift in shifts:
            start = time.perf_counter()
            with pytest.raises(ExponentOverflow):
                wide.exact_div(shift)
            assert time.perf_counter() - start < 0.1
        low = LaurentPoly.monomial(1, 0, -3_000_000)
        assert (low * LAM).exact_div(low) == LAM

    def test_construction_out_of_range_is_a_value_error(self):
        # l-exponents must stay in Q[l]: no negative power of l is stored.
        with pytest.raises(ValueError):
            LaurentPoly.monomial(1, -1, self.OLD_LIMIT)
        with pytest.raises(ValueError):
            LaurentPoly([(1, 0, 0), (1, -2, -self.OLD_LIMIT)])
        with pytest.raises(ValueError):
            LaurentPoly.parse("l^-1")

    def test_products_up_to_the_bound_are_exact(self):
        top = self.OLD_LIMIT - 1
        value = LaurentPoly.monomial(1, 0, top - 5) * (LAM + T_VAR**5)
        assert value.max_t_exp() == top
        assert value.coefficient(1, top - 5) == 1
        assert T_VAR ** (self.OLD_LIMIT // 2) * T_VAR ** (self.OLD_LIMIT // 2 - 1) == (
            LaurentPoly.monomial(1, 0, top)
        )

    def test_quotient_span_past_the_bound_is_refused_quickly(self):
        for numerator in (T_VAR ** (MAX_T_SPAN + 1) + 1, T_VAR ** (2**22 - 1) + 1):
            start = time.perf_counter()
            with pytest.raises(ExponentOverflow):
                numerator.exact_div(T_VAR - 1)
            assert time.perf_counter() - start < 0.1
        # A quotient of exactly MAX_T_SPAN t-slices is still computed.
        edge = ONE + T_VAR ** (MAX_T_SPAN - 1)
        assert (edge * (ONE + T_VAR)).exact_div(ONE + T_VAR) == edge

    @given(nonzero_polys, nonzero_polys)
    def test_t_range_of_products_and_quotients(self, a, b):
        def rebuilt(p):
            return LaurentPoly((c, l, t) for l, t, c in p.terms())

        for value in (a * b, (a * b).exact_div(b)):
            fresh = rebuilt(value)
            assert value.min_t_exp() == fresh.min_t_exp() == min(
                t for _, t, _ in value.terms()
            )
            assert value.max_t_exp() == fresh.max_t_exp()

    def test_cancelled_slice_leaves_no_empty_slice(self):
        value = (T_VAR + LAM) * (T_VAR - LAM)
        assert value == T_VAR**2 - LAM**2
        assert value.term_count == 2
        total = (ONE + T_VAR) + (-T_VAR)
        assert total == ONE and total.max_t_exp() == 0


class TestEvaluation:
    @given(polys, polys, lambda_values, t_values)
    def test_eval_is_a_ring_homomorphism(self, a, b, l0, t0):
        assert (a * b).eval_at(l0, t0) == a.eval_at(l0, t0) * b.eval_at(l0, t0)
        assert (a + b).eval_at(l0, t0) == a.eval_at(l0, t0) + b.eval_at(l0, t0)

    @given(polys, lambda_values)
    def test_limit_agrees_with_evaluation_at_zero(self, a, l0):
        if a.min_t_exp() < 0:
            with pytest.raises(PoleAtZero):
                a.limit_t0()
            with pytest.raises(PoleAtZero):
                a.eval_at(l0, 0)
        else:
            assert a.limit_t0().eval_at(l0, 1) == a.eval_at(l0, 0)

    def test_limit_drops_positive_powers_only(self):
        poly = ONE + LAM * T_VAR + LaurentPoly.monomial(5, 2, 0)
        assert poly.limit_t0() == ONE + LaurentPoly.monomial(5, 2, 0)

    def test_pole_reports_the_offending_power(self):
        with pytest.raises(PoleAtZero, match="-3"):
            LaurentPoly.monomial(1, 0, -3).limit_t0()


class TestTextForm:
    @given(polys)
    def test_round_trip(self, a):
        assert LaurentPoly.parse(a.to_text()) == a

    def test_canonical_examples(self):
        assert ZERO.to_text() == "0"
        assert ONE.to_text() == "1"
        assert (ONE + LAM).to_text() == "1 + 1*l^1"
        poly = LaurentPoly.monomial(Fraction(-3, 2), 2, -1)
        assert poly.to_text() == "-3/2*l^2*t^-1"
        assert LaurentPoly.parse("-3/2*l^2*t^-1") == poly

    def test_integral_fraction_coefficient_acts_as_its_int(self):
        # An integral product of Fractions reduces to denominator 1: it
        # must compare, hash and print exactly like the int 1.
        value = LaurentPoly.const(Fraction(1, 2)) * 2
        assert value == 1
        assert value == ONE and hash(value) == hash(ONE)
        assert value.to_text() == "1"
        assert str(value) == "1"

    def test_parse_rejects_garbage(self):
        for text in ("", "l^2", "1 +", "2*x^3", "1*l^-1"):
            with pytest.raises(ValueError):
                LaurentPoly.parse(text)

    def test_parse_rational(self):
        assert parse_rational("3") == 3
        assert parse_rational("-2") == -2
        assert parse_rational("3/2") == Fraction(3, 2)

    def test_zero_denominator_is_malformed_text(self):
        for parse, text in (
            (parse_rational, "1/0"),
            (LaurentPoly.parse, "1/0*l^1"),
            (LaurentPoly.parse, "1 + -3/0*t^2"),
        ):
            with pytest.raises(ValueError, match="zero denominator"):
                parse(text)

    def test_coerce_entry(self):
        assert coerce_entry(5) == LaurentPoly.const(5)
        assert coerce_entry("1*t^2") == T_VAR**2
        assert coerce_entry(ONE) is ONE
        with pytest.raises(TypeError):
            coerce_entry(1.5)


class TestStructure:
    @given(polys)
    def test_term_count_matches_iteration(self, a):
        assert a.term_count == sum(1 for _ in a.terms())

    def test_exponent_queries(self):
        poly = LAM**2 * T_VAR**3 + LaurentPoly.monomial(1, 0, -2)
        assert poly.min_t_exp() == -2
        assert poly.max_t_exp() == 3
        assert poly.coefficient(2, 3) == 1
        assert poly.coefficient(1, 1) == 0

    def test_as_monomial(self):
        assert (LAM * T_VAR).as_monomial() == (1, 1, 1)
        assert (ONE + LAM).as_monomial() is None
        assert ZERO.as_monomial() is None

    def test_negative_l_exponent_rejected(self):
        with pytest.raises(ValueError):
            LaurentPoly.monomial(1, -1, 0)
