"""Exact polynomial algebra: residue rings and the level-71 root relations."""

from fractions import Fraction
from math import lcm

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cfq.errors import InvalidModulusError, NonInvertibleError
from cfq.exactpoly import (
    IntPoly,
    LaurentExpr,
    RatPoly,
    polymod_invert,
    polymod_reduce,
    verify_root_relation,
)

WEBER = IntPoly([-1, -1, 1, 1, 1, -1, -2, 1])     # x^7-2x^6-x^5+x^4+x^3+x^2-x-1
H284 = IntPoly([-11, 4, 18, 5, -11, -7, 0, 1])
H71 = IntPoly([1, 0, -2, -3, 1, 5, 4, 1])


def rp(*coeffs):
    return RatPoly([Fraction(c) for c in coeffs])


class TestPolymodReduce:
    def test_x_squared_mod_x2_plus_1(self):
        assert polymod_reduce(rp(0, 0, 1), rp(1, 0, 1)) == rp(-1)

    def test_low_degree_unchanged(self):
        p = rp(3, 5)
        assert polymod_reduce(p, rp(1, 2, 3)) == p

    def test_x7_mod_weber(self):
        # frozen from long division; certified by multiplying back below
        expected = rp(1, 1, -1, -1, -1, 1, 2)
        q, r = IntPoly.x_power(7).to_rat().divmod(WEBER.to_rat())
        assert r == expected
        assert q * WEBER.to_rat() + r == IntPoly.x_power(7).to_rat()
        assert polymod_reduce(IntPoly.x_power(7).to_rat(), WEBER.to_rat()) == expected

    def test_zero_modulus_rejected(self):
        with pytest.raises(InvalidModulusError):
            polymod_reduce(rp(1), rp())

    def test_constant_modulus_rejected(self):
        with pytest.raises(InvalidModulusError):
            polymod_reduce(rp(1, 1), rp(5))


class TestPolymodInvert:
    def test_invert_one(self):
        assert polymod_invert(rp(1), WEBER.to_rat()) == rp(1)

    def test_shared_factor_not_invertible(self):
        with pytest.raises(NonInvertibleError):
            polymod_invert(rp(-1, 1), rp(-1, 0, 1))

    def test_invert_x_mod_weber(self):
        expected = rp(-1, 1, 1, 1, -1, -2, 1)      # x^6-2x^5-x^4+x^3+x^2+x-1
        inv = polymod_invert(rp(0, 1), WEBER.to_rat())
        assert inv == expected
        assert polymod_reduce(rp(0, 1) * inv, WEBER.to_rat()) == rp(1)


class TestVerifyRootRelation:
    def test_root_of_own_minimal_polynomial(self):
        assert verify_root_relation(LaurentExpr({1: 1}), WEBER, WEBER)

    def test_disc_284_relation(self):
        assert verify_root_relation(LaurentExpr({2: 1, 0: -1, -1: -1}), H284, WEBER)

    def test_disc_71_relation(self):
        assert verify_root_relation(
            LaurentExpr({6: -1, 5: 3, 4: -2, 0: 1}), H71, WEBER
        )

    def test_wrong_relation_is_false(self):
        assert not verify_root_relation(LaurentExpr({2: 1, 0: -1}), H284, WEBER)

    def test_negative_power_needs_nonzero_constant(self):
        with pytest.raises(NonInvertibleError):
            verify_root_relation(LaurentExpr({-1: 1}), H71, IntPoly([0, 0, 1]))


coeff = st.integers(min_value=-40, max_value=40)
smallpoly = st.lists(coeff, min_size=0, max_size=6).map(RatPoly)
modulus = st.lists(coeff, min_size=2, max_size=6).map(
    lambda cs: RatPoly(cs[:-1] + [cs[-1] or 1])
).filter(lambda m: m.degree >= 1)


class TestProperties:
    @settings(max_examples=200, deadline=None)
    @given(p=smallpoly, r=smallpoly, m=modulus)
    def test_reduce_kills_multiples(self, p, r, m):
        assert polymod_reduce(p * m + r, m) == polymod_reduce(r, m)

    @settings(max_examples=200, deadline=None)
    @given(g=smallpoly, m=modulus)
    def test_inverse_multiplies_to_one(self, g, m):
        try:
            inv = polymod_invert(g, m)
        except NonInvertibleError:
            return
        assert polymod_reduce(g * inv, m) == RatPoly([1])

    @settings(max_examples=60, deadline=None)
    @given(m=modulus)
    def test_variable_is_root_of_modulus(self, m):
        mi = IntPoly([c.numerator for c in m.coeffs]) if all(
            c.denominator == 1 for c in m.coeffs
        ) else None
        if mi is None or mi.degree < 1:
            return
        assert verify_root_relation(LaurentExpr({1: 1}), mi, mi)

    @settings(max_examples=200, deadline=None)
    @given(
        a=st.integers(min_value=-10**12, max_value=10**12).filter(bool),
        b=st.integers(min_value=1, max_value=10**12),
    )
    def test_rational_reciprocal_roundtrip(self, a, b):
        x = Fraction(a, b)
        assert x * (1 / x) == 1
        assert Fraction(x.numerator, x.denominator) == x


def reference_root_relation(expr, target, modulus):
    """target(expr(beta)) in Q[x]/(modulus) by long division and inversion."""
    m = modulus.to_rat()
    x = RatPoly([0, 1])
    value = RatPoly(())
    for e, c in expr.terms:
        base = x if e >= 0 else polymod_invert(x, m)
        power = RatPoly([1])
        for _ in range(abs(e)):
            power = polymod_reduce(power * base, m)
        value = value + power.scale(c)
    acc = RatPoly(())
    for c in reversed(target.coeffs):
        acc = polymod_reduce(acc * value, m) + RatPoly([c])
    return polymod_reduce(acc, m).is_zero()


def vanishing_modulus(expr, target) -> IntPoly:
    """x^(k deg) * target(expr(x)) with denominators cleared, k = -min exponent.

    It has beta as a root, so target(expr(beta)) = 0 modulo it.
    """
    k = max(0, -expr.min_exponent())
    numer = RatPoly(())                      # x^k * expr(x)
    for e, c in expr.terms:
        numer = numer + RatPoly([0] * (e + k) + [c])
    acc = RatPoly(())
    xk = RatPoly([0] * k + [1])
    xpow = RatPoly([1])
    for c in reversed(target.coeffs):        # homogeneous Horner in x^k
        acc = acc * numer + xpow.scale(c)
        xpow = xpow * xk
    scale = lcm(*(c.denominator for c in acc.coeffs))
    return IntPoly(c * scale for c in acc.coeffs)


laurent = st.dictionaries(
    st.integers(min_value=-4, max_value=4),
    st.fractions(min_value=-9, max_value=9, max_denominator=6),
    min_size=1,
    max_size=4,
).map(LaurentExpr)
intpoly = st.lists(coeff, min_size=1, max_size=4).map(IntPoly)
intmodulus = st.lists(coeff, min_size=2, max_size=5).map(
    lambda cs: IntPoly(cs[:-1] + [cs[-1] or 3])
)


class TestVerifyRootRelationIntegers:
    """The integer algorithm against the rational reference above."""

    @settings(max_examples=300, deadline=None)
    @given(expr=laurent, target=intpoly, m=intmodulus)
    def test_matches_reference(self, expr, target, m):
        if expr.min_exponent() < 0 and m[0] == 0:
            with pytest.raises(NonInvertibleError):
                verify_root_relation(expr, target, m)
            return
        assert verify_root_relation(expr, target, m) == reference_root_relation(
            expr, target, m
        )

    @settings(max_examples=150, deadline=None)
    @given(
        expr=laurent,
        target=st.lists(coeff, min_size=2, max_size=4).map(IntPoly),
        shift=coeff.filter(bool),
    )
    def test_true_and_false_relations(self, expr, target, shift):
        m = vanishing_modulus(expr, target)
        assume(m.degree >= 1)
        assert verify_root_relation(expr, target, m)
        assert reference_root_relation(expr, target, m)
        # target(v) + shift = shift, a nonzero constant modulo m
        false_target = target + IntPoly([shift])
        assert not verify_root_relation(expr, false_target, m)
        assert not reference_root_relation(expr, false_target, m)


class TestIntPoly:
    def test_text_roundtrip(self):
        assert IntPoly.from_text(H71.text()) == H71
        assert H71.text() == "1,0,-2,-3,1,5,4,1"

    def test_leading_zeros_stripped(self):
        assert IntPoly([1, 2, 0, 0]) == IntPoly([1, 2])
        assert IntPoly([0, 0, 0]).is_zero()

    def test_derivative(self):
        assert IntPoly([5, 3, 2]).derivative() == IntPoly([3, 4])
