"""Exact polynomial algebra: the level-71 root relations, checked in integers
against the rational residue-ring reference of conftest."""

from fractions import Fraction
from math import lcm

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    H71,
    H284,
    WEBER,
    polymod_invert,
    polymod_reduce,
    rat,
    rat_add,
    rat_divmod,
    rat_mul,
    reference_root_relation,
)
from cfq.cli import _commas
from cfq.errors import DomainError, InvalidModulusError, NonInvertibleError
import cfq.exactpoly
from cfq.exactpoly import IntPoly, LaurentExpr, _mulmod, _times_y, verify_root_relation


def rp(*coeffs):
    return rat(coeffs)


X7 = rp(*[0] * 7, 1)


def char_poly(expr, modulus: IntPoly) -> IntPoly:
    """The characteristic polynomial of expr(beta) on Q[x]/(modulus), denominators cleared.

    Faddeev-LeVerrier on the exact matrix of multiplication by expr(beta) in
    the basis 1, x, .., x^(d-1); by Cayley-Hamilton expr(beta) is its root.
    """
    m = rat(modulus.coeffs)
    d = modulus.degree
    x = rp(0, 1)
    value = ()
    for e, c in expr.terms:
        base = x if e >= 0 else polymod_invert(x, m)
        power = rp(1)
        for _ in range(abs(e)):
            power = polymod_reduce(rat_mul(power, base), m)
        value = rat_add(value, rat(c * y for y in power))
    columns = [polymod_reduce(rat_mul(value, rp(*[0] * j, 1)), m) for j in range(d)]
    a = [[columns[j][i] if i < len(columns[j]) else Fraction(0) for j in range(d)]
         for i in range(d)]
    coeffs = [Fraction(0)] * d + [Fraction(1)]
    mk = [[Fraction(0)] * d for _ in range(d)]
    for k in range(1, d + 1):
        mk = [[sum(a[i][t] * mk[t][j] for t in range(d)) + (coeffs[d - k + 1] if i == j else 0)
               for j in range(d)] for i in range(d)]
        trace = sum(sum(a[i][t] * mk[t][i] for t in range(d)) for i in range(d))
        coeffs[d - k] = -trace / k
    scale = lcm(*(c.denominator for c in coeffs))
    return IntPoly(c * scale for c in coeffs)


class TestPolymodReduce:
    def test_x_squared_mod_x2_plus_1(self):
        assert polymod_reduce(rp(0, 0, 1), rp(1, 0, 1)) == rp(-1)

    def test_low_degree_unchanged(self):
        p = rp(3, 5)
        assert polymod_reduce(p, rp(1, 2, 3)) == p

    def test_x7_mod_weber(self):
        # frozen from long division; certified by multiplying back below
        expected = rp(1, 1, -1, -1, -1, 1, 2)
        q, r = rat_divmod(X7, rat(WEBER.coeffs))
        assert r == expected
        assert rat_add(rat_mul(q, rat(WEBER.coeffs)), r) == X7
        assert polymod_reduce(X7, rat(WEBER.coeffs)) == expected

    def test_zero_modulus_rejected(self):
        with pytest.raises(InvalidModulusError):
            polymod_reduce(rp(1), rp())

    def test_constant_modulus_rejected(self):
        with pytest.raises(InvalidModulusError):
            polymod_reduce(rp(1, 1), rp(5))


class TestPolymodInvert:
    def test_invert_one(self):
        assert polymod_invert(rp(1), rat(WEBER.coeffs)) == rp(1)

    def test_shared_factor_not_invertible(self):
        with pytest.raises(NonInvertibleError):
            polymod_invert(rp(-1, 1), rp(-1, 0, 1))

    def test_invert_x_mod_weber(self):
        expected = rp(-1, 1, 1, 1, -1, -2, 1)      # x^6-2x^5-x^4+x^3+x^2+x-1
        inv = polymod_invert(rp(0, 1), rat(WEBER.coeffs))
        assert inv == expected
        assert polymod_reduce(rat_mul(rp(0, 1), inv), rat(WEBER.coeffs)) == rp(1)


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

    @pytest.mark.parametrize("modulus", [WEBER, IntPoly([3, -1, 0, 2])], ids=["weber", "non-monic"])
    def test_relation_on_both_chains(self, modulus):
        # beta^5 + beta^2 - beta^-1 - beta^-3 reads two powers from each
        # chain; its characteristic polynomial, denominators cleared, holds
        # and the same with its constant term moved by 1 does not
        expr = LaurentExpr({5: 1, 2: 1, -1: -1, -3: -1})
        target = char_poly(expr, modulus)
        assert verify_root_relation(expr, target, modulus)
        assert reference_root_relation(expr, target, modulus)
        false_target = IntPoly([target[0] + 1, *target.coeffs[1:]])
        assert not verify_root_relation(expr, false_target, modulus)
        assert not reference_root_relation(expr, false_target, modulus)

    def test_disc_71_powers_take_one_chain(self, monkeypatch):
        # y^4, y^5 and y^6 up one chain of 6 shifts by y, then 8 Horner
        # products for the degree-7 target
        calls = []

        def counting(f, g, m):
            calls.append("mulmod")
            return _mulmod(f, g, m)

        def shifting(f, m):
            calls.append("times_y")
            return _times_y(f, m)

        monkeypatch.setattr(cfq.exactpoly, "_mulmod", counting)
        monkeypatch.setattr(cfq.exactpoly, "_times_y", shifting)
        assert verify_root_relation(LaurentExpr({6: -1, 5: 3, 4: -2, 0: 1}), H71, WEBER)
        assert calls == ["times_y"] * 6 + ["mulmod"] * 8

    @pytest.mark.parametrize("modulus,message", [
        (IntPoly([]), "zero polynomial"), (IntPoly([5]), "degree at least 1"),
    ])
    def test_modulus_of_degree_below_one_refused(self, modulus, message):
        with pytest.raises(InvalidModulusError, match=message):
            verify_root_relation(LaurentExpr({1: 1}), H71, modulus)

    def test_negative_power_needs_nonzero_constant(self):
        with pytest.raises(NonInvertibleError):
            verify_root_relation(LaurentExpr({-1: 1}), H71, IntPoly([0, 0, 1]))


class TestLaurentExpr:
    def test_integer_coefficients(self):
        expr = LaurentExpr({2: 1, 0: -1, -1: Fraction(-4, 4), 3: 0})
        assert expr.terms == ((-1, -1), (0, -1), (2, 1))
        assert all(type(c) is int for _, c in expr.terms)

    @pytest.mark.parametrize("c", [Fraction(1, 2), 0.5, 2.0])
    def test_non_integer_coefficient_refused(self, c):
        with pytest.raises(DomainError, match="integers"):
            LaurentExpr({1: 1, 0: c})


coeff = st.integers(min_value=-40, max_value=40)
smallpoly = st.lists(coeff, min_size=0, max_size=6).map(rat)
modulus = st.lists(coeff, min_size=2, max_size=6).map(
    lambda cs: rat(cs[:-1] + [cs[-1] or 1])
)


class TestProperties:
    @settings(max_examples=200, deadline=None)
    @given(p=smallpoly, r=smallpoly, m=modulus)
    def test_reduce_kills_multiples(self, p, r, m):
        assert polymod_reduce(rat_add(rat_mul(p, m), r), m) == polymod_reduce(r, m)

    @settings(max_examples=200, deadline=None)
    @given(g=smallpoly, m=modulus)
    def test_inverse_multiplies_to_one(self, g, m):
        try:
            inv = polymod_invert(g, m)
        except NonInvertibleError:
            return
        assert polymod_reduce(rat_mul(g, inv), m) == rp(1)

    @settings(max_examples=60, deadline=None)
    @given(m=modulus)
    def test_variable_is_root_of_modulus(self, m):
        mi = IntPoly(m)
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


def vanishing_modulus(expr, target) -> IntPoly:
    """x^(k deg) * target(expr(x)) with denominators cleared, k = -min exponent.

    It has beta as a root, so target(expr(beta)) = 0 modulo it.
    """
    k = max(0, -expr.min_exponent())
    numer = ()                               # x^k * expr(x)
    for e, c in expr.terms:
        numer = rat_add(numer, rp(*[0] * (e + k), c))
    acc = ()
    xk = rp(*[0] * k, 1)
    xpow = rp(1)
    for c in reversed(target.coeffs):        # homogeneous Horner in x^k
        acc = rat_add(rat_mul(acc, numer), rat(c * y for y in xpow))
        xpow = rat_mul(xpow, xk)
    scale = lcm(*(c.denominator for c in acc))
    return IntPoly(c * scale for c in acc)


laurent = st.dictionaries(
    st.integers(min_value=-4, max_value=4),
    st.integers(min_value=-9, max_value=9),
    min_size=1,
    max_size=4,
).map(LaurentExpr)
intpoly = st.lists(coeff, min_size=1, max_size=4).map(IntPoly)
intmodulus = st.lists(coeff, min_size=2, max_size=5).map(
    lambda cs: IntPoly(cs[:-1] + [cs[-1] or 3])
)


class TestVerifyRootRelationIntegers:
    """The integer algorithm against the rational reference of conftest."""

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
        false_target = IntPoly([target[0] + shift, *target.coeffs[1:]])
        assert not verify_root_relation(expr, false_target, m)
        assert not reference_root_relation(expr, false_target, m)


class TestTimesY:
    """The shift by y against the full product by y it replaces."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), m=st.lists(st.integers(-(2**80), 2**80), min_size=1, max_size=8))
    def test_matches_the_product_by_y(self, data, m):
        f = data.draw(st.lists(st.integers(-(2**80), 2**80), max_size=len(m)))
        assert _times_y(f, m) == _mulmod(f, [0, 1], m)

    @pytest.mark.parametrize("f,m", [([], [5]), ([1], [5]), ([0, 0, 1], [1, 2, 3]),
                                     ([1, 2, 0], [1, 2, 3]), ([7], [0, 0, 0])])
    def test_edge_cases(self, f, m):
        assert _times_y(f, m) == _mulmod(f, [0, 1], m)


class TestIntPoly:
    def test_text_roundtrip(self):
        text = _commas(*H71.coeffs)
        assert IntPoly(map(int, text.split(","))) == H71
        assert text == "1,0,-2,-3,1,5,4,1"

    def test_refuses_non_integers(self):
        # refused, not truncated to (0, 1); integral Fractions are integers
        with pytest.raises(DomainError, match="integers"):
            IntPoly([0.5, 1.9])
        assert IntPoly([Fraction(6, 2), 1]) == IntPoly([3, 1])
        with pytest.raises(DomainError, match="exponents must be integers"):
            LaurentExpr({1.5: 1})

    def test_leading_zeros_stripped(self):
        assert IntPoly([1, 2, 0, 0]) == IntPoly([1, 2])
        assert IntPoly([0, 0, 0]).is_zero()
