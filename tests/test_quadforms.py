"""Quadratic forms: reduction, composition, class groups."""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import GROUP_DISCS, brute_force_class_count, random_sl2
from cfq.errors import DomainError
from cfq.quadforms import (
    QuadForm,
    compose,
    enumerate_class_group,
    principal_form,
    reduce_form,
)

# every discriminant from -3 to -400
SMALL_DISCS = [d for d in range(-3, -401, -1) if d % 4 in (0, 1)]

# 167#, the product of the primes up to 167
PRIMORIAL_167 = 962947420735983927056946215901134429196419130606213075415963491270


def moved(f: QuadForm, m) -> QuadForm:
    """The form f(p x + q y, r x + s y) for m = (p, q, r, s)."""
    p, q, r, s = m

    def value(x, y):
        return f.a * x * x + f.b * x * y + f.c * y * y

    b = 2 * f.a * p * q + f.b * (p * s + q * r) + 2 * f.c * r * s
    return QuadForm(value(p, r), b, value(q, s))


class TestQuadForm:
    @pytest.mark.parametrize("form", [(2, 3, 5), (3, -1, 3), (4, -4, 5), (2, 1, 1)])
    def test_not_reduced(self, form):
        # b outside (-a, a], b < 0 when a = c, b = -a, and a > c
        assert not QuadForm(*form).is_reduced()
        assert QuadForm(3, 1, 3).is_reduced() and QuadForm(4, 4, 5).is_reduced()

    @pytest.mark.parametrize("coeffs", [(1.5, 1, 6), (1, 1.0, 6), (1, 1, "6")])
    def test_refuses_non_integers(self, coeffs):
        # a DomainError, so a CfqError; an integral Fraction is stored as an int
        with pytest.raises(DomainError, match="integers"):
            QuadForm(*coeffs)
        f = QuadForm(Fraction(4, 2), 1, 3)
        assert f == QuadForm(2, 1, 3) and type(f.a) is int


class TestReduce:
    def test_already_reduced(self):
        assert reduce_form(QuadForm(1, 1, 18)) == QuadForm(1, 1, 18)

    def test_principal_disc_71(self):
        g = reduce_form(QuadForm(71, -71, 18))
        assert g == QuadForm(1, 1, 18)
        assert moved(g, (1, 0, -1, 1)) == QuadForm(18, -35, 18)
        assert reduce_form(QuadForm(18, -35, 18)) == g

    def test_single_translation(self):
        g = reduce_form(QuadForm(4, 5, 6))
        assert g == QuadForm(4, -3, 5)
        assert g.disc == -71

    def test_idempotent_and_exact(self):
        rng = random.Random(13)
        for f in (QuadForm(12, 23, 34), QuadForm(7, -5, 9), QuadForm(100, 99, 25)):
            g = reduce_form(f)
            assert g.is_reduced()
            assert reduce_form(g) == g
            assert g.disc == f.disc
            for _ in range(20):
                assert reduce_form(moved(f, random_sl2(rng))) == g

    def test_rejects_indefinite(self):
        with pytest.raises(DomainError):
            reduce_form(QuadForm(1, 5, 1))


class TestEquivalent:
    """Two forms are SL2(Z)-equivalent exactly when their reduced forms agree."""

    def test_identity(self):
        f = QuadForm(2, 1, 9)
        assert moved(f, (1, 0, 0, 1)) == f
        assert reduce_form(f) == f

    def test_distinct_reduced_forms(self):
        assert reduce_form(QuadForm(2, 1, 9)) != reduce_form(QuadForm(2, -1, 9))

    def test_equivalent_pair(self):
        f = QuadForm(71, -71, 18)
        assert moved(f, (1, 0, 2, 1)) == QuadForm(1, 1, 18)
        assert reduce_form(f) == QuadForm(1, 1, 18)


# ---------------------------------------------------------------------------
# independent oracle: composition through ideal multiplication in the order


def _form_to_ideal(f: QuadForm):
    d = f.disc
    sigma = d & 1
    m = (-(f.b + sigma)) // 2
    return [(f.a, 0), (m, 1)], d, sigma


def _mul_mod_omega(x1, y1, x2, y2, d, sigma):
    w2 = (d - sigma) // 4
    return (x1 * x2 + y1 * y2 * w2, x1 * y2 + x2 * y1 + y1 * y2 * sigma)


def _hnf(cols):
    """Hermite form [[A, B], [0, C]] of the column span."""
    cols = [c for c in cols if c != (0, 0)]
    while True:
        nz = [c for c in cols if c[1] != 0]
        if len(nz) <= 1:
            break
        nz.sort(key=lambda c: abs(c[1]))
        base = nz[0]
        out = [base]
        for c in cols:
            if c is base:
                continue
            if c[1] != 0:
                q = c[1] // base[1]
                c = (c[0] - q * base[0], c[1] - q * base[1])
            out.append(c)
        cols = out
    ycol = next((c for c in cols if c[1] != 0), None)
    xs = [c[0] for c in cols if c[1] == 0 and c[0] != 0]
    a = 0
    for x in xs:
        a = gcd(a, x)
    assert ycol is not None and a > 0
    b, c = ycol
    if c < 0:
        b, c = -b, -c
    b %= a if a else 1
    return a, b, c


def ideal_class_product(f: QuadForm, g: QuadForm) -> QuadForm:
    """Reduced form of the product of the ideals attached to f and g."""
    gens_f, d, sigma = _form_to_ideal(f)
    gens_g, _, _ = _form_to_ideal(g)
    prods = [
        _mul_mod_omega(x1, y1, x2, y2, d, sigma)
        for x1, y1 in gens_f
        for x2, y2 in gens_g
    ]
    a, b, c = _hnf(prods)
    assert a % c == 0 and b % c == 0
    a, b = a // c, b // c
    bb = -(2 * b + sigma)
    assert (bb * bb - d) % (4 * a) == 0
    return reduce_form(QuadForm(a, bb, (bb * bb - d) // (4 * a)))


class TestCompose:
    def test_identity_law(self):
        g71 = enumerate_class_group(-71)
        principal = g71.classes[0]
        for cls in g71.classes:
            assert compose(principal, cls) == cls

    def test_square_of_2_1_9(self):
        assert compose(QuadForm(2, 1, 9), QuadForm(2, 1, 9)) == QuadForm(4, -3, 5)

    def test_inverse_law(self):
        for d in GROUP_DISCS:
            for cls in enumerate_class_group(d).classes:
                assert compose(cls, cls.inverse()) == principal_form(d)

    def test_mismatched_discriminants(self):
        with pytest.raises(DomainError):
            compose(QuadForm(1, 1, 18), QuadForm(1, 0, 71))

    @pytest.mark.parametrize("d", SMALL_DISCS)
    def test_matches_ideal_multiplication_oracle(self, d):
        classes = enumerate_class_group(d).classes
        for x in classes:
            for y in classes:
                assert compose(x, y) == ideal_class_product(x, y)

    def test_leading_coefficient_with_many_prime_factors(self):
        # 167# shares a factor with every value of the form at |x|, |y| <= 16,
        # so no small change of basis makes the leading coefficients coprime
        c = 963010433647611687898186332141312887752551666219075736327155813474
        f = QuadForm(PRIMORIAL_167, 1, c)
        assert reduce_form(f) == f and len(str(-f.disc)) == 133
        assert compose(f, f) == ideal_class_product(f, f)
        assert compose(f, f.inverse()) == principal_form(f.disc)


class TestEnumerate:
    def test_disc_71(self):
        cg = enumerate_class_group(-71)
        assert cg.class_number == 7
        assert set(cg.classes) == {
            QuadForm(1, 1, 18),
            QuadForm(2, 1, 9), QuadForm(2, -1, 9),
            QuadForm(3, 1, 6), QuadForm(3, -1, 6),
            QuadForm(4, 3, 5), QuadForm(4, -3, 5),
        }

    def test_disc_284_excludes_imprimitive(self):
        cg = enumerate_class_group(-284)
        assert cg.class_number == 7
        reps = set(cg.classes)
        assert QuadForm(1, 0, 71) in reps
        for bad in [QuadForm(2, 2, 36), QuadForm(4, 2, 18), QuadForm(6, 2, 12),
                    QuadForm(6, -2, 12), QuadForm(8, 6, 10)]:
            assert bad not in reps

    @pytest.mark.parametrize("d", [5, 0, -2])
    def test_refuses_non_discriminants(self, d):
        with pytest.raises(DomainError, match="not a negative discriminant"):
            enumerate_class_group(d)

    @pytest.mark.parametrize("d", [-23.0, -23.5, "-23"])
    def test_refuses_non_integers(self, d):
        # a DomainError, not the TypeError of range
        with pytest.raises(DomainError, match="integers"):
            enumerate_class_group(d)
        assert enumerate_class_group(Fraction(-23)) == enumerate_class_group(-23)

    def test_disc_8(self):
        cg = enumerate_class_group(-8)
        assert cg.class_number == 1
        assert cg.classes[0] == QuadForm(1, 0, 2)

    def test_brute_force_oracle_to_400(self):
        for d in range(-3, -401, -1):
            if d % 4 not in (0, 1):
                continue
            assert enumerate_class_group(d).class_number == brute_force_class_count(d), d

    @pytest.mark.parametrize("d", GROUP_DISCS)
    def test_group_laws(self, d):
        cg = enumerate_class_group(d)
        n = cg.class_number
        t = cg.table
        for i in range(n):
            assert t[0][i] == i
            for j in range(n):
                assert t[i][j] == t[j][i]
                for k in range(n):
                    assert t[t[i][j]][k] == t[i][t[j][k]]

    def test_table_built_on_first_use(self, monkeypatch):
        import cfq.quadforms

        calls = []
        original = cfq.quadforms.compose

        def counted(f, g):
            calls.append((f, g))
            return original(f, g)

        monkeypatch.setattr(cfq.quadforms, "compose", counted)
        cg = enumerate_class_group(-284)
        assert calls == []
        table = cg.table
        assert len(calls) == 49
        assert cg.table is table and len(calls) == 49
        assert cg.table[1][cg.inverse_idx(1)] == 0

    @pytest.mark.parametrize("d", GROUP_DISCS + [-56, -104, -200, -3, -4])
    def test_inverse_idx_matches_inverse_class(self, d):
        cg = enumerate_class_group(d)
        for i, cls in enumerate(cg.classes):
            assert cg.inverse_idx(i) == cg.classes.index(reduce_form(cls.inverse()))

    def test_imprimitive_rejected_loudly(self):
        with pytest.raises(DomainError, match="imprimitive"):
            compose(QuadForm(2, 2, 36), QuadForm(1, 0, 71))
        # checked before the discriminants are compared
        with pytest.raises(DomainError, match="imprimitive"):
            compose(QuadForm(1, 1, 18), QuadForm(2, 2, 36))

    @pytest.mark.parametrize("bad", [QuadForm(-1, 0, -71), QuadForm(1, 17, 1)])
    def test_not_positive_definite_rejected_loudly(self, bad):
        # negative definite, and indefinite
        with pytest.raises(DomainError, match="not positive definite"):
            compose(bad, QuadForm(1, 0, 71))
        with pytest.raises(DomainError, match="not positive definite"):
            compose(QuadForm(1, 0, 71), bad)


smallform = st.tuples(
    st.integers(min_value=1, max_value=30),
    st.integers(min_value=-30, max_value=30),
    st.integers(min_value=1, max_value=30),
).map(lambda t: QuadForm(*t)).filter(lambda f: f.disc < 0)


class TestProperties:
    @settings(max_examples=300, deadline=None)
    @given(f=smallform, seed=st.integers(min_value=0, max_value=2**32))
    def test_reduction_preserves_discriminant_exactly(self, f, seed):
        g = reduce_form(f)
        assert g.disc == f.disc
        assert g.is_reduced()
        assert reduce_form(moved(f, random_sl2(random.Random(seed)))) == g

    @settings(max_examples=100, deadline=None)
    @given(f=smallform, seed=st.integers(min_value=0, max_value=2**32))
    def test_unimodular_transform_preserves_discriminant(self, f, seed):
        g = moved(f, random_sl2(random.Random(seed)))
        assert g.disc == f.disc
        assert reduce_form(g) == reduce_form(f)

    @settings(max_examples=200, deadline=None)
    @given(d=st.sampled_from(SMALL_DISCS), i=st.integers(min_value=0),
           j=st.integers(min_value=0), seed=st.integers(min_value=0, max_value=2**32))
    def test_compose_of_moved_forms_is_compose_of_reduced(self, d, i, j, seed):
        # compose reads any primitive forms of a class, not only reduced ones
        classes = enumerate_class_group(d).classes
        f, g = classes[i % len(classes)], classes[j % len(classes)]
        rng = random.Random(seed)
        f2, g2 = moved(f, random_sl2(rng)), moved(g, random_sl2(rng))
        assert reduce_form(f2) == f and reduce_form(g2) == g
        assert compose(f2, g2) == compose(f, g)
