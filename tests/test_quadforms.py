"""Quadratic forms: reduction, composition, class groups."""

from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import brute_force_class_count
from cfq.errors import DomainError
from cfq.quadforms import (
    IdealClass,
    QuadForm,
    SL2Matrix,
    compose,
    enumerate_class_group,
    equivalent,
    principal_form,
    reduce_form,
)

GROUP_DISCS = [-71, -284, -8, -20, -24]


class TestReduce:
    def test_already_reduced(self):
        g, u = reduce_form(QuadForm(1, 1, 18))
        assert g == QuadForm(1, 1, 18)
        assert u == SL2Matrix.identity()

    def test_principal_disc_71(self):
        g, u = reduce_form(QuadForm(71, -71, 18))
        assert g == QuadForm(1, 1, 18)
        assert QuadForm(71, -71, 18).transform(u) == g

    def test_single_translation(self):
        g, _ = reduce_form(QuadForm(4, 5, 6))
        assert g == QuadForm(4, -3, 5)
        assert g.disc == -71

    def test_idempotent_and_exact(self):
        for f in (QuadForm(12, 23, 34), QuadForm(7, -5, 9), QuadForm(100, 99, 25)):
            g, u = reduce_form(f)
            assert f.transform(u) == g
            assert reduce_form(g)[0] == g
            assert u.p * u.s - u.q * u.r == 1
            assert g.disc == f.disc

    def test_rejects_indefinite(self):
        with pytest.raises(DomainError):
            reduce_form(QuadForm(1, 5, 1))


class TestEquivalent:
    def test_identity(self):
        assert equivalent(QuadForm(2, 1, 9), QuadForm(2, 1, 9)) == SL2Matrix.identity()

    def test_distinct_reduced_forms(self):
        assert equivalent(QuadForm(2, 1, 9), QuadForm(2, -1, 9)) is None

    def test_equivalent_pair(self):
        u = equivalent(QuadForm(71, -71, 18), QuadForm(1, 1, 18))
        assert u is not None
        assert QuadForm(71, -71, 18).transform(u) == QuadForm(1, 1, 18)


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
    return reduce_form(QuadForm(a, bb, (bb * bb - d) // (4 * a)))[0]


class TestCompose:
    def test_identity_law(self):
        g71 = enumerate_class_group(-71)
        principal = g71.classes[0]
        for cls in g71.classes:
            assert compose(principal, cls) == cls

    def test_square_of_2_1_9(self):
        c = compose(IdealClass(QuadForm(2, 1, 9)), IdealClass(QuadForm(2, 1, 9)))
        assert c.rep == QuadForm(4, -3, 5)

    def test_inverse_law(self):
        for d in GROUP_DISCS:
            for cls in enumerate_class_group(d).classes:
                assert compose(cls, cls.inverse()).rep == principal_form(d)

    def test_mismatched_discriminants(self):
        with pytest.raises(DomainError):
            compose(IdealClass(QuadForm(1, 1, 18)), IdealClass(QuadForm(1, 0, 71)))

    @pytest.mark.parametrize("d", GROUP_DISCS)
    def test_matches_ideal_multiplication_oracle(self, d):
        classes = enumerate_class_group(d).classes
        for x in classes:
            for y in classes:
                assert compose(x, y).rep == ideal_class_product(x.rep, y.rep)


class TestEnumerate:
    def test_disc_71(self):
        cg = enumerate_class_group(-71)
        assert cg.class_number == 7
        assert {c.rep for c in cg.classes} == {
            QuadForm(1, 1, 18),
            QuadForm(2, 1, 9), QuadForm(2, -1, 9),
            QuadForm(3, 1, 6), QuadForm(3, -1, 6),
            QuadForm(4, 3, 5), QuadForm(4, -3, 5),
        }

    def test_disc_284_excludes_imprimitive(self):
        cg = enumerate_class_group(-284)
        assert cg.class_number == 7
        reps = {c.rep for c in cg.classes}
        assert QuadForm(1, 0, 71) in reps
        for bad in [QuadForm(2, 2, 36), QuadForm(4, 2, 18), QuadForm(6, 2, 12),
                    QuadForm(6, -2, 12), QuadForm(8, 6, 10)]:
            assert bad not in reps

    def test_disc_8(self):
        cg = enumerate_class_group(-8)
        assert cg.class_number == 1
        assert cg.classes[0].rep == QuadForm(1, 0, 2)

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
        assert cg.compose_idx(1, cg.inverse_idx(1)) == 0

    @pytest.mark.parametrize("d", GROUP_DISCS + [-56, -104, -200, -3, -4])
    def test_inverse_idx_matches_inverse_class(self, d):
        cg = enumerate_class_group(d)
        for i, cls in enumerate(cg.classes):
            assert cg.inverse_idx(i) == cg.index_of(cls.inverse())

    def test_imprimitive_rejected_loudly(self):
        with pytest.raises(DomainError):
            IdealClass(QuadForm(2, 2, 36))


smallform = st.tuples(
    st.integers(min_value=1, max_value=30),
    st.integers(min_value=-30, max_value=30),
    st.integers(min_value=1, max_value=30),
).map(lambda t: QuadForm(*t)).filter(lambda f: f.disc < 0)


class TestProperties:
    @settings(max_examples=300, deadline=None)
    @given(f=smallform)
    def test_reduction_preserves_discriminant_exactly(self, f):
        g, u = reduce_form(f)
        assert g.disc == f.disc
        assert g.is_reduced()
        assert f.transform(u) == g

    @settings(max_examples=100, deadline=None)
    @given(f=smallform, k=st.integers(min_value=-5, max_value=5))
    def test_unimodular_transform_preserves_discriminant(self, f, k):
        u = SL2Matrix.translation(k) * SL2Matrix.flip()
        assert f.transform(u).disc == f.disc
