"""Elliptic elements, fixed points, orders, and class representatives."""

from fractions import Fraction

import pytest

from cfq.elliptic import (
    CMPoint,
    EllipticElement,
    enumerate_representatives,
    fixed_point,
)
from cfq.errors import DomainError
from cfq.hauptmodul import FRICKE_LEVELS, GAMMA0_LEVELS
from cfq.quadforms import QuadForm, enumerate_class_group, reduce_form


class TestEllipticElement:
    def test_invariant_enforced(self):
        EllipticElement(71, 1, -36, 2)
        with pytest.raises(DomainError):
            EllipticElement(71, 1, -36, 3)
        with pytest.raises(DomainError):
            EllipticElement(71, 1, 36, -2)

    def test_matrix_has_trace_zero_det_one(self):
        # sqrt(n) [[A, B/n], [C, -A]]: det = n(-A^2 - BC/n) = -(nA^2+BC) = 1
        for el in (EllipticElement(71, 0, -1, 1), EllipticElement(71, 5, -222, 8)):
            assert el.n * el.A**2 + el.B * el.C == -1

    def test_level_must_be_positive(self):
        with pytest.raises(DomainError, match="level must be positive"):
            EllipticElement(0, 0, -1, 1)

    @pytest.mark.parametrize("entries", [(71.0, 0, -1, 1), (71, 0, -1, 1.0), (71, "0", -1, 1)])
    def test_refuses_non_integers(self, entries):
        # a DomainError, so a CfqError; an integral Fraction is stored as an int
        with pytest.raises(DomainError, match="integers"):
            EllipticElement(*entries)
        el = EllipticElement(Fraction(142, 2), 0, -1, 1)
        assert el == EllipticElement(71, 0, -1, 1) and type(el.n) is int


class TestFixedPoint:
    def test_fricke_fixed_point(self):
        tau = fixed_point(EllipticElement(71, 0, -1, 1))
        assert (tau.u, tau.v, tau.w) == (0, 1, 71)

    def test_case_two_base_point(self):
        n = 71
        el = EllipticElement(n, 1, -2, (n + 1) // 2)
        tau = fixed_point(el)
        # (2n + 2 sqrt(-n)) / (n(n+1)) after gcd normalization
        assert (tau.u, tau.v, tau.w) == (n, 1, n * (n + 1) // 2)

    def test_direct_substitution(self):
        tau = fixed_point(EllipticElement(71, 1, -36, 2))
        assert (tau.u, tau.v, tau.w) == (71, 1, 142)

    def test_gcd_normalization(self):
        tau = CMPoint(4, 2, 6, 5)
        assert (tau.u, tau.v, tau.w) == (2, 1, 3)
        with pytest.raises(DomainError):
            CMPoint(1, -1, 2, 5)

    @pytest.mark.parametrize("coords", [(0.5, 1, 1, 1), (0, 1, 1.0, 1), (0, 1, 1, "5")])
    def test_refuses_non_integers(self, coords):
        # a DomainError, so a CfqError, not the TypeError of gcd
        with pytest.raises(DomainError, match="integers"):
            CMPoint(*coords)
        assert CMPoint(Fraction(8, 2), 2, 6, 5) == CMPoint(2, 1, 3, 5)

    @pytest.mark.parametrize("coords,message", [
        ((1, 0, 2, 5), "v != 0 and w != 0"),
        ((1, 1, 0, 5), "v != 0 and w != 0"),
        ((1, 1, 2, 0), "level must be positive"),
    ])
    def test_refuses_degenerate_points(self, coords, message):
        with pytest.raises(DomainError, match=message):
            CMPoint(*coords)

    def test_negative_w_normalized(self):
        # (1 - sqrt(-5)) / -2 is stored with w > 0
        tau = CMPoint(1, -1, -2, 5)
        assert (tau.u, tau.v, tau.w, tau.n) == (-1, 1, 2, 5)


class TestOrderOf:
    def test_fricke_involution_order(self):
        assert EllipticElement(71, 0, -1, 1).disc == -284

    def test_even_case(self):
        assert EllipticElement(71, 1, -2, 36).disc == -71

    def test_parity_rule(self):
        assert EllipticElement(71, 1, -36, 2).disc == -71

    def test_even_entries_force_level_3_mod_4(self):
        # n A^2 + B C = -1 with B and C even makes A odd and n = 3 mod 4,
        # so disc -n is a discriminant: every such element with n <= 200
        # and C <= 60
        even = []
        for n in range(1, 201):
            for c in range(2, 61, 2):
                for a in range(c):
                    b, r = divmod(-(1 + n * a * a), c)
                    if r == 0 and b % 2 == 0:
                        even.append(EllipticElement(n, a, b, c))
        assert len(even) == 1198
        assert all(el.n % 4 == 3 and el.disc == -el.n for el in even)


class TestConjugacy:
    """Elements are conjugate in the Fricke group when their orders agree and
    their primitive forms have the same reduced form."""

    def test_reflexive(self):
        el = EllipticElement(71, 1, -36, 2)
        assert reduce_form(el.primitive_form()) == reduce_form(el.primitive_form())

    def test_distinct_discriminants(self):
        a, b = EllipticElement(71, 0, -1, 1), EllipticElement(71, 1, -36, 2)
        assert a.disc != b.disc

    def test_same_class_different_c(self):
        a, b = EllipticElement(71, 1, -2, 36), EllipticElement(71, 1, -36, 2)
        assert a.disc == b.disc
        assert a.primitive_form() != b.primitive_form()
        assert reduce_form(a.primitive_form()) == reduce_form(b.primitive_form())


class TestEnumerateRepresentatives:
    def test_disc_284(self):
        reps = enumerate_representatives(71, -284)
        assert len(reps) == 7
        assert reps[0] == EllipticElement(71, 0, -1, 1)
        assert reduce_form(QuadForm(71, 0, 1)) == QuadForm(1, 0, 71)

    def test_disc_71_minimal_c(self):
        reps = enumerate_representatives(71, -71)
        assert len(reps) == 7
        assert reps[0] == EllipticElement(71, 1, -36, 2)

    def test_fourteen_points_total(self):
        total = len(enumerate_representatives(71, -284)) + len(
            enumerate_representatives(71, -71)
        )
        assert total == 14

    @pytest.mark.parametrize("n,disc", [(71, -71), (71, -284), (2, -8), (7, -7)])
    def test_pairwise_nonconjugate_and_aligned(self, n, disc):
        cg = enumerate_class_group(disc)
        reps = enumerate_representatives(n, disc, cg)
        assert len(reps) == cg.class_number
        for i, el in enumerate(reps):
            assert el.disc == disc
            assert reduce_form(el.primitive_form()) == cg.classes[i]
            for j in range(i):
                assert reduce_form(reps[j].primitive_form()) != reduce_form(el.primitive_form())

    def test_search_has_no_c_bound(self):
        # the class (2, 0, 659) holds no element below C = 661 = 2 + 659,
        # past 64 h = 640, where the search used to stop
        n, disc = 1318, -5272
        cg = enumerate_class_group(disc)
        reps = enumerate_representatives(n, disc, cg)
        assert [(el.A, el.B, el.C) for el in reps] == [
            (0, -1, 1), (330, -217141, 661), (7, -3799, 17), (10, -7753, 17), (6, -2063, 23),
            (17, -16561, 23), (22, -21997, 29), (7, -2227, 29), (25, -19157, 43), (18, -9931, 43),
        ]
        # every element with C <= 661; n is even, so B and C are odd and
        # the form of each is primitive of discriminant -4n
        least = {}
        for c in range(1, 662):
            for a in range(c):
                if (1 + n * a * a) % c == 0:
                    form = reduce_form(QuadForm(n * c, -2 * n * a, (1 + n * a * a) // c))
                    least.setdefault(form, c)
        assert [el.C for el in reps] == [least[f] for f in cg.classes]
        assert [reduce_form(el.form()) for el in reps] == list(cg.classes)

    def test_inverse_classes_are_mirror_images(self):
        # singular_values saves an evaluation only on a mirror pair; the
        # minimal-C search gives one for every class that is not its own
        # inverse, at every catalog level
        pairs = 0
        for n in sorted(GAMMA0_LEVELS | FRICKE_LEVELS):
            for disc in [-4 * n] + ([-n] if n % 4 == 3 else []):
                cg = enumerate_class_group(disc)
                if cg.class_number > 50:
                    continue
                reps = enumerate_representatives(n, disc, cg)
                for i, el in enumerate(reps):
                    j = cg.inverse_idx(i)
                    if j == i:
                        continue
                    mirror = reps[j]
                    assert mirror.C == el.C, (n, disc, i)
                    assert (el.A + mirror.A) % el.C == 0, (n, disc, i)
                    pairs += 1
        assert pairs == 82

    def test_invalid_disc(self):
        with pytest.raises(DomainError):
            enumerate_representatives(5, -5)       # 5 = 1 mod 4

    def test_class_group_of_other_disc_refused(self):
        # refused at once, instead of a full scan that finds no element
        with pytest.raises(DomainError, match=r"-284.*-71"):
            enumerate_representatives(71, -71, enumerate_class_group(-284))
        with pytest.raises(DomainError, match=r"-71.*-284"):
            enumerate_representatives(71, -284, enumerate_class_group(-71))

    def test_polynomial_discriminant_consistency(self):
        for el in enumerate_representatives(71, -284) + enumerate_representatives(71, -71):
            f = el.form()
            assert f.disc == -4 * 71
            prim = el.primitive_form()
            expected = -71 if (el.B % 2 == 0 and el.C % 2 == 0) else -284
            assert prim.disc == expected
