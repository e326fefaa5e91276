"""Elliptic elements, fixed points, orders, and class representatives."""

import pytest

from cfq.elliptic import (
    CMPoint,
    EllipticElement,
    conjugate_in_fricke,
    enumerate_representatives,
    fixed_point,
    from_form,
    order_of,
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

    def test_text_roundtrip(self):
        el = EllipticElement.from_text("1,-36,2", 71)
        assert el == EllipticElement(71, 1, -36, 2)
        assert el.text() == "1,-36,2"

    def test_text_with_level_suffix(self):
        assert EllipticElement.from_text("1,-36,2@71") == EllipticElement(71, 1, -36, 2)
        assert EllipticElement.from_text("0,-1,1@5", 5) == EllipticElement(5, 0, -1, 1)
        with pytest.raises(DomainError):
            EllipticElement.from_text("1,-36,2@71", 5)
        with pytest.raises(DomainError):
            EllipticElement.from_text("1,-36,2")


class TestFromForm:
    def test_fricke_involution(self):
        for n in (2, 5, 71):
            assert from_form(QuadForm(n, 0, 1), n) == EllipticElement(n, 0, -1, 1)

    def test_unit_class_disc_71(self):
        el = from_form(QuadForm(1278, 71, 1), 71)
        assert (abs(el.A), el.B, el.C) == (1, -2, 36)
        assert el.n * el.A**2 + el.B * el.C == -1
        # the fixed point is the classical disc -71 base point
        tau = fixed_point(el)
        assert (tau.u, tau.v, tau.w) == (el.A * 71, 1, 2556)

    def test_doubling_case(self):
        el = from_form(QuadForm(71, -71, 18), 71)
        assert el == EllipticElement(71, 1, -36, 2)

    def test_rejects_non_fricke_shape(self):
        with pytest.raises(DomainError):
            from_form(QuadForm(2, 1, 9), 71)


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


class TestOrderOf:
    def test_fricke_involution_order(self):
        od = order_of(EllipticElement(71, 0, -1, 1))
        assert od.disc == -284
        assert od.generator == "Z[sqrt(-71)]"

    def test_even_case(self):
        od = order_of(EllipticElement(71, 1, -2, 36))
        assert od.disc == -71
        assert od.generator == "Z[(-71+sqrt(-71))/2]"

    def test_parity_rule(self):
        assert order_of(EllipticElement(71, 1, -36, 2)).disc == -71


class TestConjugacy:
    def test_reflexive(self):
        el = EllipticElement(71, 1, -36, 2)
        assert conjugate_in_fricke(el, el)

    def test_distinct_discriminants(self):
        assert not conjugate_in_fricke(
            EllipticElement(71, 0, -1, 1), EllipticElement(71, 1, -36, 2)
        )

    def test_same_class_different_c(self):
        assert conjugate_in_fricke(
            EllipticElement(71, 1, -2, 36), EllipticElement(71, 1, -36, 2)
        )

    def test_level_mismatch(self):
        with pytest.raises(DomainError):
            conjugate_in_fricke(
                EllipticElement(71, 0, -1, 1), EllipticElement(5, 0, -1, 1)
            )


class TestEnumerateRepresentatives:
    def test_disc_284(self):
        reps = enumerate_representatives(71, -284)
        assert len(reps) == 7
        assert reps[0] == EllipticElement(71, 0, -1, 1)
        assert reduce_form(QuadForm(71, 0, 1))[0] == QuadForm(1, 0, 71)

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
            assert order_of(el).disc == disc
            assert reduce_form(el.primitive_form())[0] == cg.classes[i].rep
            for j in range(i):
                assert not conjugate_in_fricke(reps[j], el)

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

    def test_polynomial_discriminant_consistency(self):
        for el in enumerate_representatives(71, -284) + enumerate_representatives(71, -71):
            f = el.form()
            assert f.disc == -4 * 71
            prim = el.primitive_form()
            expected = -71 if (el.B % 2 == 0 and el.C % 2 == 0) else -284
            assert prim.disc == expected
