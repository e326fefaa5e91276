"""BigComplex arithmetic, polynomial assembly, rounding, root finding."""

import pytest
from mpmath import mp

from conftest import bc
from cfq.errors import DomainError, RoundingFailureError
from cfq.exactpoly import IntPoly, LaurentExpr, verify_root_relation
from cfq.numerics import (
    BigComplex,
    PrecisionPolicy,
    find_roots,
    poly_from_roots,
    round_to_int_poly,
)

H284 = IntPoly([-11, 4, 18, 5, -11, -7, 0, 1])
WEBER = IntPoly([-1, -1, 1, 1, 1, -1, -2, 1])


class TestBigComplex:
    def test_operations_at_max_precision(self):
        x = bc(1.5, 0, 128)
        y = bc(2, 1, 256)
        assert (x + y).prec == 256
        assert (x * y).prec == 256

    def test_division(self):
        x = bc(1, 1, 128)
        q = x / x
        assert abs(q.re - 1) < mp.mpf(2) ** -120 and abs(q.im) < mp.mpf(2) ** -120
        with pytest.raises(ZeroDivisionError):
            x / bc(0, 0, 128)

    def test_negation_and_conjugate_keep_precision(self):
        with mp.workprec(256):
            z = BigComplex.from_mpc(mp.mpc(1, 2) / 3, 256)
        # sums, not negations, so the check itself cannot round to 53 bits
        assert (-z).re + z.re == 0 and (-z).im + z.im == 0
        assert z.conjugate().re == z.re and z.conjugate().im + z.im == 0

    def test_exact_small_integers(self):
        v = BigComplex.from_int(7, 96)
        assert v.re == 7 and v.im == 0 and v.prec == 96


class TestPolyFromRoots:
    def test_two_real_roots(self):
        coeffs = poly_from_roots([bc(1, 0, 128), bc(2, 0, 128)])
        vals = [c.re for c in coeffs]
        assert [int(round(float(v))) for v in vals] == [2, -3, 1]

    def test_conjugate_pair(self):
        coeffs = poly_from_roots([bc(0, 1, 128), bc(0, -1, 128)])
        rounded, residual = round_to_int_poly(coeffs, mp.mpf(2) ** -32)
        assert rounded == IntPoly([1, 0, 1])
        assert residual < mp.mpf(2) ** -120

    def test_conjugation_closed_imag_bound(self):
        prec = 160
        roots = [bc(0.5, 1.25, prec), bc(0.5, -1.25, prec),
                 bc(-2, 0.75, prec), bc(-2, -0.75, prec), bc(3, 0, prec)]
        coeffs = poly_from_roots(roots)
        bound = mp.mpf(2) ** (-prec + 3 + 4)
        assert all(abs(c.im) < bound for c in coeffs)


class TestRoundToIntPoly:
    def test_near_integers(self):
        coeffs = [bc("2.0000000001", 0, 128), bc("-3.0000000002", 0, 128)]
        poly, residual = round_to_int_poly(coeffs, 1e-6)
        assert poly == IntPoly([2, -3])
        assert mp.mpf("0.9e-10") < residual < mp.mpf("3e-10")

    def test_failure_carries_residual(self):
        with pytest.raises(RoundingFailureError) as exc:
            round_to_int_poly([bc(0.5, 0, 128), bc(1, 0, 128)], 1e-6)
        assert abs(exc.value.residual - mp.mpf("0.5")) < 1e-12

    def test_rejects_bad_tolerance(self):
        with pytest.raises(DomainError):
            round_to_int_poly([bc(1, 0, 128)], 0)


class TestFindRoots:
    def test_quadratic(self):
        roots = find_roots(IntPoly([1, 0, 1]), 128)
        got = sorted((float(r.re), float(r.im)) for r in roots)
        assert abs(got[0][1] + 1) < 1e-30 and abs(got[1][1] - 1) < 1e-30

    def test_cube_roots_of_unity(self):
        roots = find_roots(IntPoly([-1, 0, 0, 1]), 128)
        with mp.workprec(160):
            for r in roots:
                assert abs(r.to_mpc() ** 3 - 1) < mp.mpf(2) ** -60

    def test_rejects_repeated_roots(self):
        with pytest.raises(DomainError):
            find_roots(IntPoly([1, 2, 1]), 128)     # (x+1)^2

    def test_weber_roots_feed_disc284_relation(self):
        prec = 128
        roots = find_roots(WEBER, prec)
        with mp.workprec(prec + 16):
            for beta in (r.to_mpc() for r in roots):
                image = beta**2 - 1 - 1 / beta
                value = mp.mpc(0)
                for c in reversed(H284.coeffs):
                    value = value * image + c
                assert abs(value) < mp.mpf(2) ** -40
        # and the same fact exactly
        assert verify_root_relation(LaurentExpr({2: 1, 0: -1, -1: -1}), H284, WEBER)

    def test_roots_then_reassembly(self):
        prec = 160
        roots = find_roots(H284, prec)
        coeffs = poly_from_roots(roots)
        poly, residual = round_to_int_poly(coeffs, mp.mpf(2) ** -32)
        assert poly == H284
        assert residual < mp.mpf(2) ** (-prec // 2)
        # successful rounding implies the integer polynomial nearly vanishes
        # at every input root
        norm = max(abs(c) for c in poly.coeffs)
        with mp.workprec(prec + 16):
            for r in roots:
                value = mp.mpc(0)
                for c in reversed(poly.coeffs):
                    value = value * r.to_mpc() + c
                assert abs(value) < mp.mpf(2) ** (-prec // 4) * norm


class TestPrecisionPolicy:
    def test_default_start(self):
        policy = PrecisionPolicy()
        assert policy.initial_bits(7) == 128
        assert policy.initial_bits(30) == 332

    def test_validation(self):
        with pytest.raises(DomainError):
            PrecisionPolicy(start_bits=32)
        with pytest.raises(DomainError):
            PrecisionPolicy(start_bits=256, max_bits=128)

    def test_tolerance(self):
        assert PrecisionPolicy().tolerance(128) == mp.mpf(2) ** -32
