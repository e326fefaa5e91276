"""Eta engine: Dedekind sums, transformation law, quotients."""

import math
import random
from fractions import Fraction
from math import gcd

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from conftest import cm_mpc, cpx, eta_direct_series, mobius, random_sl2, rounded
import cfq.eta
from cfq.elliptic import enumerate_representatives, fixed_point
from cfq.errors import DomainError
from cfq.eta import EtaQuotientSpec, _ascend, _eta_series, dedekind_sum, eta, eta_quotient
from cfq.hauptmodul import catalog_lookup
from cfq.numerics import _GUARD, _fixed_series
from cfq.quadforms import enumerate_class_group


def dedekind_sum_by_definition(h: int, k: int) -> Fraction:
    """Direct summation oracle: s(h,k) = sum ((r/k))((hr/k))."""

    def saw(x: Fraction) -> Fraction:
        if x.denominator == 1:
            return Fraction(0)
        return x - x.numerator // x.denominator - Fraction(1, 2)

    return sum(
        (saw(Fraction(r, k)) * saw(Fraction(h * r, k)) for r in range(1, k)),
        Fraction(0),
    )


class TestDedekindSum:
    def test_empty_sum(self):
        assert dedekind_sum(0, 1) == 0

    def test_small_values(self):
        assert dedekind_sum(1, 3) == Fraction(1, 18)
        assert dedekind_sum(2, 3) == Fraction(-1, 18)

    def test_against_definition(self):
        for k in range(1, 26):
            for h in range(k):
                if gcd(h, k) == 1:
                    assert dedekind_sum(h, k) == dedekind_sum_by_definition(h, k)

    def test_reciprocity_500_random_pairs(self):
        rng = random.Random(20260808)
        done = 0
        while done < 500:
            h = rng.randint(1, 4000)
            k = rng.randint(1, 4000)
            if gcd(h, k) != 1:
                continue
            lhs = dedekind_sum(h, k) + dedekind_sum(k, h)
            rhs = Fraction(-1, 4) + (
                Fraction(h, k) + Fraction(k, h) + Fraction(1, h * k)
            ) / 12
            assert lhs == rhs
            done += 1

    def test_rejects_common_factor(self):
        with pytest.raises(DomainError):
            dedekind_sum(2, 4)


PREC = 128


class TestEta:
    def test_translation_law(self):
        t0 = eta(cpx(0, 2, PREC), PREC)
        t1 = eta(cpx(1, 2, PREC), PREC)
        with mp.workprec(PREC + 16):
            assert abs(t1 / t0 - mp.exp(mp.mpc(0, 1) * mp.pi / 12)) < mp.mpf(2) ** (-PREC + 8)

    def test_value_at_i_against_direct_series(self):
        got = eta(cpx(0, 1, PREC), PREC)
        with mp.workprec(PREC + 16):
            want = eta_direct_series(mp.mpc(0, 1), PREC)
            assert abs(got - want) < mp.mpf(2) ** (-PREC + 8)
            # also the closed form Gamma(1/4) / (2 pi^(3/4))
            closed = mpmath.gamma(mp.mpf(1) / 4) / (2 * mp.pi ** (mp.mpf(3) / 4))
            assert abs(got - closed) < mp.mpf(2) ** (-PREC + 8)

    def test_inversion_law(self):
        with mp.workprec(PREC + 16):
            tau = mp.mpc(0.5, 2)
            lhs = eta(rounded(-1 / tau, PREC), PREC)
            rhs = mp.sqrt(mp.mpc(0, -1) * tau) * eta(rounded(tau, PREC), PREC)
            assert abs(lhs - rhs) < mp.mpf(2) ** (-PREC + 10)

    def test_rejects_lower_half_plane(self):
        with pytest.raises(DomainError):
            eta(cpx(0, -1, PREC), PREC)

    def test_transformation_law_500_pairs(self):
        rng = random.Random(987654)
        with mp.workprec(PREC + 32):
            tol = mp.mpf(2) ** (-PREC + 12)
            for _ in range(500):
                a, b, c, d = random_sl2(rng)
                tau = mp.mpc(rng.uniform(-0.5, 0.5), rng.uniform(0.4, 1.8))
                lhs = eta(rounded(mobius((a, b, c, d), tau), PREC), PREC)
                rhs0 = eta(rounded(tau, PREC), PREC)
                if c == 0:
                    factor = mp.exp(mp.mpc(0, 1) * mp.pi * (b * d) / 12)
                    rhs = factor * rhs0
                else:
                    cc, dd = (c, d) if c > 0 else (-c, -d)
                    s = dedekind_sum(dd, cc)
                    r = Fraction(a * (1 if c > 0 else -1) + dd, 12 * cc) - s - Fraction(1, 4)
                    eps = mp.exp(mp.mpc(0, 1) * mp.pi * r.numerator / r.denominator)
                    rhs = eps * mp.sqrt(cc * tau + dd) * rhs0
                assert abs(lhs - rhs) < tol

    def test_periodicity_multiplier_chain(self):
        # 24 unit translations multiply the value by exp(24 * pi i / 12) = 1
        with mp.workprec(PREC):
            total = mp.exp(mp.mpc(0, 1) * mp.pi * 24 / 12)
            assert abs(total - 1) < mp.mpf(2) ** (-PREC + 4)
            re0 = mp.mpf(3) / 10
            tau0 = mp.mpc(re0, mp.mpf(9) / 10)
            tau24 = mp.mpc(re0 + 24, mp.mpf(9) / 10)
        v0 = eta(tau0, PREC)
        v24 = eta(tau24, PREC)
        assert abs(v0 - v24) < mp.mpf(2) ** (-PREC + 10)

    def test_doubling_precision_halves_error(self):
        rng = random.Random(13)
        for _ in range(10):
            tau_re = rng.uniform(-0.5, 0.5)
            tau_im = rng.uniform(0.3, 2.0)
            for p in (96, 128, 192):
                lo = eta(cpx(tau_re, tau_im, p), p)
                hi = eta(cpx(tau_re, tau_im, 2 * p), 2 * p)
                with mp.workprec(2 * p):
                    assert abs(lo - hi) < mp.mpf(2) ** (-p + 10)


class TestEtaQuotient:
    def test_single_factor_equals_eta(self):
        spec = EtaQuotientSpec([(1, 1)])
        tau = cpx(0.2, 1.1, PREC)
        assert eta_quotient(spec, tau, PREC)[0] == eta(tau, PREC)

    def test_level2_against_product_oracle(self):
        spec = EtaQuotientSpec([(1, 24), (2, -24)])
        tau = cpx(0, 3, PREC)
        got, _ = eta_quotient(spec, tau, PREC)
        with mp.workprec(PREC + 32):
            q = mp.exp(2j * mp.pi * mp.mpc(0, 3))
            prod = mp.mpf(1)
            m = 1
            while True:
                factor = ((1 - q**m) / (1 - q ** (2 * m))) ** 24
                prod *= factor
                if abs(q**m) < mp.mpf(2) ** (-PREC - 16):
                    break
                m += 1
            want = prod / q
            assert abs(got - want) < mp.mpf(2) ** (-PREC + 10) * abs(want)

    def test_fricke_fixed_point_value(self):
        spec = EtaQuotientSpec([(1, 24), (2, -24)])
        with mp.workprec(PREC):
            tau = mp.mpc(0, 1) / mp.sqrt(2)
        got, _ = eta_quotient(spec, tau, PREC)
        assert abs(got - 64) < mp.mpf(2) ** (-PREC + 16)

    def test_spec_validation(self):
        with pytest.raises(DomainError):
            EtaQuotientSpec([])
        with pytest.raises(DomainError):
            EtaQuotientSpec([(1, 0)])
        with pytest.raises(DomainError):
            EtaQuotientSpec([(0, 3)])


@st.composite
def domain_points(draw):
    """(x, y, w): a point x + iy of the fundamental domain and a precision w."""
    x = draw(st.floats(min_value=-0.5, max_value=0.5))
    y = math.sqrt(1 - x * x) + draw(st.floats(min_value=0, max_value=3))
    return x, y, draw(st.integers(min_value=64, max_value=1100))


class TestEtaSeriesKernel:
    """The pentagonal series summed by the fixed-point kernel."""

    @settings(max_examples=100, deadline=None)
    @given(point=domain_points())
    def test_series_within_stated_bound(self, point):
        # The bound covers q = (q^(1/24))^24 from its chain, the blocked
        # pentagonal sum and the tail, against the series at the same
        # q^(1/24) taken as exact, 300 bits deeper.  Converting the sum and
        # the product with q^(1/24) round once each, within 4 units of the
        # value together.
        x, y, w = point
        with mp.workprec(w):
            tau = mp.mpc(x, y)
            value, err = _eta_series(tau)
            q24 = mp.exp(mp.mpc(0, 1) * mp.pi * tau / 12)
        with mp.workprec(w + 300):
            q = q24**24
            series = mp.fsum((-1) ** k * q ** (k * (3 * k - 1) // 2) for k in range(-60, 61))
            slack = err * abs(q24) + 4 * abs(value)
            assert abs(value - q24 * series) <= slack * mp.mpf(2) ** -w

    @pytest.mark.parametrize("prec", [128, 256, 1056])
    def test_against_direct_series(self, prec):
        # translations, flips and nontrivial multipliers, against the series
        # summed at the unreduced point
        rng = random.Random(prec)
        for _ in range(12):
            tau = cpx(rng.uniform(-3, 3), rng.uniform(0.35, 2.5), prec)
            got = eta(tau, prec)
            with mp.workprec(prec + 16):
                want = eta_direct_series(tau, prec + 16)
                assert abs(got - want) <= mp.mpf(2) ** (-prec + 8) * abs(want)

    @pytest.mark.parametrize("prec", [128, 256, 1024])
    def test_term_count_matches_error_model(self, prec, monkeypatch):
        # The bound charges each factor's own pentagonal sum: the first
        # exponent left out lies below the 2^-(w+1) the tail is charged for,
        # and the kernel's bound for the exponents summed reaches the
        # quotient's bound, |r| / 0.99 times per factor.
        summed, extra = [], [0.0]

        def recording(q, exponents, coeffs, coeff_bits, w, powers):
            sr, si, bound = _fixed_series(q, exponents, coeffs, coeff_bits, w, powers)
            summed.append((q, exponents, w))
            return sr, si, bound + extra[0]

        monkeypatch.setattr(cfq.eta, "_fixed_series", recording)
        checked = 0
        for n in (2, 6, 12, 18, 25):
            spec = catalog_lookup(n, "gamma0").spec
            for alpha in enumerate_representatives(n, -4 * n, enumerate_class_group(-4 * n)):
                with mp.workprec(prec):
                    z = cm_mpc(fixed_point(alpha))
                summed.clear()
                extra[0] = 0.0
                value, bound = eta_quotient(spec, z, prec)
                assert len(summed) == len(spec.terms)
                for (qr, qi), exponents, w in summed:
                    left_out = PENTAGONAL[len(exponents)]
                    assert exponents == PENTAGONAL[:len(exponents)]
                    with mp.workprec(64):
                        q = mp.hypot(qr, qi) * mp.mpf(2) ** -w
                        assert q ** left_out <= mp.mpf(2) ** -(w + 1)
                extra[0] = 2.0**60
                again, inflated = eta_quotient(spec, z, prec)
                charged = sum(abs(r) for _, r in spec.terms) * 2.0 ** (60 - _GUARD) / 0.99
                assert again == value and inflated == pytest.approx(bound + charged, rel=1e-9)
                checked += 1
        assert checked >= 5


# exponents of prod (1 - q^k) = sum (-1)^k q^(k(3k-1)/2), in increasing order
PENTAGONAL = tuple(sorted(k * (3 * k - 1) // 2 for k in range(-60, 61)))


class TestAscend:
    """z -> z + k and z -> -1/(n z) up to n|z|^2 >= 1 - 2^-24, the matrix tracked."""

    @pytest.mark.parametrize("prec", [128, 256, 1024])
    def test_matrix_at_level_1(self, prec):
        # an SL2(Z) matrix mapping the input to the output, at the deep
        # level-1 point too
        rng = random.Random(prec)
        points = [cpx(rng.uniform(-3, 3), rng.uniform(0.01, 2), prec) for _ in range(20)]
        points.append(cpx("0.41421356237", "1e-6", prec))
        for tau in points:
            with mp.workprec(prec + _GUARD):
                out, (a, b, c, d), steps = _ascend(tau, 1)
            assert a * d - b * c == 1
            assert abs(out.real) <= 0.5 and out.real**2 + out.imag**2 >= 1 - 2.0**-24
            with mp.workprec(prec + 64):
                assert abs(mobius((a, b, c, d), tau) - out) <= mp.mpf(2) ** -(prec - 8)
        assert steps > 10

    @pytest.mark.parametrize("flips", [1, 2, 5])
    def test_matrix_at_level_71(self, flips):
        # a point of the window moved down by `flips` flips, each followed by
        # a translation k != 0: the ascent undoes exactly these steps, and the
        # matrix has determinant 71^flips
        rng = random.Random(flips)
        with mp.workprec(400):
            z = start = mp.mpc("0.1", "0.3")
            for _ in range(flips):
                z = -1 / (71 * z) + rng.choice([-2, -1, 1, 3])
        with mp.workprec(160 + _GUARD):
            out, (a, b, c, d), steps = _ascend(+z, 71)
        assert a * d - b * c == 71**flips
        assert steps == 2 * flips and c % 71 == 0
        with mp.workprec(400):
            assert abs(out - start) <= mp.mpf(2) ** -150
            assert abs(mobius((a, b, c, d), z) - out) <= mp.mpf(2) ** -150
