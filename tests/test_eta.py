"""Eta engine: Dedekind sums, transformation law, quotients."""

import random
from fractions import Fraction
from math import gcd, isqrt

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from conftest import (
    ball_mpc, cm_mobius, cm_mpc, dedekind_sum_by_definition, eta_direct_series, eta_mpc,
    eta_multiplier, level_keys, random_sl2, rational_point,
)
import cfq.eta
from cfq.classfield import singular_values
from cfq.elliptic import CMPoint, enumerate_representatives, fixed_point
from cfq.errors import ConvergenceError, DomainError
from cfq.eta import (
    EtaQuotientSpec, _ascend, _cm_ball, _dedekind12, _eta_ball, _pentagonal_ball, eta_quotient,
)
from cfq.hauptmodul import catalog_lookup, evaluate
from cfq.numerics import _GUARD, _exp_i_pi, _fixed_series, _zeta24
from cfq.quadforms import enumerate_class_group


class TestDedekindSum:
    """_dedekind12(h, k) = 12k s(h, k), an integer."""

    def test_empty_sum(self):
        assert _dedekind12(0, 1) == 0

    def test_small_values(self):
        # s(1, 3) = 1/18 and s(2, 3) = -1/18
        assert _dedekind12(1, 3) == 2
        assert _dedekind12(2, 3) == -2

    def test_against_definition(self):
        for k in range(1, 26):
            for h in range(-k, 2 * k):
                if gcd(h, k) == 1:
                    assert _dedekind12(h, k) == 12 * k * dedekind_sum_by_definition(h % k, k)

    def test_reciprocity_500_random_pairs(self):
        rng = random.Random(20260808)
        done = 0
        while done < 500:
            h = rng.randint(1, 4000)
            k = rng.randint(1, 4000)
            if gcd(h, k) != 1:
                continue
            # 12hk (s(h, k) + s(k, h)) = -3hk + h^2 + k^2 + 1
            lhs = h * _dedekind12(h, k) + k * _dedekind12(k, h)
            assert lhs == h * h + k * k + 1 - 3 * h * k
            done += 1

    def test_rejects_common_factor(self):
        with pytest.raises(DomainError):
            _dedekind12(2, 4)
        with pytest.raises(DomainError):
            _dedekind12(1, 0)


PREC = 128
# the working scale evaluate gives eta_quotient at PREC
W = PREC + _GUARD
ETA = EtaQuotientSpec([(1, 1)])


def _quotient(spec, tau, prec=PREC):
    """eta_quotient at the working scale of prec, exactly."""
    return ball_mpc(eta_quotient(spec, tau, prec + _GUARD))


class TestEta:
    def test_translation_law(self):
        t0 = eta_mpc(CMPoint(0, 2, 1, 1), PREC)
        t1 = eta_mpc(CMPoint(1, 2, 1, 1), PREC)
        with mp.workprec(PREC + 16):
            assert abs(t1 / t0 - mp.exp(mp.mpc(0, 1) * mp.pi / 12)) < mp.mpf(2) ** (-PREC + 8)

    def test_value_at_i_against_direct_series(self):
        got = eta_mpc(CMPoint(0, 1, 1, 1), PREC)
        with mp.workprec(PREC + 16):
            want = eta_direct_series(mp.mpc(0, 1), PREC)
            assert abs(got - want) < mp.mpf(2) ** (-PREC + 8)
            # also the closed form Gamma(1/4) / (2 pi^(3/4))
            closed = mpmath.gamma(mp.mpf(1) / 4) / (2 * mp.pi ** (mp.mpf(3) / 4))
            assert abs(got - closed) < mp.mpf(2) ** (-PREC + 8)

    def test_inversion_law(self):
        # tau = 1/2 + 2i and -1/tau = (-2 + 8i)/17
        tau = CMPoint(1, 4, 2, 1)
        assert cm_mobius((0, -1, 1, 0), tau) == CMPoint(-2, 8, 17, 1)
        lhs = eta_mpc(CMPoint(-2, 8, 17, 1), PREC)
        with mp.workprec(PREC + 16):
            rhs = mp.sqrt(mp.mpc(0, -1) * cm_mpc(tau)) * eta_mpc(tau, PREC)
            assert abs(lhs - rhs) < mp.mpf(2) ** (-PREC + 10)

    def test_rejects_lower_half_plane(self):
        with pytest.raises(DomainError):
            eta_quotient(ETA, CMPoint(0, -1, 1, 1), W)

    def test_rejects_an_inexact_point(self):
        with pytest.raises(DomainError, match="CMPoint"):
            eta_quotient(ETA, mp.mpc(0, 1), W)

    @pytest.mark.parametrize("prec", [-5, 0, 63, 16385, 64.0])
    def test_precision_out_of_range_refused(self, prec):
        # eta is reached through evaluate's eta-quotient entries, and the one
        # at level 1 refuses a precision outside the range before any factor
        with pytest.raises(DomainError, match="precision must be from 64 to 16384 bits"):
            evaluate(catalog_lookup(1, "gamma0"), CMPoint(0, 1, 1, 1), prec)

    @pytest.mark.parametrize("w", [-5, 8, _GUARD + 63, 112.5, _GUARD + 16385, 10**5, True])
    def test_working_scale_out_of_range_refused(self, w):
        # the scales evaluate works at, 64 + 48 to 16384 + 48, and no other
        with pytest.raises(DomainError, match="working scale must be an integer from 112 to 16432"):
            eta_quotient(EtaQuotientSpec([(1, 24), (2, -24)]), CMPoint(0, 1, 1, 1), w)

    def test_working_scale_at_the_floor(self):
        # (eta(tau) / eta(2 tau))^24 is 512 at i, as j(i) = (512 + 256)^3 / 512^2
        got = _quotient(EtaQuotientSpec([(1, 24), (2, -24)]), CMPoint(0, 1, 1, 1), 64)
        assert abs(got - 512) < mp.mpf(2) ** -50

    def test_radicand_past_a_double(self):
        # i with n = 10^400, past the largest double
        assert (eta_mpc(CMPoint(0, 1, 10**200, 10**400), PREC)
                == eta_mpc(CMPoint(0, 1, 1, 1), PREC))

    def test_refuses_where_its_bound_is_lost(self):
        # 10^-40 above the axis the estimate is about 1.8e25 units of
        # 2^-128, far above 2^8, and the level-1 entry built on eta refuses
        tau = CMPoint(0, 1, 10**40, 1)
        assert eta_quotient(ETA, tau, W).rad / 2.0**_GUARD > 2.0**8
        with pytest.raises(ConvergenceError, match=r"exceeds the bound 2\^\(2 - 128\)"):
            evaluate(catalog_lookup(1, "gamma0"), tau, PREC)

    def test_returns_at_ordinary_points(self):
        # wherever the estimate is within 2^8 units, the value is within
        # 2^(8 - PREC) of the series summed at the unreduced point
        rng = random.Random(2718)
        for _ in range(20):
            tau = rational_point(rng, -2, 2, 0.05, 2.0)
            value = eta_quotient(ETA, tau, W)
            assert value.rad / 2.0**_GUARD + 1 <= 2.0**8
            with mp.workprec(PREC + 32):
                want = eta_direct_series(cm_mpc(tau), PREC + 32)
                assert abs(ball_mpc(value) - want) <= mp.mpf(2) ** (8 - PREC) * abs(want)

    def test_transformation_law_500_pairs(self):
        rng = random.Random(987654)
        with mp.workprec(PREC + 32):
            tol = mp.mpf(2) ** (-PREC + 12)
            for _ in range(500):
                a, b, c, d = random_sl2(rng)
                if c < 0 or (c == 0 and d < 0):
                    a, b, c, d = -a, -b, -c, -d
                tau = rational_point(rng, -0.5, 0.5, 0.4, 1.8)
                lhs = eta_mpc(cm_mobius((a, b, c, d), tau), PREC)
                rhs = (eta_multiplier((a, b, c, d)) * mp.sqrt(c * cm_mpc(tau) + d)
                       * eta_mpc(tau, PREC))
                assert abs(lhs - rhs) < tol

    def test_periodicity_multiplier_chain(self):
        # 24 unit translations multiply the value by exp(24 * pi i / 12) = 1
        with mp.workprec(PREC):
            total = mp.exp(mp.mpc(0, 1) * mp.pi * 24 / 12)
            assert abs(total - 1) < mp.mpf(2) ** (-PREC + 4)
        v0 = eta_mpc(CMPoint(3, 9, 10, 1), PREC)
        v24 = eta_mpc(CMPoint(243, 9, 10, 1), PREC)
        assert abs(v0 - v24) < mp.mpf(2) ** (-PREC + 10)

    def test_doubling_precision_halves_error(self):
        rng = random.Random(13)
        for _ in range(10):
            tau = rational_point(rng, -0.5, 0.5, 0.3, 2.0)
            for p in (96, 128, 192):
                lo = eta_mpc(tau, p)
                hi = eta_mpc(tau, 2 * p)
                with mp.workprec(2 * p):
                    assert abs(lo - hi) < mp.mpf(2) ** (-p + 10)


class TestEtaQuotient:
    def test_single_factor_equals_eta(self):
        tau = CMPoint(2, 11, 10, 1)
        got = _quotient(ETA, tau)
        with mp.workprec(PREC + 16):
            want = eta_direct_series(cm_mpc(tau), PREC + 16)
            assert abs(got - want) <= mp.mpf(2) ** (-PREC + 8) * abs(want)

    def test_factor_at_d_tau(self):
        # eta(d tau) is the factor eta(tau') at the exact point tau' = d tau
        rng = random.Random(6)
        for _ in range(20):
            tau = rational_point(rng, -0.5, 0.5, 0.3, 1.5)
            for d in (2, 3, 12):
                got = _quotient(EtaQuotientSpec([(d, 1)]), tau)
                moved = CMPoint(d * tau.u, d * tau.v, tau.w, tau.n)
                assert got == eta_mpc(moved, PREC)
                with mp.workprec(PREC + 16):
                    want = eta_direct_series(d * cm_mpc(tau), PREC + 16)
                    assert abs(got - want) <= mp.mpf(2) ** (-PREC + 8) * abs(want)

    def test_level2_against_product_oracle(self):
        spec = EtaQuotientSpec([(1, 24), (2, -24)])
        got = _quotient(spec, CMPoint(0, 3, 1, 1))
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
        # i / sqrt(2) = sqrt(-2) / 2
        got = _quotient(spec, CMPoint(0, 1, 2, 2))
        assert abs(got - 64) < mp.mpf(2) ** (-PREC + 16)

    def test_spec_validation(self):
        with pytest.raises(DomainError):
            EtaQuotientSpec([])
        with pytest.raises(DomainError):
            EtaQuotientSpec([(1, 0)])
        with pytest.raises(DomainError):
            EtaQuotientSpec([(0, 3)])

    @pytest.mark.parametrize("terms", [[(1.5, 2)], [(2, 24.9)], [(2, "24")]])
    def test_spec_refuses_non_integers(self, terms):
        # refused, not truncated to ((1, 2),) or ((2, 24),)
        with pytest.raises(DomainError, match="integers"):
            EtaQuotientSpec(terms)
        assert EtaQuotientSpec([(Fraction(2), 24)]).terms == ((2, 24),)

    @pytest.mark.parametrize("spec", [[(1, 1)], ((1, 1),), None])
    def test_quotient_refuses_a_spec_that_is_not_one(self, spec):
        # refused as evaluate refuses an unknown description, not with an
        # AttributeError on .terms
        with pytest.raises(DomainError, match="EtaQuotientSpec"):
            cfq.eta_quotient(spec, CMPoint(0, 1, 1, 1), W)


@st.composite
def domain_points(draw):
    """(tau, w): an exact point (u + vi)/t of the fundamental domain and a precision w.

    |u| <= t/2 and v >= sqrt(t^2 - u^2), at most 3 above the unit circle.
    """
    t = draw(st.integers(min_value=1, max_value=10**6))
    u = draw(st.integers(min_value=-(t // 2), max_value=t // 2))
    v = isqrt(t * t - u * u - 1) + 1
    v += draw(st.integers(min_value=0, max_value=3 * t))
    return CMPoint(u, v, t, 1), draw(st.integers(min_value=64, max_value=1100))


# two keys whose factors share reduced points, each with exponents summing to 0
SHARING_KEYS = [(12, "gamma0", -48), (18, "fricke", -72)]
# the two keys of the sweep with a shared point and points whose exponents do
# not cancel: level 8's second class, exponents 4, -2 + 2 and -4 at three points
SUMMING_KEYS = [(8, "gamma0", -32), (8, "fricke", -32)]


class TestEtaSeriesKernel:
    """The pentagonal series summed by the fixed-point kernel."""

    @settings(max_examples=100, deadline=None)
    @given(point=domain_points())
    def test_series_within_stated_bound(self, point):
        # At a reduced point the factor's ball is its q^(1/24) from the exp,
        # and `_pentagonal_ball` sums S(q) from it: the radius covers q =
        # (q^(1/24))^24 from its chain, the blocked pentagonal sum, the tail
        # and q^(1/24)'s own error through E2 - 1, against the series at the
        # exact q, 300 bits deeper
        point, w = point
        series = {}
        factor = _eta_ball(point, 1, w, series)
        ((q24, _, im, total),) = series.values()
        assert factor is q24 and total == 1
        value = _pentagonal_ball(q24, im, w)
        with mp.workprec(w + 300):
            want = mp.exp(mp.mpc(0, 1) * mp.pi * cm_mpc(point) / 12)
            got = ball_mpc(factor)
            assert abs(got - want) <= factor.rad * abs(got) * mp.mpf(2) ** -w
            q = want**24
            want = mp.fsum((-1) ** k * q ** (k * (3 * k - 1) // 2) for k in range(-60, 61))
            got = ball_mpc(value)
            assert abs(got - want) <= value.rad * abs(got) * mp.mpf(2) ** -w

    @pytest.mark.parametrize("prec", [128, 256, 1056])
    def test_against_direct_series(self, prec):
        # translations, flips and nontrivial multipliers, against the series
        # summed at the unreduced point
        rng = random.Random(prec)
        for _ in range(12):
            tau = rational_point(rng, -3, 3, 0.35, 2.5)
            got = eta_mpc(tau, prec)
            with mp.workprec(prec + 16):
                want = eta_direct_series(cm_mpc(tau), prec + 16)
                assert abs(got - want) <= mp.mpf(2) ** (-prec + 8) * abs(want)

    @pytest.mark.parametrize("prec", [128, 256, 1024])
    def test_term_count_matches_error_model(self, prec, monkeypatch):
        # The bound charges one pentagonal sum per distinct reduced point mod
        # 1 whose factors' exponents sum to R != 0, and none where R = 0: the
        # first exponent left out lies below the 2^-(w+1) the tail is charged
        # for, and the kernel's bound for the exponents summed reaches the
        # quotient's bound |R| / 0.99 times, through S^|R|.
        summed, extra = [], [0.0]

        def recording(table, count, powers):
            sr, si, bound = _fixed_series(table, count, powers)
            summed.append((powers[0], table.exps[:count], powers[1]))
            return sr, si, bound + extra[0]

        monkeypatch.setattr(cfq.eta, "_fixed_series", recording)
        checked = [0, 0]
        for n in (1, 2, 6, 8, 12, 18, 25):
            for spec, z in _key_points(n, "gamma0", -4 * n):
                sums = [total for total in _exponent_sums(spec, z).values() if total]
                summed.clear()
                extra[0] = 0.0
                value = eta_quotient(spec, z, prec + _GUARD)
                assert len(summed) == len(sums)
                for (qr, qi), exponents, w in summed:
                    left_out = PENTAGONAL[len(exponents)]
                    assert exponents == PENTAGONAL[:len(exponents)]
                    with mp.workprec(64):
                        q = mp.hypot(qr, qi) * mp.mpf(2) ** -w
                        assert q ** left_out <= mp.mpf(2) ** -(w + 1)
                extra[0] = 2.0**60
                again = eta_quotient(spec, z, prec + _GUARD)
                charged = sum(abs(total) for total in sums) * 2.0**60 / 0.99
                assert again[:3] == value[:3]
                assert again.rad == pytest.approx(value.rad + charged, rel=1e-9)
                checked[bool(sums)] += 1
        assert checked[False] >= 5 and checked[True] >= 2

    @pytest.mark.parametrize("key", SUMMING_KEYS)
    def test_one_sum_per_reduced_point(self, key, monkeypatch):
        # The first factor at each distinct reduced point mod 1 takes one
        # exp, and a later factor at that point none, whatever its
        # multiplier; after the factors, each point whose exponents sum to
        # R != 0 takes one kernel sum, in the order the points were met, and
        # a point with R = 0 none.
        events = []

        def factor(*args):
            events.append("factor")
            return _eta_ball(*args)

        def exp(*args):
            events.append("exp")
            return _exp_i_pi(*args)

        def kernel(*args):
            events.append("sum")
            return _fixed_series(*args)

        monkeypatch.setattr(cfq.eta, "_eta_ball", factor)
        monkeypatch.setattr(cfq.eta, "_exp_i_pi", exp)
        monkeypatch.setattr(cfq.eta, "_fixed_series", kernel)
        shared = cancelled = 0
        for spec, tau in _key_points(*key):
            events.clear()
            eta_quotient(spec, tau, W)
            points = _reduced_points(spec, tau)
            sums = _exponent_sums(spec, tau)
            want = [e for i, p in enumerate(points)
                    for e in (["factor", "exp"] if points.index(p) == i else ["factor"])]
            assert events == want + ["sum" for total in sums.values() if total]
            shared += len(points) - len(sums)
            cancelled += sum(total == 0 for total in sums.values())
        assert shared > 0 and cancelled > 0

    @pytest.mark.parametrize("key", SHARING_KEYS)
    def test_no_sum_where_exponents_cancel(self, key, monkeypatch):
        # at every point of these keys the exponents of the factors there sum
        # to 0, so S(q)^0 = 1 and no kernel sum runs at all
        sums = []
        monkeypatch.setattr(cfq.eta, "_fixed_series", lambda *args: sums.append(args))
        for spec, tau in _key_points(*key):
            assert set(_exponent_sums(spec, tau).values()) == {0}
            eta_quotient(spec, tau, W)
        assert sums == []

    def test_exps_and_sums_per_pass(self, monkeypatch):
        # a pass over the degree-law sweep at 256 bits takes one exp per
        # distinct reduced point of a call, 88, and one pentagonal sum per
        # point with R != 0: level 1's two points and level 8's four
        calls = {"_exp_i_pi": 0, "_pentagonal_ball": 0}
        for name in calls:
            def counted(*args, name=name, original=getattr(cfq.eta, name)):
                calls[name] += 1
                return original(*args)
            monkeypatch.setattr(cfq.eta, name, counted)
        for key in level_keys():
            singular_values(*key, 256)
        assert calls == {"_exp_i_pi": 88, "_pentagonal_ball": 6}

    @pytest.mark.parametrize("key", SUMMING_KEYS)
    def test_e2_charge_split(self, key, monkeypatch):
        # d log eta / d log q^(1/24) = E2 = 1 - 24 sum sigma(j) q^j, and
        # |E2 - 1| < 0.106 wherever Im >= sqrt(3)/2.  Every factor at a
        # reduced point takes its q^(1/24) from the point's one exp, and S(q)
        # enters once per point as S^R, summed from that exp: an error e in
        # the exp is charged e |r| on each factor at the point through its
        # q^(1/24), 0.15 e |R| through S^|R|, nothing where R = 0, and
        # nothing on the other points.
        # (the terms from j = 40 on, sigma(j) <= j^2, add below q^30)
        q = mpmath.exp(-mpmath.pi * mpmath.sqrt(3))
        sigma = [sum(d for d in range(1, j + 1) if j % d == 0) for j in range(40)]
        assert 24 * (mp.fsum(sigma[j] * q**j for j in range(1, 40)) + q**30) < 0.106
        extra, calls, inflated = 2.0**60, [], [-1]

        def exp(*args):
            z = _exp_i_pi(*args)
            calls.append(None)
            return z._replace(rad=z.rad + extra) if len(calls) - 1 == inflated[0] else z

        monkeypatch.setattr(cfq.eta, "_exp_i_pi", exp)
        seen = set()
        for spec, tau in _key_points(*key):
            points = _reduced_points(spec, tau)
            sums = _exponent_sums(spec, tau)
            inflated[0] = -1
            value = eta_quotient(spec, tau, W)
            for i, (point, total) in enumerate(sums.items()):
                charged = sum(abs(r) for p, (_, r) in zip(points, spec.terms) if p == point)
                charged += 0.15 * abs(total)
                seen.add(total == 0)
                calls.clear()
                inflated[0] = i
                again = eta_quotient(spec, tau, W)
                assert len(calls) == len(sums)
                assert again[:3] == value[:3]
                assert again.rad == pytest.approx(value.rad + charged * extra, rel=1e-9)
        assert seen == {False, True}

    def test_root_of_unity_charge(self, monkeypatch):
        # A later factor at a reduced point whose q^(1/24) differs from the
        # first factor's by exp(pi i b / 12), b != 0 mod 24, takes it as that
        # one times the cached root: an error e in the root is charged e |r|
        # on that factor, and nothing on the first factors or where b = 0
        # (at level 10, where a later factor's b is 0).
        extra = 2.0**60

        def zeta(b, w):
            z = _zeta24(b, w)
            return z._replace(rad=z.rad + extra)

        later = [0, 0]
        for spec, tau in (case for key in SHARING_KEYS + [(10, "gamma0", -40)]
                          for case in _key_points(*key)):
            phases = _phases(spec, tau)
            points = [p for p, _ in phases]
            charged = 0
            for f, ((p, a), (_, r)) in enumerate(zip(phases, spec.terms)):
                first = points.index(p)
                if first < f:
                    rotated = (a - phases[first][1]) % 24 != 0
                    later[rotated] += 1
                    charged += abs(r) * rotated
            value = eta_quotient(spec, tau, W)
            with monkeypatch.context() as m:
                m.setattr(cfq.eta, "_zeta24", zeta)
                again = eta_quotient(spec, tau, W)
            assert again[:3] == value[:3]
            assert again.rad == pytest.approx(value.rad + charged * extra, rel=1e-9)
        assert later[False] > 0 and later[True] > 0

    @pytest.mark.parametrize("w", [112, 1072, 16432])
    def test_roots_of_unity_within_radius(self, w):
        # each exp(pi i b / 12) for b in -12 .. 11 at scale 2^w, against the
        # root 300 bits deeper; one ball per (b, w), kept per process
        with mp.workprec(w + 300):
            for b in range(-12, 12):
                zeta = _zeta24(b, w)
                assert _zeta24(b, w) is zeta
                got = ball_mpc(zeta)
                want = mp.expjpi(mp.mpf(b) / 12)
                assert abs(got - want) <= zeta.rad * abs(got) * mp.mpf(2) ** -w, b


def _key_points(n, group, disc):
    """(spec, tau): the key's eta quotient at each of its class representatives' points."""
    spec = catalog_lookup(n, group).spec
    for alpha in enumerate_representatives(n, disc, enumerate_class_group(disc)):
        yield spec, fixed_point(alpha)


def _reduced_points(spec, tau):
    """Each factor's SL2(Z)-reduced point mod 1, as (u mod w, v, w), in the spec's order."""
    points = []
    for d, _ in spec.terms:
        z = _ascend(CMPoint(d * tau.u, d * tau.v, tau.w, tau.n), 1)[0]
        points.append((z.u % z.w, z.v, z.w))
    return points


def _exponent_sums(spec, tau):
    """R for each distinct reduced point mod 1, the sum of the exponents of the factors there,
    in the order the factors first meet the points."""
    sums = {}
    for point, (_, r) in zip(_reduced_points(spec, tau), spec.terms):
        sums[point] = sums.get(point, 0) + r
    return sums


def _phases(spec, tau):
    """Each factor's reduced point mod 1 and the a mod 24 with q^(1/24) over its multiplier
    exp(pi i (z mod 1 + a) / 12), the multiplier from the Dedekind sum by its definition."""
    phases = []
    for (d, _), point in zip(spec.terms, _reduced_points(spec, tau)):
        z, (a, b, c, e), _ = _ascend(CMPoint(d * tau.u, d * tau.v, tau.w, tau.n), 1)
        if c < 0 or (c == 0 and e < 0):
            a, b, c, e = -a, -b, -c, -e
        k = 12 * (Fraction(b, 12) if c == 0 else Fraction(a + e, 12 * c)
                  - dedekind_sum_by_definition(e, c) - Fraction(1, 4))
        assert k.denominator == 1
        phases.append((point, (z.u // z.w - int(k)) % 24))
    return phases


@st.composite
def quotient_cases(draw):
    """(spec, tau, w): eta alone or a catalog quotient, at an exact point high enough for
    the unreduced series, and a working scale of evaluate."""
    w = draw(st.sampled_from([112, 304, 1072]))
    t = draw(st.integers(min_value=1, max_value=10**6))
    tau = CMPoint(draw(st.integers(-3 * t, 3 * t)), draw(st.integers(3 * t // 10 + 1, 2 * t)),
                  t, 1)
    n = draw(st.sampled_from([0, 2, 6, 12, 25]))
    spec = EtaQuotientSpec([(1, 1)]) if not n else catalog_lookup(n, "gamma0").spec
    return spec, tau, w


class TestEtaQuotientBall:
    """eta_quotient's radius against the unreduced series, 300 bits deeper."""

    @settings(max_examples=60, deadline=None)
    @given(case=quotient_cases())
    def test_value_within_radius(self, case):
        spec, tau, w = case
        value = eta_quotient(spec, tau, w)
        with mp.workprec(w + 300):
            z = cm_mpc(tau)
            want = mp.fprod(eta_direct_series(d * z, w + 300) ** r for d, r in spec.terms)
            got = ball_mpc(value)
            assert abs(got - want) <= value.rad * abs(got) * mp.mpf(2) ** -w


# exponents of prod (1 - q^k) = sum (-1)^k q^(k(3k-1)/2), in increasing order
PENTAGONAL = tuple(sorted(k * (3 * k - 1) // 2 for k in range(-60, 61)))


class TestAscend:
    """tau -> tau - k and tau -> -1/(n tau) in integers up to n|tau|^2 >= 1, the matrix tracked."""

    @pytest.mark.parametrize("prec", [128, 256, 1024])
    def test_matrix_at_level_1(self, prec):
        # an SL2(Z) matrix mapping the input to the output exactly, at the
        # deep level-1 point too; the point formed as a ball at scale 2^prec
        # is within its radius
        rng = random.Random(prec)
        points = [rational_point(rng, -3, 3, 0.01, 2) for _ in range(20)]
        points.append(CMPoint(41421356237, 100000, 10**11, 1))
        for tau in points:
            out, (a, b, c, d), steps = _ascend(tau, 1)
            assert a * d - b * c == 1 and cm_mobius((a, b, c, d), tau) == out
            assert 2 * abs(out.u) <= out.w and out.u**2 + out.v**2 >= out.w**2
            z = _cm_ball(out.u, out.v, out.w, out.n, prec)
            with mp.workprec(prec + 64):
                got = ball_mpc(z)
                assert abs(got - cm_mpc(out)) <= z.rad * abs(got) * mp.mpf(2) ** -prec
        assert steps > 10

    @pytest.mark.parametrize("p, s, t, w", [(1055946471, 1432572419579, 2019766045369, 189),
                                            (-1610964187, 1346393184131, 1896013997463, 70)])
    def test_cm_ball_past_the_shift_charge(self, p, s, t, w):
        # (p + s sqrt(-2)) / t of modulus near 1 and mostly imaginary, with
        # both parts' floors and sqrt(2)'s truncation near a whole unit: the
        # error passes the 1.5 units the shift down to w + 1 bits charges,
        # and only the 1-unit radius covers it
        z = _cm_ball(p, s, t, 2, w)
        with mp.workprec(w + 300):
            got = ball_mpc(z)
            err = abs(got - mpmath.mpc(p, s * mpmath.sqrt(2)) / t) / abs(got) * mp.mpf(2) ** w
        assert 1.51 < err <= z.rad == 2.5

    @pytest.mark.parametrize("flips", [1, 2, 5])
    def test_matrix_at_level_71(self, flips):
        # a point of the window moved down by `flips` flips, each followed by
        # a translation k != 0: the ascent undoes exactly these steps, and the
        # matrix has determinant 71^flips
        rng = random.Random(flips)
        z = start = CMPoint(1, 3, 10, 1)
        for _ in range(flips):
            z = cm_mobius((1, rng.choice([-2, -1, 1, 3]), 0, 1), cm_mobius((0, -1, 71, 0), z))
        out, (a, b, c, d), steps = _ascend(z, 71)
        assert a * d - b * c == 71**flips
        assert steps == 2 * flips and c % 71 == 0
        assert out == start and cm_mobius((a, b, c, d), z) == out

    @pytest.mark.parametrize("n", [1, 71])
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_exact_reduction(self, n, data):
        # Output |Re| <= 1/2 and n|tau|^2 >= 1 exactly, the matrix maps the
        # input to the output in Q(sqrt(-r)), Im never decreases, and the
        # mirror image -conj(tau) reduces to the mirror image of the output.
        # Inputs include points on |Re| = 1/2 and on n|tau|^2 = 1, moved
        # down by up to three flips and translations.
        tau = data.draw(_ascent_inputs(n))
        out, (a, b, c, d), steps = _ascend(tau, n)
        assert out.n == tau.n
        assert 2 * abs(out.u) <= out.w
        assert n * (out.u**2 + out.v**2 * out.n) >= out.w**2
        assert cm_mobius((a, b, c, d), tau) == out
        # a flip has determinant n and a translation 1
        assert a * d - b * c in {n**flips for flips in range(steps + 1)}
        assert out.v * tau.w >= tau.v * out.w
        assert steps >= 0 and (steps > 0 or out == tau)
        mirror = _ascend(CMPoint(-tau.u, tau.v, tau.w, tau.n), n)[0]
        assert mirror == CMPoint(-out.u, out.v, out.w, out.n)


@st.composite
def _ascent_inputs(draw, n):
    """An exact point: anywhere, on |Re| = 1/2 or on n|tau|^2 = 1, then moved down.

    On n|tau|^2 = 1: for n = 1, (m^2 - k^2 + 2mk i)/(m^2 + k^2); for n > 1,
    tau = (2mk n + |k^2 - n m^2| sqrt(-n)) / (n (n m^2 + k^2)), from the
    rational points of n x^2 + y^2 = 1.
    """
    kind = draw(st.sampled_from(["any", "edge", "circle"]))
    w = draw(st.integers(min_value=1, max_value=10**6))
    if kind == "any":
        tau = CMPoint(draw(st.integers(-3 * w, 3 * w)), draw(st.integers(1, 2 * w)), w, 1)
    elif kind == "edge":
        tau = CMPoint(draw(st.sampled_from([-w, w])), draw(st.integers(1, 4 * w)), 2 * w, 1)
    else:
        m, k = draw(st.integers(1, 500)), draw(st.integers(1, 500))
        if n == 1:
            tau = CMPoint(m * m - k * k, 2 * m * k, m * m + k * k, 1)
        else:
            tau = CMPoint(2 * m * k * n, abs(k * k - n * m * m), n * (n * m * m + k * k), n)
        tau = CMPoint(draw(st.sampled_from([-1, 1])) * tau.u, tau.v, tau.w, tau.n)
    for _ in range(draw(st.integers(0, 3))):
        shift = draw(st.integers(-3, 3))
        tau = cm_mobius((0, -1, n, 0), cm_mobius((1, shift, 0, 1), tau))
    return tau
