"""Catalog lookups, theta quotients, Fricke reduction, and evaluation."""

import builtins
import functools
import hashlib
import io
import math
import random
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

import cfq.hauptmodul
from conftest import (
    H284, assert_bits_bound_the_coefficients, ball_mpc, cm_mobius, cm_mpc, eta_direct_series,
    evaluate_mpc, level_keys, random_gamma0, rational_point,
)
from cfq.classfield import ring_class_polynomial, singular_values
from cfq.cli import run
from cfq.elliptic import CMPoint, EllipticElement, enumerate_representatives, fixed_point
from cfq.errors import ConvergenceError, DomainError, NoConstructionError, NotGenusZeroError
from cfq.eta import EtaQuotientSpec, _ascend, _pentagonal
from cfq.exactpoly import IntPoly, LaurentExpr
from cfq.hauptmodul import (
    ERROR_BITS,
    FRICKE_LEVELS,
    GAMMA0_LEVELS,
    EtaQuotientHaupt,
    ThetaQuotientHaupt,
    catalog_entries,
    catalog_lookup,
    _coeff_bits,
    _cutoff,
    _evaluate_theta,
    _fricke_ascent,
    _laurent_sum,
    _log_tail,
    _theta_numerator,
    evaluate,
)
from cfq.numerics import (
    MAX_PREC_BITS, _GUARD, Ball, _exp_i_pi, _exp_plan, _fixed_series, _powers,
)
from cfq.quadforms import enumerate_class_group

# The genus-zero Fricke levels with no construction in the catalog.
NONE_LEVELS = frozenset([11, 14, 15, 17, 19, 20, 21, 24, 26, 27, 29, 31, 32, 35, 36, 39, 41,
                         49, 50, 59])
# sha256 over the reprs of the 32 entries that compute, one a line
CATALOG_DIGEST = "238fd5881d23f0db89f556d556b531e6c1f4492f7d77b5b9e0917a65e4868667"


class TestCatalog:
    def test_level_lists(self):
        assert GAMMA0_LEVELS == frozenset([1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 13, 16, 18, 25])
        assert len(FRICKE_LEVELS) == 37
        assert min(FRICKE_LEVELS) == 2 and 71 in FRICKE_LEVELS
        assert 22 not in FRICKE_LEVELS and 28 not in FRICKE_LEVELS

    def test_level2_entry(self):
        entry = catalog_lookup(2, "gamma0")
        assert isinstance(entry, EtaQuotientHaupt)
        assert entry.spec == EtaQuotientSpec([(1, 24), (2, -24)])
        assert entry.laurent == LaurentExpr({1: 1, 0: 24})

    def test_level13_entry(self):
        entry = catalog_lookup(13, "gamma0")
        assert entry.spec == EtaQuotientSpec([(1, 2), (13, -2)])

    def test_fricke_sym_kappa(self):
        entry = catalog_lookup(2, "fricke")
        assert isinstance(entry, EtaQuotientHaupt)
        assert entry.laurent == LaurentExpr({1: 1, 0: 24, -1: 4096})

    def test_level1_in_the_level2_quotient(self):
        # j - 744 = h + 24 + 196608/h + 16777216/h^2, h = (eta(tau)/eta(2 tau))^24
        entry = catalog_lookup(1, "gamma0")
        assert isinstance(entry, EtaQuotientHaupt)
        assert entry.spec == catalog_lookup(2, "gamma0").spec
        assert entry.laurent == LaurentExpr({1: 1, 0: 24, -1: 196608, -2: 16777216})

    def test_laurent_coefficients_must_be_integers(self):
        spec = EtaQuotientSpec([(1, 24), (2, -24)])
        with pytest.raises(DomainError, match="integers"):
            EtaQuotientHaupt(2, spec, LaurentExpr({1: 1, 0: Fraction(1, 2)}))
        with pytest.raises(DomainError, match="not all zero"):
            EtaQuotientHaupt(2, spec, LaurentExpr({1: 0}))

    def test_vanishing_quotient_refused_under_a_negative_exponent(self):
        with pytest.raises(DomainError, match="vanished"):
            _laurent_sum(LaurentExpr({1: 1, -1: 4096}), Ball(0, 0, 0, 1.0), 112)
        value = _laurent_sum(LaurentExpr({1: 1, 0: 24}), Ball(0, 0, 0, 1.0), 112)
        assert ball_mpc(value) == 24

    def test_not_genus_zero(self):
        with pytest.raises(NotGenusZeroError, match="11"):
            catalog_lookup(11, "gamma0")
        with pytest.raises(NotGenusZeroError, match="22"):
            catalog_lookup(22, "fricke")

    def test_level71_is_theta_quotient(self):
        entry = catalog_lookup(71, "fricke")
        assert entry == ThetaQuotientHaupt(71, (((2, 1, 9), 1), ((3, 1, 6), -1)))

    def test_no_construction(self):
        with pytest.raises(NoConstructionError, match="no construction") as exc:
            catalog_lookup(59, "fricke")
        assert isinstance(exc.value, DomainError)

    def test_entries_inventory(self):
        entries = catalog_entries()
        assert len(entries) == 15 + 37
        by_key = {(e["level"], e["group"]): e for e in entries}
        assert {n for (n, _), e in by_key.items() if e["kind"] == "theta-quotient"} == {23, 47, 71}
        assert by_key[(71, "fricke")] == {"level": 71, "group": "fricke", "kind": "theta-quotient"}
        assert by_key[(59, "fricke")]["kind"] == "none"
        assert sum(e["kind"] == "none" for e in entries) == 20
        assert by_key[(12, "fricke")]["kind"] == "fricke-sym"
        assert by_key[(1, "gamma0")] == {"level": 1, "group": "gamma0", "kind": "eta-quotient"}

    def test_gamma0_entries_need_no_data(self, monkeypatch):
        # no entry reads a file: every catalog key is looked up, and level 71
        # and level 1 compute, with opening a file refused
        def refuse(*args, **kwargs):
            raise AssertionError(f"file opened: {args!r}")

        monkeypatch.setattr(builtins, "open", refuse)
        monkeypatch.setattr(io, "open", refuse)
        assert ring_class_polynomial(71, "fricke", -284).poly == H284
        for n in sorted(GAMMA0_LEVELS):
            assert isinstance(catalog_lookup(n, "gamma0"), EtaQuotientHaupt)
        result = ring_class_polynomial(1, "gamma0", -4)
        assert result.poly == IntPoly([-984, 1])
        for e in catalog_entries():
            if e["kind"] == "none":
                with pytest.raises(NoConstructionError):
                    catalog_lookup(e["level"], e["group"])
            else:
                catalog_lookup(e["level"], e["group"])

    def test_catalog_pinned(self):
        # every entry that computes, by its repr, in inventory order; pinned
        # before the catalog became one table
        entries = catalog_entries()
        none = {(e["level"], e["group"]) for e in entries if e["kind"] == "none"}
        assert none == {(n, "fricke") for n in NONE_LEVELS}
        computing = [(e["level"], e["group"]) for e in entries if e["kind"] != "none"]
        assert len(computing) == 32
        text = "\n".join(repr(catalog_lookup(*key)) for key in computing)
        assert hashlib.sha256(text.encode()).hexdigest() == CATALOG_DIGEST

    def test_catalog_refusals_pinned(self):
        none = ("level {} of the Fricke group is genus zero, but the catalog has no "
                "construction of its principal modulus")
        cases = [((n, "fricke"), NoConstructionError, none.format(n)) for n in sorted(NONE_LEVELS)]
        cases += [
            ((11, "gamma0"), NotGenusZeroError,
             "level 11 is not in the genus-zero list for the congruence group"),
            ((22, "fricke"), NotGenusZeroError,
             "level 22 is not in the genus-zero list for the Fricke group"),
            ((72, "fricke"), NotGenusZeroError,
             "level 72 is not in the genus-zero list for the Fricke group"),
            ((2, "gamma1"), DomainError, "unknown group 'gamma1'"),
        ]
        for key, error, message in cases:
            with pytest.raises(DomainError) as exc:
                catalog_lookup(*key)
            assert type(exc.value) is error and str(exc.value) == message

    def test_catalog_is_one_table(self):
        # each kind has one type, every key that computes gives one shared
        # entry, and each key without a construction exits 1 from the CLI
        types = {"eta-quotient": EtaQuotientHaupt, "fricke-sym": EtaQuotientHaupt,
                 "theta-quotient": ThetaQuotientHaupt, "none": NoConstructionError}
        counts = dict.fromkeys(types, 0)
        for e in catalog_entries():
            key, kind = (e["level"], e["group"]), e["kind"]
            counts[kind] += 1
            if kind == "none":
                with pytest.raises(types[kind]):
                    catalog_lookup(*key)
                out, err = io.StringIO(), io.StringIO()
                argv = ["class-poly", "-n", str(key[0]), "--group", key[1], "-D", str(-4 * key[0])]
                assert run(argv, out=out, err=err) == 1
                assert "no construction" in err.getvalue() and not out.getvalue()
            else:
                assert type(catalog_lookup(*key)) is types[kind]
                assert catalog_lookup(*key) is catalog_lookup(*key)
        assert counts == {"eta-quotient": 15, "fricke-sym": 14, "theta-quotient": 3, "none": 20}

    @pytest.mark.parametrize("level,form", [(70, (2, 1, 9)), (71, (2, 1, 8)), (-1, (2, 1, 9)),
                                            (71, (2, 1))])
    def test_theta_quotient_refuses_a_bad_table(self, level, form):
        with pytest.raises(DomainError):
            ThetaQuotientHaupt(level, ((form, 1),))

    @pytest.mark.parametrize("level,forms", [
        (71.0, (((2, 1, 9), 1), ((3, 1, 6), -1))),
        (71, (((2, 1, 9), 0.5), ((3, 1, 6), -1))),
        (71, (((2.0, 1, 9), 1), ((3, 1, 6), -1))),
    ], ids=["level", "weight", "form"])
    def test_theta_quotient_needs_integers(self, level, forms):
        # refused when built, not by isqrt or by the evaluator's bit
        # operations later
        with pytest.raises(DomainError, match="must be integers"):
            ThetaQuotientHaupt(level, forms)

    @pytest.mark.parametrize("level", ["2", 2.0])
    def test_eta_quotient_level_must_be_an_integer(self, level):
        entry = catalog_lookup(2, "gamma0")
        with pytest.raises(DomainError, match="must be integers"):
            EtaQuotientHaupt(level, entry.spec, entry.laurent)

    def test_integral_fractions_are_taken_as_ints(self):
        theta = ThetaQuotientHaupt(Fraction(71), (((2, 1, Fraction(9)), Fraction(2, 2)),
                                                  ((3, 1, 6), -1)))
        assert theta == catalog_lookup(71, "fricke")
        assert type(theta.level) is int and type(theta.forms[0][0][2]) is int
        assert type(theta.forms[0][1]) is int
        entry = catalog_lookup(2, "gamma0")
        eta = EtaQuotientHaupt(Fraction(2), entry.spec, entry.laurent)
        assert eta == entry and type(eta.level) is int

    @pytest.mark.parametrize("entry,message", [
        # one theta series has odd coefficients, so halving it leaves Z
        (ThetaQuotientHaupt(23, (((1, 1, 6), 1),)), "non-integer coefficients"),
        # twice theta, halved, has its constant term 1 below the order
        # v - 1 = 1 of level 47
        (ThetaQuotientHaupt(47, (((1, 1, 12), 2),)), "does not have order 1"),
    ])
    def test_theta_numerator_refuses_a_bad_table(self, entry, message):
        with pytest.raises(DomainError, match=message):
            _theta_numerator(entry, 40)
        with pytest.raises(DomainError, match=message):
            evaluate(entry, CMPoint(0, 1, 1, 1), 64)


def _theta_counts(form, top) -> list[int]:
    """r_Q(e) for e < top, from the box |x| <= sqrt(4c top/d), |y| <= sqrt(4a top/d).

    d = 4ac - b^2; Q(x, y) >= d x^2 / (4c) and >= d y^2 / (4a), so the box
    holds every (x, y) with Q(x, y) < top.
    """
    a, b, c = form
    d = 4 * a * c - b * b
    counts = [0] * top
    xs, ys = math.isqrt(4 * c * top // d) + 1, math.isqrt(4 * a * top // d) + 1
    for x in range(-xs, xs + 1):
        for y in range(-ys, ys + 1):
            e = a * x * x + b * x * y + c * y * y
            if e < top:
                counts[e] += 1
    return counts


def _theta_numerator_counts(entry, top) -> list[int]:
    """sum_Q s_Q r_Q(e) for e < top: twice the numerator."""
    out = [0] * top
    for form, s in entry.forms:
        out = [o + s * r for o, r in zip(out, _theta_counts(form, top))]
    return out


def _eta_product_dense(n, top) -> list[int]:
    """prod (1 - q^k)(1 - q^(nk)) to q^(top-1), from Euler's pentagonal series."""
    # k (3k - 1)/2 >= top once k > sqrt(2 top / 3) + 1
    pentagonal = [(e, -1 if k % 2 else 1) for k in range(math.isqrt(top) + 2)
                  for e in {k * (3 * k - 1) // 2, k * (3 * k + 1) // 2}]
    out = [0] * top
    out[0] = 1
    for factor in ([(e, s) for e, s in pentagonal if e < top],
                   [(n * e, s) for e, s in pentagonal if n * e < top]):
        prev, out = out, [0] * top
        for e, s in factor:
            out[e:] = [o + s * x for o, x in zip(out[e:], prev)]
    return out


def _theta_reference(entry, tau, prec):
    """The theta quotient summed at tau itself, no reduction.

    The theta series by lattice sums to an exponent whose tail, under
    r_Q(e) <= 4 sqrt(e), is far below 2^-prec; eta by its pentagonal series.
    """
    n = entry.level
    with mp.workprec(prec):
        q = mp.exp(2j * mp.pi * tau)
        top = int((prec + 40) * math.log(2) / (2 * math.pi * float(tau.imag))) + 1
        powers = [mp.mpc(1)]
        for _ in range(top):
            powers.append(powers[-1] * q)
        num = mp.fsum(k * powers[e] for e, k in enumerate(_theta_numerator_counts(entry, top)))
        den = 2 * eta_direct_series(tau, prec) * eta_direct_series(n * tau, prec)
        return num / den


def _divisors(e) -> int:
    return sum(2 - (d * d == e) for d in range(1, math.isqrt(e) + 1) if e % d == 0)


class TestThetaQuotient:
    """The theta-quotient entries as q-expansions, independently of evaluate."""

    def test_level71_expansion_is_the_oracle(self):
        # (theta_(2,1,9) - theta_(3,1,6)) / 2 = q^3 D(q) F(q), F the oracle's
        # 3,600 coefficients from q^-1 and D = prod (1 - q^k)(1 - q^(71k)):
        # as D starts 1, this says the two expansions agree term by term
        entry = catalog_lookup(71, "fricke")
        oracle = _oracle_coeffs()
        top = len(oracle)
        prod = [0] * top
        for e, k in enumerate(_eta_product_dense(71, top)):
            if k:
                prod[e:] = [p + k * c for p, c in zip(prod[e:], oracle)]
        counts = _theta_numerator_counts(entry, top + 2)
        assert top == 3600 and counts[:2] == [0, 0]
        assert [2 * c for c in prod] == counts[2:]

    def test_level23_numerator_is_theta_less_three_eta_products(self):
        # (3 theta_(2,1,3) - theta_(1,1,6)) / 2 = theta_(1,1,6) - 3 q S(q) S(q^23),
        # S(q) = prod (1 - q^k), through 2,048 terms: the catalog's level-23
        # entry is theta_(1,1,6) / (eta(tau) eta(23 tau)) - 3.  Both sides
        # are weight-1 forms on Gamma0(23) with character (-23/.), and the
        # Sturm bound for weight 1 on Gamma0(23) is [SL2(Z) : Gamma0(23)] / 12
        # = 24 / 12 = 2, so agreeing to q^2 already proves them equal
        top = 2048
        counts = _theta_numerator_counts(catalog_lookup(23, "fricke"), top)
        assert all(k % 2 == 0 for k in counts)
        theta = _theta_counts((1, 1, 6), top)
        eta = [0, *_eta_product_dense(23, top - 1)]
        assert [k // 2 for k in counts] == [t - 3 * d for t, d in zip(theta, eta)]

    @pytest.mark.parametrize("n", [23, 47, 71])
    def test_expansion_starts_with_the_pole(self, n):
        # q^-1 + 0 + O(q), integer coefficients: the numerator's counts are
        # even, and it vanishes to order v - 1 at q = 0
        entry = catalog_lookup(n, "fricke")
        v, top = (n + 1) // 24, 400
        counts = _theta_numerator_counts(entry, top)
        assert all(k % 2 == 0 for k in counts)
        num = [k // 2 for k in counts]
        assert not any(num[: v - 1]) and num[v - 1] == 1
        # num / D by long division, D = 1 + O(q)
        d = _eta_product_dense(n, top)
        quotient = []
        rest = num[v - 1:]
        for _ in range(8):
            quotient.append(rest[0])
            rest = [r - rest[0] * x for r, x in zip(rest, d)][1:]
        # t = q^-1 (quotient)
        assert quotient[0] == 1 and quotient[1] == 0

    @pytest.mark.parametrize("n", [23, 47, 71])
    def test_numerator_matches_lattice_counts(self, n):
        # the evaluator's cached table, at two sizes, against a box scan; and
        # the coefficient bound its tails rest on, d(e) sum |s_Q| <= A sqrt(e)
        entry = catalog_lookup(n, "fricke")
        v = (n + 1) // 24
        counts = _theta_numerator_counts(entry, v - 1 + 2048)
        want = {e - v + 1: k // 2 for e, k in enumerate(counts) if e >= v - 1 and k}
        table = _theta_numerator(entry, 2048)
        exps, coeffs = table.exps, table.coeffs
        assert exps[0] == 0 and dict(zip(exps, coeffs)) == want
        small = _theta_numerator(entry, 1024)
        count = len(small.exps)
        assert small.exps == exps[:count] and small.coeffs == coeffs[:count]
        weight = sum(abs(s) for _, s in entry.forms)
        a = 2 * weight
        for m, c in zip(exps[1:], coeffs[1:]):
            bound = weight * _divisors(m + v - 1)
            assert abs(c) <= bound <= a * math.sqrt(m + v - 1)

    def test_vanishing_sum_refused(self, monkeypatch):
        # an error made relative to a sum needs the sum to be nonzero: with
        # the series kernel returning 0, the eta product D vanishes
        def vanishing(table, count, powers):
            return 0, 0, 1.0

        monkeypatch.setattr(cfq.hauptmodul, "_fixed_series", vanishing)
        tau = fixed_point(enumerate_representatives(71, -71, enumerate_class_group(-71))[0])
        with pytest.raises(ConvergenceError, match="vanished"):
            _evaluate_theta(catalog_lookup(71, "fricke"), tau, 64)


def _im_at_least(z: CMPoint, tau: CMPoint) -> bool:
    """Im(z) >= Im(tau), exactly, for two points of one radicand."""
    return z.v * tau.w >= tau.v * z.w


class TestFrickeReduce:
    """The ascents that theta-quotient entries take, in integers: under
    tau -> tau - k and tau -> -1/(n tau), then through SL2(Z) and a coset of
    Gamma0(n) when that stops low."""

    def test_fixed_point_is_stable(self):
        for n in (2, 5, 71):
            # i / sqrt(n) = sqrt(-n) / n
            tau = CMPoint(0, 1, n, n)
            assert _ascend(tau, n)[0] == tau

    def test_translation_then_stable(self):
        n = 5
        out, gamma, steps = _ascend(CMPoint(15, 1, 5, n), n)
        assert out == CMPoint(0, 1, 5, n) and gamma == (1, -3, 0, 1) and steps == 1

    def test_monotone_ascent_from_deep_point(self):
        tau = CMPoint(-71, 1, 2556, 71)
        out = _ascend(tau, 71)[0]
        assert _im_at_least(out, tau) and out != tau

    def test_output_window(self):
        rng = random.Random(5150)
        n = 7
        for _ in range(40):
            tau = rational_point(rng, -3, 3, 0.01, 2)
            out = _ascend(tau, n)[0]
            assert _im_at_least(out, tau)
            assert 2 * abs(out.u) <= out.w
            assert n * (out.u**2 + out.v**2) >= out.w**2

    @pytest.mark.parametrize("n", [23, 47, 71])
    def test_orbit_point_high_enough(self, n):
        # every point, however low, reaches Im >= sqrt(3)/(2n) in its orbit
        # under Gamma0(n) and the Fricke flip, which bounds |q| and the
        # number of terms: 4 n^2 Im^2 >= 3, exactly
        rng = random.Random(7100 + n)
        for _ in range(40):
            tau = rational_point(rng, -0.5, 0.5, 0.8, 1.6)
            z = cm_mobius(random_gamma0(rng, n), tau)
            point = _fricke_ascent(z, n)
            assert 4 * n * n * point.v**2 >= 3 * point.w**2
            assert 2 * abs(point.u) <= point.w
            assert _im_at_least(point, z)

    @pytest.mark.parametrize("prec", [128, 256, 448])
    def test_deep_level71_point_within_bound(self, prec):
        # an element of Gamma0(71), z -> z / (71 k z + 1) then z -> z + m
        # twice, moves the C = 2 representative to 6e-11 above the real
        # axis; the Fricke ascent undoes it in more than 2 steps, and the
        # value is that of the representative, within the documented bound
        # of the oracle series summed there 256 bits deeper
        alpha = EllipticElement(71, 1, -36, 2)
        tau = fixed_point(alpha)
        z = tau
        for m, k in ((2, 3), (-1, 2)):
            z = cm_mobius((1, m, 0, 1), cm_mobius((1, 0, 71 * k, 1), z))
        with mp.workprec(64):
            assert cm_mpc(z).imag < 1e-10
        _point, _gamma, steps = _ascend(z, 71)
        assert steps > 2
        got = evaluate_mpc(catalog_lookup(71, "fricke"), z, prec)
        ref = _series_reference(tau, prec + 256)
        with mp.workprec(prec + 256):
            assert abs(got - ref) <= mp.mpf(2) ** (ERROR_BITS - prec) * max(1, abs(ref))


PREC = 160


class TestEvaluate:
    def test_fricke_sym_level2_fixed_point(self):
        entry = catalog_lookup(2, "fricke")
        # i / sqrt(2) = sqrt(-2) / 2
        value = evaluate_mpc(entry, CMPoint(0, 1, 2, 2), PREC)
        assert abs(value - 152) < mp.mpf(2) ** (-PREC + 24)

    def test_eta_quotient_normalized_expansion(self):
        # at tau = 4i the shifted level-2 entry equals q^-1 + 276 q + O(q^2)
        entry = catalog_lookup(2, "gamma0")
        value = evaluate_mpc(entry, CMPoint(0, 4, 1, 1), PREC)
        with mp.workprec(PREC + 16):
            q = mp.exp(-8 * mp.pi)
            assert abs(value - (1 / q + 276 * q)) < 3000 * q * q

    def test_qseries_71A_at_fricke_point(self):
        entry = catalog_lookup(71, "fricke")
        value = evaluate_mpc(entry, fixed_point(EllipticElement(71, 0, -1, 1)), 128)
        with mp.workprec(160):
            acc = mp.mpc(0)
            for c in reversed(H284.coeffs):
                acc = acc * value + c
            assert abs(acc) < mp.mpf(2) ** -40

    def test_qseries_invariance_at_conjugate_points(self):
        entry = catalog_lookup(71, "fricke")
        v_small = evaluate_mpc(entry, fixed_point(EllipticElement(71, 1, -36, 2)), 128)
        v_deep = evaluate_mpc(entry, fixed_point(EllipticElement(71, 1, -2, 36)), 128)
        with mp.workprec(128):
            assert abs(v_small - v_deep) < mp.mpf(2) ** -32

    def test_level1_series_at_i(self):
        entry = catalog_lookup(1, "gamma0")
        value = evaluate_mpc(entry, CMPoint(0, 1, 1, 1), PREC)
        assert abs(value - 984) < mp.mpf(2) ** (-PREC + 40)

    def test_rejects_lower_half_plane(self):
        # a point below the axis is no CMPoint, and evaluate takes no other
        entry = catalog_lookup(2, "gamma0")
        with pytest.raises(DomainError):
            evaluate_mpc(entry, CMPoint(0, -1, 1, 1), PREC)
        with pytest.raises(DomainError, match="CMPoint"):
            evaluate_mpc(entry, mp.mpc(0, -1), PREC)

    @pytest.mark.parametrize("prec", [-5, 0, 63, 16385, 64.0])
    def test_precision_out_of_range_refused(self, prec):
        # the range of a class polynomial's round, integers only, refused
        # before any work
        with pytest.raises(DomainError, match="precision must be from 64 to 16384 bits"):
            evaluate_mpc(catalog_lookup(12, "gamma0"), CMPoint(0, 1, 1, 1), prec)

    @pytest.mark.parametrize("key", [(12, "gamma0"), (2, "fricke"), (71, "fricke")],
                             ids=lambda k: "%d-%s" % k)
    def test_radicand_past_a_double(self, key):
        # i written as sqrt(-10^400) / 10^200, n past the largest double:
        # the bits of i itself; and 10^1000 i, past the 2^500 that Im may
        # reach, is refused
        entry = catalog_lookup(*key)
        assert (evaluate_mpc(entry, CMPoint(0, 1, 10**200, 10**400), 64)
                == evaluate_mpc(entry, CMPoint(0, 1, 1, 1), 64))
        with pytest.raises(ConvergenceError, match="too far above"):
            evaluate_mpc(entry, CMPoint(0, 1, 1, 10**2000), 64)

    def test_unknown_entry_refused(self):
        with pytest.raises(DomainError, match="unknown principal-modulus description"):
            evaluate(EtaQuotientSpec([(1, 24)]), CMPoint(0, 1, 1, 1), 64)

    def test_qseries_rejects_lower_half_plane(self):
        # the level-71 theta quotient: refused before any term is summed
        with pytest.raises(DomainError, match="upper half plane"):
            evaluate_mpc(catalog_lookup(71, "fricke"), CMPoint(1, -2, 10, 1), PREC)
        with pytest.raises(DomainError, match="CMPoint"):
            evaluate_mpc(catalog_lookup(71, "fricke"), mp.mpc("0.1", "0.2"), PREC)


# The level-71 series of tests/data/fricke_71.qseries, 3,600 coefficients
# from q^-1, certified by replication identities independently of the theta
# quotient: an oracle for it.  Line 1 is a header, then one integer a line.
ORACLE = Path(__file__).resolve().parent / "data" / "fricke_71.qseries"


@functools.cache
def _oracle_coeffs() -> tuple[int, ...]:
    lines = ORACLE.read_text(encoding="utf-8").split("\n")
    assert lines[0].startswith("# label=71A level=71")
    return tuple(int(line) for line in lines[1:] if line.strip())


# the 14 level-71 representatives of discs -71 and -284, at each precision
# the oracle supports: at 448 bits the four with C = 8 need more coefficients
LEVEL71_POINTS = [
    alpha
    for disc in (-71, -284)
    for alpha in enumerate_representatives(71, disc, enumerate_class_group(disc))
]
LEVEL71_CASES = [(alpha, prec) for alpha in LEVEL71_POINTS for prec in (64, 128, 256, 448)
                 if not (prec == 448 and alpha.C == 8)]
LEVEL71_DEEP = [(alpha, prec) for alpha in LEVEL71_POINTS for prec in (512, 1024)]
REF_PREC = 448 + 64


@functools.cache
def _reference_sum(tau):
    """Every coefficient of the oracle summed in plain mpc arithmetic."""
    return _series_reference(tau, REF_PREC)


def _check_against_reference(tau, prec):
    got = evaluate_mpc(catalog_lookup(71, "fricke"), tau, prec)
    ref = _reference_sum(tau)
    with mp.workprec(REF_PREC):
        assert abs(got - ref) <= mp.mpf(2) ** -(prec - 8) * max(1, abs(ref))


class TestQSeriesKernel:
    """The theta quotient's fixed-point sums against the oracle series."""

    @pytest.mark.parametrize(
        "alpha,prec", LEVEL71_CASES, ids=[f"{a.A},{a.B},{a.C}@{p}" for a, p in LEVEL71_CASES]
    )
    def test_level71_representatives(self, alpha, prec):
        # the Fricke flip leaves the point alone (71|tau|^2 = -B/C >= 1), so
        # the reference may take q at tau itself
        assert -alpha.B >= alpha.C
        _check_against_reference(fixed_point(alpha), prec)

    @pytest.mark.parametrize(
        "alpha,prec", LEVEL71_CASES, ids=[f"{a.A},{a.B},{a.C}@{p}" for a, p in LEVEL71_CASES]
    )
    def test_summed_coefficients_within_scale(self, alpha, prec, monkeypatch):
        # the kernel's bound takes each table's own b over the terms summed:
        # 0 for the signs of the two pentagonal factors, and for the
        # numerator at most the proven A sqrt(e) ceiling that sizes the
        # scale, so a theta radius is never above that ceiling's
        seen = []

        def recording(table, count, powers):
            seen.append((table, count))
            return _fixed_series(table, count, powers)

        monkeypatch.setattr(cfq.hauptmodul, "_fixed_series", recording)
        entry = catalog_lookup(71, "fricke")
        evaluate_mpc(entry, fixed_point(alpha), prec)
        (low, low_count), (high, high_count), (table, count) = seen
        assert low.bits[low_count] == high.bits[high_count] == 0
        a, v = 2 * sum(abs(s) for _, s in entry.forms), (71 + 1) // 24
        assert table.bits[count] <= _coeff_bits(a, table.exps[count - 1] + v)

    @pytest.mark.parametrize("prec", [128, 256, 448])
    def test_sums_exponents_below_kstar(self, prec, monkeypatch):
        # Each series stops at its K*, the least exponent whose closed-form
        # tail bound meets the target fixed before the series is summed:
        # the summed exponents are exactly the table's below K*.  The two
        # pentagonal factors S(q) and S(q^71) share one K*.
        cutoffs, sums = [], []

        def recording_cutoff(ell, target, growth):
            k, tail = _cutoff(ell, target, growth)
            cutoffs.append((ell, target, growth, k))
            return k, tail

        def recording_series(table, count, powers):
            sums.append(table.exps[:count])
            return _fixed_series(table, count, powers)

        monkeypatch.setattr(cfq.hauptmodul, "_cutoff", recording_cutoff)
        monkeypatch.setattr(cfq.hauptmodul, "_fixed_series", recording_series)
        entry = catalog_lookup(71, "fricke")
        tau = fixed_point(enumerate_representatives(71, -71, enumerate_class_group(-71))[0])
        evaluate_mpc(entry, tau, prec)
        pentagonal = _pentagonal(1 << 8).exps
        tables = [pentagonal, [71 * e for e in pentagonal], _theta_numerator(entry, 1 << 14).exps]
        assert len(cutoffs) == 2 and len(sums) == 3
        for (ell, target, growth, k), summed, table in zip(cutoffs[:1] * 2 + cutoffs[1:], sums,
                                                           tables):
            assert _log_tail(ell, k, *growth(k)) <= target < _log_tail(ell, k - 1, *growth(k - 1))
            assert summed == tuple(e for e in table if e < k)

    @pytest.mark.parametrize("prec", [64, 256, 1024])
    def test_powers_built_once_per_point(self, prec, monkeypatch):
        # one set of powers of q per evaluation, and all three series are
        # summed against that same set, which names their point and scale
        built, used = [], []

        def recording_powers(q, m, w):
            built.append((m, _powers(q, m, w)))
            return built[-1][1]

        def recording_series(table, count, powers):
            used.append(powers)
            return _fixed_series(table, count, powers)

        monkeypatch.setattr(cfq.hauptmodul, "_powers", recording_powers)
        monkeypatch.setattr(cfq.hauptmodul, "_fixed_series", recording_series)
        entry = catalog_lookup(71, "fricke")
        for alpha in LEVEL71_POINTS:
            built.clear()
            used.clear()
            evaluate_mpc(entry, fixed_point(alpha), prec)
            assert len(built) == 1 and len(used) == 3
            (m, powers), = built
            assert m >= 1 and used[0] is used[1] is used[2] is powers and len(powers[2]) == m

    def test_scale_at_the_precision_ceiling(self, monkeypatch):
        # the lowest point the ascent leaves, Im = sqrt(3)/142, at the
        # ceiling: the three series, the longest any request sums, have
        # coefficient bounds and exponent sums far inside the double that
        # carries the kernel's bound, and the scale is at most 64 bits
        # above prec + guard (the range test_numerics checks exp's plan on);
        # exp's table at that scale bounds its coefficients
        seen = []

        def recording(table, count, powers):
            seen.append((table.bits[count], powers[1], table.sums[count]))
            return _fixed_series(table, count, powers)

        monkeypatch.setattr(cfq.hauptmodul, "_fixed_series", recording)
        tau = CMPoint(71, 1, 142, 3)
        assert _fricke_ascent(tau, 71) == tau
        evaluate_mpc(catalog_lookup(71, "fricke"), tau, MAX_PREC_BITS)
        assert len(seen) == 3
        for bits, w, total in seen:
            assert bits < 16 and total < 2**40
            assert MAX_PREC_BITS + _GUARD < w <= MAX_PREC_BITS + _GUARD + 64
        assert_bits_bound_the_coefficients(_exp_plan(w)[2])


def _series_reference(tau, prec):
    """Every coefficient of the oracle summed in plain mpc at prec bits.

    The tau used here needs no reduction, and the tail past the data is
    checked to be negligible under the envelope |c_e| <= A exp(4 pi
    sqrt(e/71)) fitted to the file's coefficients.
    """
    coeffs = _oracle_coeffs()
    with mp.workprec(prec):
        z = cm_mpc(tau)
        q = mp.exp(2j * mp.pi * z)
        total = coeffs[0] / q
        qk = mp.mpc(1)
        for c in coeffs[1:]:
            total += c * qk
            qk *= q
        a = 4 * mp.pi / mp.sqrt(71)
        envelope = max(abs(c) / mp.exp(a * mp.sqrt(e))
                       for e, c in enumerate(coeffs[2:], start=1) if c)
        e = len(coeffs) - 1
        tail = envelope * mp.exp(a * mp.sqrt(e)) * abs(q) ** e
        assert tail < mp.mpf(2) ** -(prec - 200)
        return total


def _eta_reference(entry, tau, prec):
    """An eta-quotient entry's Laurent polynomial from unreduced eta series."""
    with mp.workprec(prec):
        z = cm_mpc(tau)
        t = mp.fprod(eta_direct_series(d * z, prec) ** r for d, r in entry.spec.terms)
        return mp.fsum(int(c) * t**e for e, c in entry.laurent.terms)


LEVEL1_POINTS = {
    "i": CMPoint(0, 1, 1, 1),
    "rho": CMPoint(-1, 1, 2, 3),
    # 1e-6 above the real axis: the reduction takes many steps
    "deep": CMPoint(41421356237, 100000, 10**11, 1),
}
KLEINJ_PREC = 448 + 256


def _sl2z_image(tau):
    """A matrix of SL2(Z) and tau's image under it, with |Re| <= 1/2 and |image| >= 1.

    Found on x = Re and y2 = Im^2 as fractions: x -> x - k with k the nearest
    integer, and (x, y2) -> (-x, y2) / (x^2 + y2) for tau -> -1/tau.
    """
    x, y2 = Fraction(tau.u, tau.w), Fraction(tau.n * tau.v**2, tau.w**2)
    a, b, c, d = 1, 0, 0, 1
    while True:
        k = round(x)
        x, a, b = x - k, a - k * c, b - k * d
        norm = x * x + y2
        if norm >= 1:
            return (a, b, c, d), (x, y2)
        x, y2 = -x / norm, y2 / norm**2
        a, b, c, d = -c, -d, a, b


@functools.cache
def _kleinj_reference(tau):
    """j(tau) - 744 from mpmath's kleinj, only where Im(tau) >= 1/2.

    kleinj loses all accuracy close to the real axis: at i 10^-6 it returns
    about 3.7e1763, against j - 744 = e^(2 pi 10^6) + O(e^(-2 pi 10^6)).
    """
    if 4 * tau.n * tau.v**2 < tau.w**2:
        raise ValueError(f"kleinj is no reference below Im 1/2, at {tau}")
    with mp.workprec(KLEINJ_PREC):
        return 1728 * mp.kleinj(cm_mpc(tau)) - 744


def _check_documented_bound(entry, tau, prec):
    got = evaluate_mpc(entry, tau, prec)
    if isinstance(entry, ThetaQuotientHaupt):
        assert entry.level == 71
        ref = _series_reference(tau, prec + 256)
    else:
        ref = _eta_reference(entry, tau, prec + 256)
    with mp.workprec(prec + 256):
        bound = mp.mpf(2) ** (ERROR_BITS - prec) * max(1, abs(ref))
        assert abs(got - ref) <= bound


class TestDocumentedBound:
    """|evaluate - t(tau)| <= 2^(ERROR_BITS - prec) max(1, |t(tau)|)."""

    @pytest.mark.parametrize(
        "alpha,prec", LEVEL71_CASES, ids=[f"{a.A},{a.B},{a.C}@{p}" for a, p in LEVEL71_CASES]
    )
    def test_level71_representatives(self, alpha, prec):
        _check_documented_bound(catalog_lookup(71, "fricke"), fixed_point(alpha), prec)

    @pytest.mark.parametrize(
        "alpha,prec", LEVEL71_DEEP, ids=[f"{a.A},{a.B},{a.C}@{p}" for a, p in LEVEL71_DEEP]
    )
    def test_level71_beyond_the_oracle(self, alpha, prec):
        # precisions the 3,600 coefficients never reached, against an
        # evaluation 256 bits deeper
        entry = catalog_lookup(71, "fricke")
        tau = fixed_point(alpha)
        got = evaluate_mpc(entry, tau, prec)
        ref = evaluate_mpc(entry, tau, prec + 256)
        with mp.workprec(prec + 256):
            assert abs(got - ref) <= mp.mpf(2) ** (ERROR_BITS - prec) * max(1, abs(ref))

    @pytest.mark.parametrize("prec", [128, 256, 448])
    @pytest.mark.parametrize("tau", [CMPoint(0, 1, 1, 1), CMPoint(-1, 1, 2, 3)],
                             ids=["i", "rho"])
    def test_level1(self, tau, prec):
        _check_documented_bound(catalog_lookup(1, "gamma0"), tau, prec)

    @pytest.mark.parametrize("prec", [128, 256, 448])
    @pytest.mark.parametrize("point", sorted(LEVEL1_POINTS))
    def test_level1_against_kleinj(self, point, prec):
        # j - 744 from mpmath's theta-function kleinj, an oracle that shares
        # no code with the eta path, at the point's image under SL2(Z); the
        # matrix is checked exactly, and the image has Im >= sqrt(3)/2
        tau = LEVEL1_POINTS[point]
        (a, b, c, d), (x, y2) = _sl2z_image(tau)
        image = cm_mobius((a, b, c, d), tau)
        assert a * d - b * c == 1
        assert (Fraction(image.u, image.w), Fraction(image.n * image.v**2, image.w**2)) == (x, y2)
        assert abs(x) <= Fraction(1, 2) and x * x + y2 >= 1
        got = evaluate_mpc(catalog_lookup(1, "gamma0"), tau, prec)
        ref = _kleinj_reference(image)
        with mp.workprec(KLEINJ_PREC):
            assert abs(got - ref) <= mp.mpf(2) ** (ERROR_BITS - prec) * max(1, abs(ref))

    def test_kleinj_reference_refuses_low_points(self):
        # the deep point itself, and Im just below 1/2; at i/2, on the
        # boundary, it gives j(2i) - 744 = 66^3 - 744
        for tau in (LEVEL1_POINTS["deep"], CMPoint(0, 499, 1000, 1)):
            with pytest.raises(ValueError, match="below Im 1/2"):
                _kleinj_reference(tau)
        with mp.workprec(KLEINJ_PREC):
            assert abs(_kleinj_reference(CMPoint(0, 1, 2, 1)) - (66**3 - 744)) < mp.mpf(2) ** -600

    @pytest.mark.parametrize("prec", [128, 256])
    @pytest.mark.parametrize("key", level_keys(), ids=lambda k: "%d-%s%d" % k)
    def test_sweep_points(self, key, prec):
        n, group, disc = key
        entry = catalog_lookup(n, group)
        for alpha in enumerate_representatives(n, disc, enumerate_class_group(disc)):
            _check_documented_bound(entry, fixed_point(alpha), prec)


    @pytest.mark.parametrize("im", ["1e-3", "1e-6", "3e-8", "1e-9"])
    @pytest.mark.parametrize("level,group", [(2, "gamma0"), (2, "fricke"), (1, "gamma0")])
    def test_near_the_real_axis(self, level, group, im):
        # values far beyond the range of a double, where the bound is relative;
        # the reference is a 256-bit-deeper evaluation of the same exact tau
        entry = catalog_lookup(level, group)
        tau = _above_three_tenths(im)
        got = evaluate_mpc(entry, tau, 128)
        ref = evaluate_mpc(entry, tau, 128 + 256)
        with mp.workprec(128 + 256):
            assert abs(got - ref) <= mp.mpf(2) ** (ERROR_BITS - 128) * max(1, abs(ref))

    @pytest.mark.parametrize("prec", [64, 128, 256])
    @pytest.mark.parametrize("level,group", [(1, "gamma0"), (12, "gamma0"), (71, "fricke")])
    def test_random_rational_points(self, level, group, prec):
        # exact points with |Re| <= 3, high enough for the unreduced series,
        # checked against those series summed at the point itself, and far
        # lower, against an evaluation 256 bits deeper
        entry = catalog_lookup(level, group)
        rng = random.Random(1000 * level + prec)
        for high in (True, False):
            for _ in range(6):
                tau = rational_point(rng, -3, 3, *((0.3, 1.5) if high else (1e-4, 0.3)))
                got = evaluate_mpc(entry, tau, prec)
                if not high:
                    ref = evaluate_mpc(entry, tau, prec + 256)
                elif level == 71:
                    with mp.workprec(prec + 256):
                        ref = _theta_reference(entry, cm_mpc(tau), prec + 256)
                else:
                    ref = _eta_reference(entry, tau, prec + 256)
                with mp.workprec(prec + 256):
                    bound = mp.mpf(2) ** (ERROR_BITS - prec) * max(1, abs(ref))
                    assert abs(got - ref) <= bound

    @pytest.mark.parametrize("prec", [64, 128, 448])
    @pytest.mark.parametrize("level,group", [(1, "gamma0"), (12, "gamma0"), (71, "fricke")])
    def test_a_millionth_above_the_axis(self, level, group, prec):
        # i / 10^6 against an evaluation 256 bits deeper; at level 1 also
        # against j(10^6 i) - 744 = 1/q + O(q), q = e^(-2 pi 10^6), as the
        # terms past 1/q are below 2^-(10^7)
        entry = catalog_lookup(level, group)
        tau = CMPoint(0, 1, 10**6, 1)
        got = evaluate_mpc(entry, tau, prec)
        refs = [evaluate_mpc(entry, tau, prec + 256)]
        if level == 1:
            with mp.workprec(prec + 256 + 32):
                refs.append(mp.exp(2 * mp.pi * 10**6))
        with mp.workprec(prec + 256):
            for ref in refs:
                assert abs(got - ref) <= mp.mpf(2) ** (ERROR_BITS - prec) * max(1, abs(ref))

    def test_ill_conditioned_point_refused(self):
        # The reduced points lie about 10^38 high: the exp that gives
        # q^(1/24) there, at 128 + 48 bits, has an argument formed from pi
        # and sqrt(n) within about 2^-176 10^38 = 2^-50, which moves the value
        # by more than the 2^-128 asked for, so no value is returned
        with pytest.raises(ConvergenceError, match="exceeds the bound"):
            evaluate_mpc(catalog_lookup(2, "gamma0"), _above_three_tenths("1e-40"), 128)
        # the theta quotient: i / 10^40 flips to 10^40 i / 71, and
        # exp(2 pi i tau) there is as uncertain
        with pytest.raises(ConvergenceError, match="exceeds the bound"):
            evaluate_mpc(catalog_lookup(71, "fricke"), CMPoint(0, 1, 10**40, 1), 128)
        # 10^-20 above the axis the estimates, about 1e5 and 200 units, are
        # far smaller, and still above the 2^2 units evaluate may return with
        for entry, tau in ((catalog_lookup(2, "gamma0"), _above_three_tenths("1e-20")),
                           (catalog_lookup(71, "fricke"), CMPoint(0, 1, 10**20, 1))):
            with pytest.raises(ConvergenceError, match="exceeds the bound"):
                evaluate_mpc(entry, tau, 128)


# T71 = 0 at (29 + sqrt(-11))/142, a root of 71 x^2 - 29 x + 3 (class number
# 1, found by Newton's method on _theta_reference), where the numerator N
# cancels to rounding noise; within 5e-10 of that zero at the point rounded to ten
# decimals; and |T71| = 0.262 at a point 0.018 above the axis
SMALL_VALUES = [CMPoint(29, 1, 142, 11), CMPoint(2042253521, 233565126, 10**10, 1),
                CMPoint(-1364444, 8779, 487038, 1)]


# the six theta keys, and the reference precision of their points: 40 bits
# below the radius's unit at 4096 bits
THETA_KEYS = [(n, disc) for n in (23, 47, 71) for disc in (-n, -4 * n)]
RADIUS_REF_PREC = 4096 + _GUARD + 40


@functools.cache
def _theta_point_reference(level, u, v, w, n):
    """_theta_reference at (u + v sqrt(-n))/w, 0 <= u < w, or at its mirror image conjugated.

    t(tau + 1) = t(tau), and t(-conj(tau)) = conj(t(tau)) as the
    coefficients are rational, so a class and its mirror share one sum.
    """
    with mp.workprec(RADIUS_REF_PREC):
        if (-u) % w < u:
            return mp.conj(_theta_point_reference(level, (-u) % w, v, w, n))
        return _theta_reference(catalog_lookup(level, "fricke"), cm_mpc(CMPoint(u, v, w, n)),
                                RADIUS_REF_PREC)


class TestFixedPointValues:
    """evaluate's two kinds in integers, against mpmath 300 bits deeper."""

    @pytest.mark.parametrize("key", THETA_KEYS, ids=lambda k: "%d%d" % k)
    def test_theta_radius_at_the_paper_points(self, key):
        # every point of the key, the 14 level-71 points among them, at 64
        # to 4096 bits: the radius, in units of 2^-(prec + 48) max(1, |t|),
        # holds the quotient summed at the point itself, a test far tighter
        # than the 2^-(prec - 8) of _check_against_reference
        n, disc = key
        entry = catalog_lookup(n, "fricke")
        for alpha in enumerate_representatives(n, disc, enumerate_class_group(disc)):
            tau = fixed_point(alpha)
            want = _theta_point_reference(n, tau.u % tau.w, tau.v, tau.w, tau.n)
            for prec in (64, 256, 1024, 4096):
                value = _evaluate_theta(entry, tau, prec)
                with mp.workprec(RADIUS_REF_PREC):
                    got = ball_mpc(value)
                    unit = max(1, abs(got)) * mp.mpf(2) ** -(prec + _GUARD)
                    assert abs(got - want) <= value.rad * unit, (alpha, prec)

    @pytest.mark.parametrize("prec", [64, 256])
    def test_theta_value_above_the_last_bit(self, prec):
        # at 100 i, |T23| ~ e^(200 pi) ~ 2^906 is far above 2^w: the value's
        # last bit lies above 1, q underflows any fixed scale, and the radius
        # still holds the quotient summed at the point itself
        entry = catalog_lookup(23, "fricke")
        tau = CMPoint(0, 100, 1, 1)
        value = _evaluate_theta(entry, tau, prec)
        assert value.exp > 0
        w = prec + _GUARD
        with mp.workprec(w + 300):
            want = _theta_reference(entry, cm_mpc(tau), w + 300)
            got = ball_mpc(value)
            assert abs(got - want) <= value.rad * abs(got) * mp.mpf(2) ** -w

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_theta_within_radius(self, data):
        # the radius of the theta quotient, in units of 2^-w max(1, |t|) at
        # w = prec + 48, against the quotient summed at the point itself
        w = data.draw(st.sampled_from([112, 304, 1072]))
        entry = catalog_lookup(data.draw(st.sampled_from([23, 47, 71])), "fricke")
        t = data.draw(st.integers(min_value=1, max_value=10**6))
        tau = CMPoint(data.draw(st.integers(-3 * t, 3 * t)),
                      data.draw(st.integers(3 * t // 10 + 1, 3 * t // 2)), t, 1)
        value = _evaluate_theta(entry, tau, w - _GUARD)
        with mp.workprec(w + 300):
            want = _theta_reference(entry, cm_mpc(tau), w + 300)
            got = ball_mpc(value)
            assert abs(got - want) <= value.rad * max(1, abs(got)) * mp.mpf(2) ** -w

    @pytest.mark.parametrize("w", [112, 304, 1072])
    @pytest.mark.parametrize("tau", SMALL_VALUES, ids=["exact-zero", "zero", "quarter"])
    def test_theta_where_the_value_is_small(self, tau, w):
        # |t| < 1, where the numerator N cancels: the radius, in units of
        # 2^-w max(1, |t|), holds the quotient summed at the point itself
        # and stays within what evaluate accepts
        entry = catalog_lookup(71, "fricke")
        value = _evaluate_theta(entry, tau, w - _GUARD)
        assert value.rad <= 2.0 ** (ERROR_BITS - 1 + _GUARD)
        with mp.workprec(w + 300):
            want = _theta_reference(entry, cm_mpc(tau), w + 300)
            got = ball_mpc(value)
            assert abs(want) < 1e-9 or 0.25 < abs(want) < 0.27
            assert abs(got - want) <= value.rad * max(1, abs(got)) * mp.mpf(2) ** -w

    @pytest.mark.parametrize("w", [112, 304])
    @pytest.mark.parametrize("tau", SMALL_VALUES + [CMPoint(3, 51, 10, 1)],
                             ids=["exact-zero", "zero", "quarter", "high"])
    def test_theta_with_q_off_by_its_radius(self, tau, w, monkeypatch):
        # q moved by 2^-(w - 56) of itself, with its radius grown to match:
        # the error of the pole, of both factors of D and of N is then far
        # above the tails, and the radius still holds the quotient summed at
        # the point itself, also where N cancels.  At 3/10 + 5.1 i, |t| ~
        # 1/|q| and N's error over |q D| is far below the pole's, so only
        # q's radius in the pole covers the move.
        shift = w - 56

        def moved(*args):
            q = _exp_i_pi(*args)
            rad = 1.01 * (q.rad + 2.0 ** (args[-1] - shift)) + 2
            return Ball(q.re + (q.re >> shift), q.im + (q.im >> shift), q.exp, rad)

        monkeypatch.setattr(cfq.hauptmodul, "_exp_i_pi", moved)
        entry = catalog_lookup(71, "fricke")
        value = _evaluate_theta(entry, tau, w - _GUARD)
        with mp.workprec(w + 300):
            want = _theta_reference(entry, cm_mpc(tau), w + 300)
            got = ball_mpc(value)
            assert abs(got - want) > mp.mpf(2) ** (-shift - 8)
            assert abs(got - want) <= value.rad * max(1, abs(got)) * mp.mpf(2) ** -w

    @pytest.mark.parametrize("prec", [64, 1024])
    def test_theta_charges_the_kernel_bound_twice(self, prec, monkeypatch):
        # A series' error in units of 2^-w holds its kernel bound twice: once
        # for the sum's own floors and once for q's truncation, as q^e moves
        # sqrt(2) e, the kernel's per-exponent charge.  N's error reaches the
        # radius over |q D| = |N| / |t|, so N's bound grown by extra grows
        # the radius by 2 extra |t| / (|N| max(1, |t|)) units of 2^-wp.
        entry = catalog_lookup(71, "fricke")
        tau = fixed_point(EllipticElement(71, 1, -36, 2))
        sums, extra = [], [0.0]

        def grown(table, count, powers):
            sr, si, bound = _fixed_series(table, count, powers)
            sums.append((sr, si))
            # the third series is N, after S(q) and S(q^N)
            return sr, si, bound + (extra[0] if len(sums) == 3 else 0.0)

        monkeypatch.setattr(cfq.hauptmodul, "_fixed_series", grown)
        value = _evaluate_theta(entry, tau, prec)
        wp = prec + _GUARD
        with mp.workprec(64):
            n_mag = mp.hypot(*sums[2])
            extra[0] = float(n_mag * mp.mpf(2) ** -wp * value.rad)
            t = abs(ball_mpc(value))
            want = float(2 * extra[0] * mp.mpf(2) ** wp * t / (n_mag * max(1, t)))
        sums.clear()
        again = _evaluate_theta(entry, tau, prec)
        assert again[:3] == value[:3]
        assert again.rad - value.rad == pytest.approx(want, rel=1e-9)

    @pytest.mark.parametrize("factor", [0, 1], ids=["S(q)", "S(q^N)"])
    @pytest.mark.parametrize("tau", [SMALL_VALUES[2], CMPoint(3, 51, 10, 1)],
                             ids=["quarter", "high"])
    def test_theta_with_a_factor_off_by_its_bound(self, tau, factor, monkeypatch):
        # one factor of D moved by 2^-56 with its kernel bound grown to
        # match: the move is beyond all that the unmoved radius holds, as
        # the budget's other terms are far smaller, and D's relative error
        # in the radius holds it
        w = 112
        calls = []

        def moved(table, count, powers):
            sr, si, bound = _fixed_series(table, count, powers)
            scale = powers[1]
            calls.append(scale)
            if len(calls) == factor + 1:
                return sr + (1 << (scale - 56)), si, bound + 2.0 ** (scale - 56)
            return sr, si, bound

        entry = catalog_lookup(71, "fricke")
        plain = _evaluate_theta(entry, tau, w - _GUARD)
        monkeypatch.setattr(cfq.hauptmodul, "_fixed_series", moved)
        value = _evaluate_theta(entry, tau, w - _GUARD)
        with mp.workprec(w + 300):
            want = _theta_reference(entry, cm_mpc(tau), w + 300)
            got = ball_mpc(value)
            unit = max(1, abs(got)) * mp.mpf(2) ** -w
            assert abs(got - want) > plain.rad * unit
            assert abs(got - want) <= value.rad * unit

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_laurent_sum_within_radius(self, data):
        # every catalog Laurent polynomial at an exact t of any size, with a
        # radius of its own that passes into each power
        w = data.draw(st.sampled_from([112, 304, 1072]))
        key = data.draw(st.sampled_from([(1, "gamma0"), (2, "gamma0"), (2, "fricke"),
                                         (25, "fricke")]))
        laurent = catalog_lookup(*key).laurent
        bits = data.draw(st.integers(w + 1, w + 4))
        x = data.draw(st.integers(-(1 << bits) + 1, (1 << bits) - 1))
        y = data.draw(st.integers(1 << (bits - 1), (1 << bits) - 1))
        t = Ball(x, y, data.draw(st.integers(-w - 40, 40 - w)),
                 data.draw(st.sampled_from([0.0, 3.0, 1e6])))
        value = _laurent_sum(laurent, t, w)
        with mp.workprec(w + 300):
            # t moved by its whole radius, in the direction that moves its
            # highest power most
            exact = ball_mpc(t) * (1 + t.rad * mp.mpf(2) ** -w)
            want = mp.fsum(int(c) * exact**e for e, c in laurent.terms)
            got = ball_mpc(value)
            assert abs(got - want) <= value.rad * max(1, abs(got)) * mp.mpf(2) ** -w

    @pytest.mark.parametrize("level,group,disc", [(1, "gamma0", -4), (12, "gamma0", -48),
                                                  (25, "fricke", -100), (71, "fricke", -284)])
    def test_evaluate_does_no_mpmath_arithmetic(self, level, group, disc, monkeypatch):
        # with mpmath's exp, sqrt and its complex and real arithmetic made to
        # raise, every point of the key still evaluates, at a precision no
        # other test caches anything for, and to the bits it has without them
        entry = catalog_lookup(level, group)
        points = [fixed_point(alpha) for alpha in
                  enumerate_representatives(level, disc, enumerate_class_group(disc))]

        def refuse(*args, **kwargs):
            raise AssertionError("mpmath arithmetic inside evaluate")

        monkeypatch.setattr(mp, "exp", refuse)
        monkeypatch.setattr(mp, "sqrt", refuse)
        for cls in (mpmath.mpc, mpmath.mpf):
            for op in ("__mul__", "__truediv__", "__add__", "__sub__", "__pow__"):
                monkeypatch.setattr(cls, op, refuse)
        got = [evaluate(entry, tau, 136) for tau in points]
        monkeypatch.undo()
        want = [evaluate(entry, tau, 136) for tau in points]
        assert got == want


def _exact(z: Ball) -> tuple[Fraction, Fraction]:
    """A `numerics.Ball`'s two parts as exact rationals."""
    scale = Fraction(2) ** z.exp
    return z.re * scale, z.im * scale


class TestEtaClosedForm:
    """Every eta value of the degree-law sweep against its closed form, in
    exact rationals.  Each point is fixed by an element W gamma of the
    Fricke coset, and t(W z) = kappa / t(z), so t^2 = kappa there: a gamma0
    value t + r_1 is r_1 +- sqrt(kappa), a fricke-sym value t + r_1 + kappa / t
    is r_1 +- 2 sqrt(kappa), and at level 1, j(i) - 744 = 984."""

    @pytest.mark.parametrize("prec", [64, 1024, 4096])
    def test_eta_values_within_radius_of_the_closed_form(self, prec):
        points = 0
        for n, group, disc in level_keys():
            if n == 1:
                r_1, c2 = Fraction(984), 0
            else:
                r_1 = Fraction(dict(catalog_lookup(n, group).laurent.terms)[0])
                kappa = int(dict(catalog_lookup(n, "fricke").laurent.terms)[-1])
                c2 = kappa if group == "gamma0" else 4 * kappa
            for value in singular_values(n, group, disc, prec).values():
                points += 1
                re, im = _exact(value)
                x = re - r_1
                # |value - (r_1 +- c)| <= rad 2^-prec max(1, |value|), c^2 = c2,
                # squared: x^2 + c2 + im^2 - bound^2 <= 2 |x| c, the sign of c
                # taken as x's
                bound2 = (Fraction(value.rad) / 2**prec) ** 2 * max(1, re * re + im * im)
                lhs = x * x + c2 + im * im - bound2
                assert lhs <= 0 or lhs * lhs <= 4 * x * x * c2, (n, group, disc)
        assert points == 53


def _above_three_tenths(im: str) -> CMPoint:
    """The exact point 3/10 + i im, for im = "<m>e-<k>"."""
    m, k = im.split("e-")
    w = 10 ** int(k)
    return CMPoint(3 * w // 10, int(m), w, 1)


class TestCatalogValidation:
    """Random-sample invariance of every built-in entry under its group."""

    @pytest.mark.parametrize("n", sorted(GAMMA0_LEVELS))
    def test_eta_quotient_invariance(self, n):
        entry = catalog_lookup(n, "gamma0")
        rng = random.Random(1000 + n)
        tol = mp.mpf(2) ** (-PREC + 16)
        with mp.workprec(PREC + 32):
            for _ in range(20):
                tau = rational_point(rng, -0.5, 0.5, 0.8, 1.6)
                base = evaluate_mpc(entry, tau, PREC)
                for _ in range(5):
                    gamma = random_gamma0(rng, n)
                    moved = evaluate_mpc(entry, cm_mobius(gamma, tau), PREC)
                    assert abs(moved - base) < tol * max(1, abs(base))

    @pytest.mark.parametrize("n", sorted(GAMMA0_LEVELS - {1}))
    def test_fricke_sym_invariance(self, n):
        entry = catalog_lookup(n, "fricke")
        rng = random.Random(2000 + n)
        tol = mp.mpf(2) ** (-PREC + 16)
        with mp.workprec(PREC + 32):
            for _ in range(8):
                tau = rational_point(rng, -0.5, 0.5, 0.8, 1.6)
                base = evaluate_mpc(entry, tau, PREC)
                wtau = cm_mobius((0, -1, n, 0), tau)
                assert abs(evaluate_mpc(entry, wtau, PREC) - base) < tol * max(1, abs(base))
                gamma = random_gamma0(rng, n)
                moved = evaluate_mpc(entry, cm_mobius(gamma, tau), PREC)
                assert abs(moved - base) < tol * max(1, abs(base))

    @pytest.mark.parametrize("n", [23, 47, 71])
    def test_theta_quotient_invariance(self, n):
        # Points below Im = sqrt(3)/(2n), where evaluate moves the point
        # through SL2(Z), a coset of Gamma0(n) and the Fricke flip before it
        # sums; their images under Gamma0(n) and the flip too.  Each against
        # the quotient summed at the point itself, so the test fails unless
        # the formula is invariant under the group.
        entry = catalog_lookup(n, "fricke")
        rng = random.Random(4000 + n)
        tol = mp.mpf(2) ** (-PREC + 16)
        with mp.workprec(PREC + 32):
            for _ in range(3):
                low = math.sqrt(3) / (2 * n)
                tau = rational_point(rng, -0.45, 0.45, 0.35 * low, 0.9 * low)
                point = _fricke_ascent(tau, n)
                assert 10 * point.v * tau.w > 11 * tau.v * point.w
                with mp.workprec(PREC + 64):
                    ref = _theta_reference(entry, cm_mpc(tau), PREC + 64)
                moved = [tau, cm_mobius((0, -1, n, 0), tau)] + [
                    cm_mobius(random_gamma0(rng, n), tau) for _ in range(2)]
                for z in moved:
                    assert abs(evaluate_mpc(entry, z, PREC) - ref) < tol * max(1, abs(ref))

    @pytest.mark.parametrize("n", sorted(GAMMA0_LEVELS - {1}))
    def test_fricke_sym_product_identity(self, n):
        entry = catalog_lookup(n, "fricke")
        rng = random.Random(3000 + n)
        from cfq.eta import eta_quotient

        kappa = int(dict(entry.laurent.terms)[-1])

        tol = mp.mpf(2) ** (-PREC + 16)
        with mp.workprec(PREC + 32):
            for _ in range(20):
                tau = rational_point(rng, -0.5, 0.5, 0.7, 1.8)
                t1 = ball_mpc(eta_quotient(entry.spec, tau, PREC + _GUARD))
                t2 = ball_mpc(eta_quotient(entry.spec, cm_mobius((0, -1, n, 0), tau),
                                           PREC + _GUARD))
                assert abs(t1 * t2 - kappa) < tol * kappa
