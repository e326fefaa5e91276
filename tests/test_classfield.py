"""Pipeline tests: singular values and class polynomials."""

import hashlib
import json
from collections import Counter
from fractions import Fraction

import pytest
from mpmath import mp

import cfq.classfield
import cfq.elliptic
import cfq.eta
import cfq.quadforms

from conftest import (
    H71, H284, ball_mpc, level_keys, mpc_ball, mpf_parts, rat, rat_divmod, rat_gcd,
)
from cfq.classfield import ring_class_polynomial, singular_values
from cfq.cli import _class_poly_json
from cfq.elliptic import EllipticElement, enumerate_representatives, fixed_point
from cfq.errors import DomainError, RoundingFailureError
from cfq.exactpoly import IntPoly
from cfq.hauptmodul import ERROR_BITS, _kappa, catalog_lookup, evaluate
from cfq.numerics import PrecisionPolicy, _SeriesTable, certify_int_poly
from cfq.quadforms import QuadForm, enumerate_class_group, reduce_form


# the six keys of the theta quotients, levels 71, 47 and 23
THETA_KEYS = [(71, "fricke", -71), (71, "fricke", -284), (47, "fricke", -47),
              (47, "fricke", -188), (23, "fricke", -23), (23, "fricke", -92)]


class TestSingularValues:
    def test_disc_71_root_sum(self):
        vals = singular_values(71, "fricke", -71, 256)
        assert len(vals.entries) == 7
        # degree-6 coefficient of the published polynomial is 4
        with mp.workprec(256):
            total = sum(ball_mpc(v) for v in vals.values())
            assert abs(total + 4) < mp.mpf(2) ** -64

    def test_disc_284_root_product(self):
        vals = singular_values(71, "fricke", -284, 256)
        # constant term -11 at odd degree 7: product of roots is +11
        with mp.workprec(256):
            prod = mp.fprod(ball_mpc(v) for v in vals.values())
            assert abs(prod - 11) < mp.mpf(2) ** -64

    def test_level2_value(self):
        vals = singular_values(2, "gamma0", -8, 128)
        assert len(vals.entries) == 1
        # eta fixed-point identity gives 64 for the raw quotient; the catalog
        # normalization adds the constant shift 24
        assert abs(ball_mpc(vals.values()[0]) - 88) < mp.mpf(2) ** -96

    def test_level71_values_bit_identical(self):
        # sha256 over sign, mantissa and exponent of the real and imaginary
        # parts of all 14 values: any change to a working precision or to
        # where a value is rounded shows here
        digest = hashlib.sha256()
        for disc in (-71, -284):
            for value in singular_values(71, "fricke", disc, 256).values():
                for x in (value.re, value.im):
                    sign, man, exp = mpf_parts(x, value.exp)
                    digest.update(f"{sign} {man} {exp};".encode())
        assert digest.hexdigest() == (
            "4e72a00208de8b1816a6fdf439e81954bb21250451d2b1b4e4c32615ccfedd81"
        )

    def test_small_levels_bit_identical(self):
        # the eta path at every key of the degree-law sweep, hashed as the
        # level-71 values are: each factor's point reduced in integers;
        # once per reduced point mod 1, from its first factor, q^(1/24) from
        # the fixed-point exp; each later factor's q^(1/24) that one times a
        # cached 24th root of unity; where the exponents there sum to R != 0,
        # q^24 from its chain of five products and the pentagonal series
        # summed in blocks of isqrt(e_max) + 1 exponents, raised to |R|; and
        # each value rounded once
        digest = hashlib.sha256()
        for key in level_keys():
            for value in singular_values(*key, 256).values():
                for x in (value.re, value.im):
                    sign, man, exp = mpf_parts(x, value.exp)
                    digest.update(f"{sign} {man} {exp};".encode())
        assert digest.hexdigest() == (
            "77f9e0c02a3b5b5ed5894b96d669a291981ff18569fa384c5dd73045bd22b242"
        )

    def test_radii_bit_identical(self):
        # the radius of every value of the 39 keys that compute, hashed by
        # its repr: a changed bound or summation order in any series shows
        # here even where the rounded values do not move
        digest = hashlib.sha256()
        for key in level_keys() + THETA_KEYS:
            for value in singular_values(*key, 256).values():
                digest.update(f"{value.rad!r};".encode())
        assert digest.hexdigest() == (
            "4f6b9cb9f39a1d8502f9bf0d32e7ee7132f45da4173a9c81c99454af2750ce4d"
        )

    @pytest.mark.parametrize("prec", [64, 256])
    def test_values_in_lowest_terms(self, prec):
        # one value, one (re, im, exp): a part odd, or zero as (0, 0, 0); a
        # real value, a self-mirror class's among them, keeps at most prec
        # bits, where an imaginary part rounded away once left it wider
        for key in level_keys() + THETA_KEYS:
            for value in singular_values(*key, prec).values():
                assert (value.re | value.im) & 1 or value[:3] == (0, 0, 0), key
                assert value.im or abs(value.re).bit_length() <= prec, key

    def test_classes_pairwise_distinct(self):
        vals = singular_values(71, "fricke", -284, 128)
        reps = [form for form, _, _, _ in vals.entries]
        assert len(set(reps)) == len(reps)


def _same_bits(x, y) -> bool:
    return all(mpf_parts(a, x.exp) == mpf_parts(b, y.exp) for a, b in zip(x[:2], y[:2]))


@pytest.fixture
def evaluate_calls(monkeypatch):
    """A list that grows by one entry per evaluate call singular_values makes."""
    import cfq.classfield

    calls = []
    original = cfq.classfield.evaluate

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(cfq.classfield, "evaluate", counted)
    return calls


class TestInversePairs:
    """One evaluation per {class, inverse} pair, the other value conjugated."""

    @pytest.mark.parametrize("disc", [-71, -284])
    def test_four_evaluations_for_seven_classes(self, disc, evaluate_calls):
        singular_values(71, "fricke", disc, 256)
        # the principal class and one class of each of the three pairs
        assert len(evaluate_calls) == 4

    @pytest.mark.parametrize("prec", [128, 256])
    @pytest.mark.parametrize("disc", [-71, -284])
    def test_conjugates_bit_identical_to_evaluation(self, disc, prec):
        vals = singular_values(71, "fricke", disc, prec)
        spec = catalog_lookup(71, "fricke")
        cg = vals.class_group
        conjugated = 0
        for i, (_cls, _alpha, tau, value) in enumerate(vals.entries):
            if cg.inverse_idx(i) < i:
                conjugated += 1
                assert _same_bits(value, evaluate(spec, tau, prec)), i
        assert conjugated == 3

    def test_self_mirror_class_is_exactly_real(self, monkeypatch):
        # the principal class of disc -71 is its own inverse, and its
        # representative (A, C) = (1, 2) its own mirror image: 2A = 0 mod C
        tiny = mp.mpf(2) ** -300
        evaluated = []

        def off_axis(spec, tau, prec):
            # the value moved off the real axis by far less than evaluate's
            # bound, so only singular_values' self-mirror branch makes it real
            value = ball_mpc(evaluate(spec, tau, prec))
            evaluated.append(tau)
            with mp.workprec(prec + 64):
                return mpc_ball(mp.mpc(value.real, value.imag + tiny))

        monkeypatch.setattr(cfq.classfield, "evaluate", off_axis)
        vals = singular_values(71, "fricke", -71, 256)
        form, alpha, tau, value = vals.entries[0]
        assert form == QuadForm(1, 1, 18) and (2 * alpha.A) % alpha.C == 0
        spec = catalog_lookup(71, "fricke")
        assert evaluated[0] == tau and off_axis(spec, tau, 256).im != 0
        direct = evaluate(spec, tau, 256)
        assert value.im == 0 and mpf_parts(value.re, value.exp) == mpf_parts(direct.re, direct.exp)

    def test_non_mirror_representative_is_evaluated(self, evaluate_calls, monkeypatch):
        cg = enumerate_class_group(-71)
        reps = enumerate_representatives(71, -71, cg)
        k = next(i for i in range(7) if cg.inverse_idx(i) < i)
        # a deeper element of the same class, so no longer the mirror image
        # of its inverse's representative
        deeper = (
            EllipticElement(71, a, -(1 + 71 * a * a) // c, c)
            for c in range(reps[k].C + 1, 400)
            for a in range(c)
            if (1 + 71 * a * a) % c == 0
        )
        other = next(
            el for el in deeper
            if reduce_form(el.primitive_form()) == cg.classes[k]
        )
        mixed = reps[:k] + [other] + reps[k + 1:]
        monkeypatch.setattr(cfq.classfield, "enumerate_representatives",
                            lambda n, disc, group: mixed)
        vals = singular_values(71, "fricke", -71, 256)
        assert len(evaluate_calls) == 5
        assert vals.entries[k][1] == other
        direct = evaluate(catalog_lookup(71, "fricke"), fixed_point(other), 256)
        assert _same_bits(vals.values()[k], direct)
        poly, residual, _ = certify_int_poly(vals.values(), ERROR_BITS + 1 - 256, 256)
        assert poly == H71 and residual < 2.0**-32


# class polynomials of the theta quotients of levels 47 and 23
THETA_POLYS = {
    (47, "fricke", -47): [1, 4, 8, 7, 4, 1],
    (47, "fricke", -188): [-19, -24, -20, -5, 0, 1],
    (23, "fricke", -23): [7, 11, 6, 1],
    (23, "fricke", -92): [-25, -17, -2, 1],
}


class TestRingClassPolynomial:
    def test_second_request_builds_no_table(self, monkeypatch):
        # every series table is cached with the series it holds, and none
        # with a request's key or point: a repeated request builds none,
        # and one whose pentagonal tables were dropped builds them again
        built = []
        init = _SeriesTable.__init__

        def counting(table, exps, coeffs):
            built.append(table)
            init(table, exps, coeffs)

        first = ring_class_polynomial(71, "fricke", -284)
        monkeypatch.setattr(_SeriesTable, "__init__", counting)
        assert ring_class_polynomial(71, "fricke", -284) == first
        assert built == []
        cfq.eta._pentagonal.cache_clear()
        assert ring_class_polynomial(71, "fricke", -284) == first
        assert built and all(set(table.coeffs) <= {-1, 1} for table in built)

    def test_disc_71(self):
        result = ring_class_polynomial(71, "fricke", -71)
        assert result.poly == H71
        assert result.prec_bits <= 512
        assert result.residual < 2.0**-32

    def test_disc_284(self):
        result = ring_class_polynomial(71, "fricke", -284)
        assert result.poly == H284
        assert result.residual < 2.0**-32

    def test_level2_disc8(self):
        result = ring_class_polynomial(2, "gamma0", -8)
        assert result.poly == IntPoly([-88, 1])

    def test_monic_degree_equals_class_number(self):
        for n, disc in [(5, -20), (6, -24), (7, -7)]:
            result = ring_class_polynomial(n, "gamma0", disc)
            assert result.poly.is_monic()
            assert result.poly.degree == enumerate_class_group(disc).class_number

    def test_square_free(self):
        for poly in (ring_class_polynomial(71, "fricke", -71).poly, H284):
            derivative = rat(k * c for k, c in enumerate(poly.coeffs) if k)
            assert len(rat_gcd(rat(poly.coeffs), derivative)) == 1
        # and the check can fail: (x + 1)^2 shares x + 1 with its derivative
        assert len(rat_gcd(rat([1, 2, 1]), rat([2, 2]))) == 2

    def test_conjugate_representative_same_polynomial(self):
        # the pipeline path and a by-hand path through the deep conjugate point
        from cfq.elliptic import EllipticElement, fixed_point
        from cfq.hauptmodul import catalog_lookup, evaluate

        entry = catalog_lookup(71, "fricke")
        shallow = evaluate(entry, fixed_point(EllipticElement(71, 1, -36, 2)), 160)
        deep = evaluate(entry, fixed_point(EllipticElement(71, 1, -2, 36)), 160)
        with mp.workprec(160):
            assert abs(ball_mpc(shallow) - ball_mpc(deep)) < mp.mpf(2) ** -32
        # substituting the conjugate value leaves the rounded polynomial alone
        vals = singular_values(71, "fricke", -71, 160)
        swapped = [deep] + vals.values()[1:]
        poly, residual, _ = certify_int_poly(swapped, ERROR_BITS + 1 - 160, 160)
        assert poly == H71 and residual < 2.0**-32

    def test_lookups_once_per_request(self, monkeypatch):
        import cfq.classfield
        import cfq.elliptic
        import cfq.hauptmodul
        import cfq.quadforms

        calls = Counter()

        def counted(module, name):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            return wrapper

        wrapped = counted(cfq.quadforms, "enumerate_class_group")
        for module in (cfq.classfield, cfq.elliptic, cfq.quadforms):
            monkeypatch.setattr(module, "enumerate_class_group", wrapped)
        monkeypatch.setattr(cfq.classfield, "catalog_lookup",
                            counted(cfq.classfield, "catalog_lookup"))
        monkeypatch.setattr(cfq.classfield, "singular_values",
                            counted(cfq.classfield, "singular_values"))
        result = ring_class_polynomial(71, "fricke", -284)
        assert result.poly == H284
        assert calls == Counter(
            enumerate_class_group=1, catalog_lookup=1, singular_values=1
        )

    def test_one_certified_round(self, certify_calls):
        for disc, published in [(-71, H71), (-284, H284)]:
            certify_calls.clear()
            result = ring_class_polynomial(71, "fricke", disc)
            assert result.poly == published
            assert result.prec_bits == 64 and certify_calls == [64]
            # about 2^(14 - prec) for both discriminants
            assert 0 < result.r_max < Fraction(2) ** (16 - result.prec_bits)
            assert result.residual + result.r_max < Fraction(1, 2)

    @pytest.mark.parametrize(
        "key", level_keys() + [(71, "fricke", -71), (71, "fricke", -284)]
    )
    def test_catalog_key_certified_in_one_round(self, key, certify_calls):
        # every catalog key that computes is certified in its one round at
        # the 64-bit floor, with the polynomial of a 128-bit start
        result = ring_class_polynomial(*key)
        assert result.prec_bits == 64 and certify_calls == [64]
        assert result.poly.degree == enumerate_class_group(key[2]).class_number
        high = ring_class_polynomial(*key, PrecisionPolicy(start_bits=128))
        assert high.prec_bits == 128 and result.poly == high.poly

    def test_refused_round_raises(self, monkeypatch):
        # the one round's RoundingFailureError reaches the caller unchanged,
        # after one certification and one class-group enumeration
        calls = Counter()
        enumerate_original = cfq.classfield.enumerate_class_group

        def counted_enumerate(disc):
            calls["enumerate_class_group"] += 1
            return enumerate_original(disc)

        def refuse(values, radius_log2, prec):
            calls["certify_int_poly"] += 1
            raise RoundingFailureError(Fraction(1, 4), Fraction(1, 8))

        for module in (cfq.classfield, cfq.elliptic, cfq.quadforms):
            monkeypatch.setattr(module, "enumerate_class_group", counted_enumerate)
        monkeypatch.setattr(cfq.classfield, "certify_int_poly", refuse)
        with pytest.raises(RoundingFailureError) as exc:
            ring_class_polynomial(71, "fricke", -71)
        assert (exc.value.residual, exc.value.tol) == (0.25, 0.125)
        assert calls == Counter(enumerate_class_group=1, certify_int_poly=1)

    def test_start_above_ceiling_is_refused_before_work(self, evaluate_calls):
        with pytest.raises(DomainError, match="from 64 to 16384 bits, got 20000"):
            ring_class_polynomial(2, "gamma0", -8, PrecisionPolicy(start_bits=20000))
        assert evaluate_calls == []

    @pytest.mark.parametrize("policy", [128, "128", 128.0, {"start_bits": 128}])
    def test_refuses_a_policy_that_is_not_one(self, policy, evaluate_calls):
        with pytest.raises(DomainError, match="must be a PrecisionPolicy"):
            ring_class_polynomial(71, "fricke", -71, policy)
        assert evaluate_calls == []

    @pytest.mark.parametrize("key", [k for k in level_keys() if k[0] > 1],
                             ids=lambda k: "%d-%s%d" % k)
    def test_eta_key_divides_its_closed_form(self, key):
        # Exact, with no evaluation: the eta quotient T of a level-N entry
        # has T(-1/(N tau)) = kappa / T(tau), and each point is fixed by an
        # element of the Fricke coset, so T^2 = kappa there.  A gamma0 value
        # t = T + r_1 then has (t - r_1)^2 = kappa and a fricke-sym value
        # t = T + kappa/T + r_1 has (t - r_1)^2 = 4 kappa, r_1 the exponent
        # of eta(tau), so the certified H divides that quadratic.
        n, group, _disc = key
        terms = catalog_lookup(n, group).spec.terms
        r1, kappa = dict(terms)[1], _kappa(n, terms)
        quadratic = rat([r1 * r1 - (4 if group == "fricke" else 1) * kappa, -2 * r1, 1])
        poly = ring_class_polynomial(*key).poly
        assert 1 <= poly.degree <= 2
        assert rat_divmod(quadratic, rat(poly.coeffs))[1] == ()

    @pytest.mark.parametrize("key", sorted(THETA_POLYS), ids=lambda k: "%d-%s%d" % k)
    def test_theta_quotient_polynomials(self, key, certify_calls):
        # the other two theta-quotient levels: one 64-bit round, the
        # polynomial of a 128-bit and of a 1024-bit start, degree the class
        # number
        result = ring_class_polynomial(*key)
        assert result.poly == IntPoly(THETA_POLYS[key])
        assert result.prec_bits == 64 and certify_calls == [64]
        assert result.poly.degree == enumerate_class_group(key[2]).class_number
        for bits in (128, 1024):
            high = ring_class_polynomial(*key, PrecisionPolicy(start_bits=bits))
            assert high.poly == result.poly

    @pytest.mark.parametrize("disc", [-284.0, Fraction(-569, 2)])
    def test_non_integer_disc_refused(self, disc):
        with pytest.raises(DomainError, match="integers"):
            ring_class_polynomial(71, "fricke", disc)

    def test_non_integer_level_refused(self):
        # refused up front, in the level's own words
        with pytest.raises(DomainError, match="levels must be integers"):
            ring_class_polynomial(71.0, "fricke", -284)

    def test_integral_fraction_level_is_an_int(self):
        result = ring_class_polynomial(Fraction(71), "fricke", -284)
        assert type(result.points.n) is int and result.poly == H284
        assert json.loads(json.dumps(_class_poly_json(result)))["level"] == 71

    def test_level71_past_the_old_data_ceiling(self):
        # the coefficient file supported 354 bits at most; the theta
        # quotient has no such ceiling
        result = ring_class_polynomial(71, "fricke", -284, PrecisionPolicy(start_bits=1024))
        assert result.poly == H284 and result.prec_bits == 1024

    def test_json_payload(self):
        result = ring_class_polynomial(71, "fricke", -284)
        obj = _class_poly_json(result)
        assert obj["level"] == 71 and obj["disc"] == -284
        assert obj["class_number"] == 7
        assert obj["poly"] == [str(c) for c in H284.coeffs]
        assert len(obj["points"]) == 7
        assert all(isinstance(p["value_re"], str) for p in obj["points"])
        with mp.workprec(256):
            for name in ("residual", "r_max"):
                x = getattr(result, name)
                assert obj[name] == mp.nstr(mp.mpf(x.numerator) / x.denominator, 10)
        assert obj["prec_bits"] == 64
        assert set(obj) == {"level", "group", "disc", "class_number", "poly",
                            "residual", "r_max", "prec_bits", "points"}

