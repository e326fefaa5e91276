"""Pipeline tests: singular values, class polynomials, Galois permutations."""

import hashlib
from collections import Counter

import pytest
from mpmath import mp

from cfq.classfield import galois_permutation, ring_class_polynomial, singular_values
from cfq.elliptic import EllipticElement, enumerate_representatives, fixed_point
from cfq.errors import DomainError, EscalationFailureError
from cfq.exactpoly import IntPoly
from cfq.hauptmodul import catalog_lookup, evaluate
from cfq.numerics import PrecisionPolicy, poly_from_roots, round_to_int_poly
from cfq.quadforms import IdealClass, QuadForm, enumerate_class_group, reduce_form

H71 = IntPoly([1, 0, -2, -3, 1, 5, 4, 1])
H284 = IntPoly([-11, 4, 18, 5, -11, -7, 0, 1])


class TestSingularValues:
    def test_disc_71_root_sum(self):
        vals = singular_values(71, "fricke", -71, 256)
        assert len(vals.entries) == 7
        # degree-6 coefficient of the published polynomial is 4
        with mp.workprec(256):
            total = sum(vals.values())
            assert abs(total + 4) < mp.mpf(2) ** -64

    def test_disc_284_root_product(self):
        vals = singular_values(71, "fricke", -284, 256)
        # constant term -11 at odd degree 7: product of roots is +11
        with mp.workprec(256):
            prod = mp.fprod(vals.values())
            assert abs(prod - 11) < mp.mpf(2) ** -64

    def test_level2_value(self):
        vals = singular_values(2, "gamma0", -8, 128)
        assert len(vals.entries) == 1
        # eta fixed-point identity gives 64 for the raw quotient; the catalog
        # normalization adds the constant shift 24
        assert abs(vals.values()[0] - 88) < mp.mpf(2) ** -96

    def test_level71_values_bit_identical(self):
        # sha256 over sign, mantissa and exponent of the real and imaginary
        # parts of all 14 values: any change to a working precision or to
        # where a value is rounded shows here
        digest = hashlib.sha256()
        for disc in (-71, -284):
            for value in singular_values(71, "fricke", disc, 256).values():
                for x in (value.real, value.imag):
                    sign, man, exp, _ = x._mpf_
                    digest.update(f"{sign} {man} {exp};".encode())
        assert digest.hexdigest() == (
            "1973ec36cb69537547ee9ab913b762c7c6d2c9fd312c954f2bb6e7b1e54cd0a4"
        )

    def test_classes_pairwise_distinct(self):
        vals = singular_values(71, "fricke", -284, 128)
        reps = [cls.rep for cls, _, _, _ in vals.entries]
        assert len(set(reps)) == len(reps)


def _same_bits(x, y) -> bool:
    return x.real._mpf_ == y.real._mpf_ and x.imag._mpf_ == y.imag._mpf_


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

    def test_non_mirror_representative_is_evaluated(self, evaluate_calls):
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
            if reduce_form(el.primitive_form())[0] == cg.classes[k].rep
        )
        mixed = reps[:k] + [other] + reps[k + 1:]
        vals = singular_values(71, "fricke", -71, 256, class_group=cg, reps=mixed)
        assert len(evaluate_calls) == 5
        assert vals.entries[k][1] == other
        direct = evaluate(catalog_lookup(71, "fricke"), fixed_point(other), 256)
        assert _same_bits(vals.values()[k], direct)
        poly, _ = round_to_int_poly(
            poly_from_roots(vals.values(), 256), mp.mpf(2) ** -32, 256
        )
        assert poly == H71


class TestRingClassPolynomial:
    def test_disc_71(self):
        result = ring_class_polynomial(71, "fricke", -71)
        assert result.poly == H71
        assert result.prec_bits <= 512
        assert result.residual < mp.mpf(2) ** -32

    def test_disc_284(self):
        result = ring_class_polynomial(71, "fricke", -284)
        assert result.poly == H284
        assert result.residual < mp.mpf(2) ** -32

    def test_level2_disc8(self):
        result = ring_class_polynomial(2, "gamma0", -8)
        assert result.poly == IntPoly([-88, 1])

    def test_monic_degree_equals_class_number(self):
        for n, disc in [(5, -20), (6, -24), (7, -7)]:
            result = ring_class_polynomial(n, "gamma0", disc)
            assert result.poly.is_monic()
            assert result.poly.degree == enumerate_class_group(disc).class_number

    def test_square_free(self):
        from cfq.numerics import _rat_gcd

        for poly in (ring_class_polynomial(71, "fricke", -71).poly, H284):
            g = _rat_gcd(poly.to_rat(), poly.derivative().to_rat())
            assert g.degree == 0

    def test_conjugate_representative_same_polynomial(self):
        # the pipeline path and a by-hand path through the deep conjugate point
        from cfq.elliptic import EllipticElement, fixed_point
        from cfq.hauptmodul import catalog_lookup, evaluate
        from cfq.numerics import poly_from_roots, round_to_int_poly

        entry = catalog_lookup(71, "fricke")
        shallow = evaluate(entry, fixed_point(EllipticElement(71, 1, -36, 2)), 160)
        deep = evaluate(entry, fixed_point(EllipticElement(71, 1, -2, 36)), 160)
        with mp.workprec(160):
            assert abs(shallow - deep) < mp.mpf(2) ** -32
        # substituting the conjugate value leaves the rounded polynomial alone
        vals = singular_values(71, "fricke", -71, 160)
        swapped = [deep] + vals.values()[1:]
        poly, _ = round_to_int_poly(poly_from_roots(swapped, 160), mp.mpf(2) ** -32, 160)
        assert poly == H71

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
        monkeypatch.setattr(cfq.hauptmodul, "load_qseries",
                            counted(cfq.hauptmodul, "load_qseries"))
        monkeypatch.setattr(cfq.classfield, "singular_values",
                            counted(cfq.classfield, "singular_values"))
        result = ring_class_polynomial(71, "fricke", -284)
        assert result.poly == H284
        assert calls == Counter(
            enumerate_class_group=1, load_qseries=1, singular_values=2
        )

    def test_escalation_failure_reports_history(self):
        policy = PrecisionPolicy(start_bits=640, max_bits=1280)
        with pytest.raises(EscalationFailureError):
            ring_class_polynomial(71, "fricke", -71, policy)

    def test_json_payload(self):
        result = ring_class_polynomial(71, "fricke", -284)
        obj = result.to_json_dict()
        assert obj["level"] == 71 and obj["disc"] == -284
        assert obj["class_number"] == 7
        assert obj["poly"] == [str(c) for c in H284.coeffs]
        assert len(obj["points"]) == 7
        assert all(isinstance(p["value_re"], str) for p in obj["points"])


class TestGaloisPermutation:
    def test_principal_is_identity(self):
        vals = singular_values(71, "fricke", -71, 128)
        principal = IdealClass(QuadForm(1, 1, 18))
        assert galois_permutation(principal, vals) == tuple(range(7))

    def test_nonprincipal_is_seven_cycle(self):
        vals = singular_values(71, "fricke", -71, 128)
        beta = IdealClass(QuadForm(2, 1, 9))
        perm = galois_permutation(beta, vals)
        seen, k = set(), 0
        for _ in range(7):
            seen.add(k)
            k = perm[k]
        assert len(seen) == 7 and k == 0

    @pytest.mark.parametrize("disc", [-71, -284])
    def test_homomorphism(self, disc):
        vals = singular_values(71, "fricke", disc, 128)
        cg = vals.class_group
        perms = [galois_permutation(cls, vals) for cls in cg.classes]
        for i, beta1 in enumerate(cg.classes):
            for j, beta2 in enumerate(cg.classes):
                composed = tuple(perms[i][perms[j][k]] for k in range(cg.class_number))
                both = perms[cg.compose_idx(i, j)]
                assert composed == both

    def test_permuted_values_same_multiset(self):
        vals = singular_values(71, "fricke", -284, 128)
        beta = vals.class_group.classes[3]
        perm = galois_permutation(beta, vals)
        original = sorted(str(v) for v in vals.values())
        permuted = sorted(str(vals.values()[perm[k]]) for k in range(7))
        assert original == permuted

    def test_disc_mismatch(self):
        vals = singular_values(71, "fricke", -71, 128)
        with pytest.raises(DomainError):
            galois_permutation(IdealClass(QuadForm(1, 0, 71)), vals)
