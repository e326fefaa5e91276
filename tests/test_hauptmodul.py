"""Catalog lookups, q-series files, Fricke reduction, and evaluation."""

import functools
import math
import os
import random
from fractions import Fraction

import pytest
from mpmath import mp

import cfq.hauptmodul
from conftest import (
    H284, cm_mpc, cpx, eta_direct_series, level_keys, mobius, random_gamma0, rounded,
)
from cfq.classfield import ring_class_polynomial
from cfq.elliptic import CMPoint, EllipticElement, enumerate_representatives, fixed_point
from cfq.errors import (
    ConvergenceError,
    DataFileMissingError,
    DomainError,
    InsufficientDataError,
    NotGenusZeroError,
    QSeriesFormatError,
)
from cfq.eta import EtaQuotientSpec, _ascend
from cfq.exactpoly import IntPoly, LaurentExpr
from cfq.hauptmodul import (
    ERROR_BITS,
    FRICKE_LEVELS,
    GAMMA0_LEVELS,
    EtaQuotientHaupt,
    QSeriesHaupt,
    catalog_entries,
    catalog_lookup,
    _laurent_sum,
    _log_tail,
    _tail_index,
    evaluate,
    load_qseries,
)
from cfq.numerics import _GUARD, _fixed_series
from cfq.quadforms import enumerate_class_group


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
            _laurent_sum(LaurentExpr({1: 1, -1: 4096}), mp.mpc(0), 1.0)
        value, _err = _laurent_sum(LaurentExpr({1: 1, 0: 24}), mp.mpc(0), 1.0)
        assert value == 24

    def test_not_genus_zero(self):
        with pytest.raises(NotGenusZeroError, match="11"):
            catalog_lookup(11, "gamma0")
        with pytest.raises(NotGenusZeroError, match="22"):
            catalog_lookup(22, "fricke")

    def test_level71_is_qseries(self):
        entry = catalog_lookup(71, "fricke")
        assert isinstance(entry, QSeriesHaupt)
        assert entry.label == "71A"
        assert len(entry.coeffs) >= 2000

    def test_missing_data_file(self):
        with pytest.raises(DataFileMissingError):
            catalog_lookup(59, "fricke")

    def test_entries_inventory(self):
        entries = catalog_entries()
        assert len(entries) == 15 + 37
        by_key = {(e["level"], e["group"]): e for e in entries}
        assert by_key[(71, "fricke")]["available"] is True
        assert by_key[(59, "fricke")]["available"] is False
        assert by_key[(12, "fricke")]["kind"] == "fricke-sym"
        assert by_key[(1, "gamma0")] == {"level": 1, "group": "gamma0", "kind": "eta-quotient"}

    def test_gamma0_entries_need_no_data(self, tmp_path, monkeypatch):
        # no data directory holds any file, the packaged one included
        monkeypatch.setattr(cfq.hauptmodul, "_PACKAGED_DATA", tmp_path)
        for n in sorted(GAMMA0_LEVELS):
            assert isinstance(catalog_lookup(n, "gamma0", data_dir=tmp_path), EtaQuotientHaupt)
        result = ring_class_polynomial(1, "gamma0", -4, data_dir=tmp_path)
        assert result.poly == IntPoly([-984, 1])
        entries = catalog_entries(tmp_path)
        assert len(entries) == 52
        assert not any("available" in e for e in entries if e["group"] == "gamma0")
        with pytest.raises(DataFileMissingError):
            catalog_lookup(71, "fricke", data_dir=tmp_path)


class TestLoadQSeries:
    def _write(self, tmp_path, text, name="fricke_2.qseries"):
        p = tmp_path / name
        p.write_text(text)
        return p

    def test_synthetic_file(self, tmp_path):
        body = "\n".join(["# label=TEST level=2 group=fricke q_min=-1"]
                         + ["1", "0", "4372"] + ["0"] * 80)
        series = load_qseries(self._write(tmp_path, body))
        assert series.label == "TEST" and series.n == 2
        assert series.coeffs[:3] == (1, 0, 4372)

    def test_missing_level_field(self, tmp_path):
        body = "# label=TEST group=fricke q_min=-1\n" + "1\n" * 70
        with pytest.raises(QSeriesFormatError) as exc:
            load_qseries(self._write(tmp_path, body))
        assert exc.value.reason == "header"

    @pytest.mark.parametrize("level", [0, -5])
    def test_nonpositive_level_refused(self, tmp_path, level):
        body = f"# label=T level={level} group=fricke q_min=-1\n" + "1\n" * 70
        with pytest.raises(QSeriesFormatError, match="level must be positive") as exc:
            load_qseries(self._write(tmp_path, body))
        assert exc.value.reason == "header"

    def test_wrong_q_min(self, tmp_path):
        body = "# label=T level=2 group=fricke q_min=0\n" + "1\n" * 70
        with pytest.raises(QSeriesFormatError) as exc:
            load_qseries(self._write(tmp_path, body))
        assert exc.value.reason == "q_min"

    def test_bad_coefficient(self, tmp_path):
        body = ("# label=T level=2 group=fricke q_min=-1\n"
                + "1\n" * 40 + "x17\n" + "1\n" * 40)
        with pytest.raises(QSeriesFormatError) as exc:
            load_qseries(self._write(tmp_path, body))
        assert exc.value.reason == "coefficient"
        assert ":42:" in str(exc.value)

    def test_too_few_coefficients(self, tmp_path):
        body = "# label=T level=2 group=fricke q_min=-1\n" + "1\n" * 40
        with pytest.raises(QSeriesFormatError) as exc:
            load_qseries(self._write(tmp_path, body))
        assert exc.value.reason == "too_few"

    def test_comments_and_blanks_ignored(self, tmp_path):
        body = ("# label=T level=2 group=fricke q_min=-1\n"
                + "1\n\n# interior comment\n" + "2\n" * 70)
        series = load_qseries(self._write(tmp_path, body))
        assert series.coeffs[0] == 1 and series.coeffs[1] == 2

    def test_same_text_parsed_once(self, tmp_path):
        from cfq.hauptmodul import _parse_qseries

        body = "\n".join(["# label=ONCE level=2 group=fricke q_min=-1"]
                         + ["1", "0", "-7"] + ["5"] * 80)
        p = self._write(tmp_path, body)
        before = _parse_qseries.cache_info()
        first = load_qseries(p)
        assert load_qseries(p) is first
        after = _parse_qseries.cache_info()
        assert (after.misses - before.misses, after.hits - before.hits) == (1, 1)

    def test_rewritten_file_reparsed(self, tmp_path):
        head = "# label=EDIT level=2 group=fricke q_min=-1\n1\n0\n"
        p = self._write(tmp_path, head + "4\n" * 80)
        stamp = p.stat().st_mtime_ns
        assert load_qseries(p).coeffs[2] == 4
        # same size and same mtime: only the content tells the two apart
        p.write_text(head + "9\n" + "4\n" * 79)
        os.utime(p, ns=(stamp, stamp))
        series = load_qseries(p)
        assert series.coeffs[2] == 9

    def test_gamma0_group_refused(self, tmp_path):
        # q-series files hold Fricke-group functions only
        body = "\n".join(["# label=J level=1 group=gamma0 q_min=-1", "1", "0"]
                         + ["196884"] * 80)
        with pytest.raises(QSeriesFormatError, match="group must be fricke") as exc:
            load_qseries(self._write(tmp_path, body, name="gamma0_1.qseries"))
        assert exc.value.reason == "header"

    def test_data_dir_override(self, tmp_path):
        body = "\n".join(["# label=SYN level=14 group=fricke q_min=-1", "1", "0"]
                         + ["0"] * 80)
        self._write(tmp_path, body, name="fricke_14.qseries")
        series = catalog_lookup(14, "fricke", data_dir=tmp_path)
        assert series.label == "SYN"
        # packaged data still reachable through the same override
        assert catalog_lookup(71, "fricke", data_dir=tmp_path).label == "71A"

    def test_env_var_data_dir(self, tmp_path, monkeypatch):
        body = "\n".join(["# label=ENV level=15 group=fricke q_min=-1", "1", "0"]
                         + ["0"] * 80)
        self._write(tmp_path, body, name="fricke_15.qseries")
        monkeypatch.setenv("CFQ_DATA_DIR", str(tmp_path))
        assert catalog_lookup(15, "fricke").label == "ENV"


def _ascent(tau, n, prec):
    """The point `_ascend` reaches at prec + _GUARD bits, the way evaluate runs it."""
    with mp.workprec(prec + _GUARD):
        return _ascend(mp.mpc(tau), n)[0]


class TestFrickeReduce:
    """The ascent under z -> z + k and z -> -1/(n z) that q-series entries take."""

    def test_fixed_point_is_stable(self):
        for n in (2, 5, 71):
            with mp.workprec(160):
                tau = mp.mpc(0, 1) / mp.sqrt(n)
            out = _ascent(tau, n, 160)
            assert abs(out - tau) < mp.mpf(2) ** -140

    def test_translation_then_stable(self):
        n = 5
        with mp.workprec(160):
            tau = 3 + mp.mpc(0, 1) / mp.sqrt(n)
            want = mp.mpc(0, 1) / mp.sqrt(n)
        out = _ascent(tau, n, 160)
        assert abs(out - want) < mp.mpf(2) ** -140

    def test_monotone_ascent_from_deep_point(self):
        with mp.workprec(192):
            tau = (-71 + mp.sqrt(71) * mp.mpc(0, 1)) / 2556
        out = _ascent(tau, 71, 192)
        assert out.imag > tau.imag

    def test_output_window(self):
        rng = random.Random(5150)
        n = 7
        with mp.workprec(160):
            for _ in range(40):
                tau = mp.mpc(rng.uniform(-3, 3), rng.uniform(0.01, 2))
                out = _ascent(tau, n, 160)
                assert out.imag >= tau.imag - mp.mpf(2) ** -100
                assert abs(out.real) <= 0.5 + mp.mpf(2) ** -20
                assert n * (out.real**2 + out.imag**2) >= 1 - mp.mpf(2) ** -20

    @pytest.mark.parametrize("prec", [128, 256, 448])
    def test_deep_level71_point_charges_its_steps(self, prec):
        # an element of Gamma0(71), z -> z / (71 k z + 1) then z -> z + m
        # twice, moves the C = 2 representative to 6e-11 above the real
        # axis; the ascent undoes it in 9 steps, each of which the error
        # estimate charges, and the value is that of the representative
        alpha = EllipticElement(71, 1, -36, 2)
        tau = fixed_point(alpha)
        with mp.workprec(700):
            z = cm_mpc(tau)
            for m, k in ((2, 3), (-1, 2)):
                z = mobius((1, m, 0, 1), mobius((1, 0, 71 * k, 1), z))
            assert z.imag < 1e-10
        with mp.workprec(prec + _GUARD):
            _point, _gamma, steps = _ascend(mp.mpc(z), 71)
        assert steps > 2
        got = evaluate(catalog_lookup(71, "fricke"), z, prec)
        ref = _reference_sum(71, "fricke", tau)
        with mp.workprec(REF_PREC):
            assert abs(got - ref) <= mp.mpf(2) ** (ERROR_BITS - prec) * max(1, abs(ref))


PREC = 160


class TestEvaluate:
    def test_fricke_sym_level2_fixed_point(self):
        entry = catalog_lookup(2, "fricke")
        with mp.workprec(PREC):
            tau = mp.mpc(0, 1) / mp.sqrt(2)
        value = evaluate(entry, tau, PREC)
        assert abs(value - 152) < mp.mpf(2) ** (-PREC + 24)

    def test_eta_quotient_normalized_expansion(self):
        # at tau = 4i the shifted level-2 entry equals q^-1 + 276 q + O(q^2)
        entry = catalog_lookup(2, "gamma0")
        tau = cpx(0, 4, PREC)
        value = evaluate(entry, tau, PREC)
        with mp.workprec(PREC + 16):
            q = mp.exp(-8 * mp.pi)
            assert abs(value - (1 / q + 276 * q)) < 3000 * q * q

    def test_qseries_71A_at_fricke_point(self):
        entry = catalog_lookup(71, "fricke")
        value = evaluate(entry, fixed_point(EllipticElement(71, 0, -1, 1)), 128)
        with mp.workprec(160):
            acc = mp.mpc(0)
            for c in reversed(H284.coeffs):
                acc = acc * value + c
            assert abs(acc) < mp.mpf(2) ** -40

    def test_qseries_invariance_at_conjugate_points(self):
        entry = catalog_lookup(71, "fricke")
        v_small = evaluate(entry, fixed_point(EllipticElement(71, 1, -36, 2)), 128)
        v_deep = evaluate(entry, fixed_point(EllipticElement(71, 1, -2, 36)), 128)
        with mp.workprec(128):
            assert abs(v_small - v_deep) < mp.mpf(2) ** -32

    def test_qseries_insufficient_data(self, tmp_path):
        body = "\n".join(["# label=SHORT level=71 group=fricke q_min=-1"]
                         + ["1", "0"] + ["1"] * 70)
        p = tmp_path / "fricke_71.qseries"
        p.write_text(body)
        series = load_qseries(p)
        tau = fixed_point(EllipticElement(71, 1, -36, 2))
        with pytest.raises(InsufficientDataError) as exc:
            evaluate(series, tau, 128)
        assert exc.value.have == 72
        assert exc.value.needed > 72

    def test_level1_series_at_i(self):
        entry = catalog_lookup(1, "gamma0")
        value = evaluate(entry, CMPoint(0, 1, 1, 1), PREC)
        assert abs(value - 984) < mp.mpf(2) ** (-PREC + 40)

    def test_rejects_lower_half_plane(self):
        entry = catalog_lookup(2, "gamma0")
        with pytest.raises(DomainError):
            evaluate(entry, cpx(0, -1, PREC), PREC)

    def test_qseries_rejects_lower_half_plane(self):
        # the Fricke ascent refuses the point before any term is summed
        with pytest.raises(DomainError, match="upper half plane"):
            evaluate(catalog_lookup(71, "fricke"), cpx("0.1", "-0.2", PREC), PREC)


# the 14 level-71 representatives of discs -71 and -284, at each precision
# the data supports: at 448 bits the four with C = 8 need more coefficients
LEVEL71_CASES = [
    (alpha, prec)
    for disc in (-71, -284)
    for alpha in enumerate_representatives(71, disc, enumerate_class_group(disc))
    for prec in (128, 256, 448)
    if not (prec == 448 and alpha.C == 8)
]
REF_PREC = 448 + 64


@functools.cache
def _reference_sum(level, group, tau):
    """Every coefficient of the series summed in plain mpc arithmetic."""
    coeffs = catalog_lookup(level, group).coeffs
    with mp.workprec(REF_PREC):
        z = cm_mpc(tau)
        q = mp.exp(2j * mp.pi * z)
        total = coeffs[0] / q
        qk = mp.mpc(1)
        for c in coeffs[1:]:
            total += c * qk
            qk *= q
        return total


def _check_against_reference(level, group, tau, prec):
    entry = catalog_lookup(level, group)
    got = evaluate(entry, tau, prec)
    ref = _reference_sum(level, group, tau)
    with mp.workprec(REF_PREC):
        assert abs(got - ref) <= mp.mpf(2) ** -(prec - 8) * max(1, abs(ref))


class TestQSeriesKernel:
    """The fixed-point summation against an independent reference sum."""

    @pytest.mark.parametrize(
        "alpha,prec", LEVEL71_CASES, ids=[f"{a.text()}@{p}" for a, p in LEVEL71_CASES]
    )
    def test_level71_representatives(self, alpha, prec):
        # the Fricke flip leaves the point alone (71|tau|^2 = -B/C >= 1), so
        # the reference may take q at tau itself
        assert -alpha.B >= alpha.C
        _check_against_reference(71, "fricke", fixed_point(alpha), prec)

    @pytest.mark.parametrize(
        "alpha,prec", LEVEL71_CASES, ids=[f"{a.text()}@{p}" for a, p in LEVEL71_CASES]
    )
    def test_summed_coefficients_within_scale(self, alpha, prec, monkeypatch):
        # the kernel is told |c| <= 2^b, b taken from the envelope at K*
        seen = []

        def recording(q, exponents, coeffs, coeff_bits, w):
            seen.append((coeffs, coeff_bits))
            return _fixed_series(q, exponents, coeffs, coeff_bits, w)

        monkeypatch.setattr(cfq.hauptmodul, "_fixed_series", recording)
        evaluate(catalog_lookup(71, "fricke"), fixed_point(alpha), prec)
        [(coeffs, b)] = seen
        assert max(map(abs, coeffs)) <= 2**b

    @pytest.mark.parametrize("prec", [128, 256, 448])
    def test_sums_exponents_below_kstar(self, prec):
        # indices read: the pole and exponents 0 .. K*-1 (index k holds the
        # coefficient of q^(k-1)), where K* is the first exponent whose
        # envelope tail meets the target: the tail starts where the sum stops
        read = set()

        class RecordingCoeffs(tuple):
            def __getitem__(self, k):
                # a slice reads every index it covers
                span = range(*k.indices(len(self))) if isinstance(k, slice) else [k]
                read.update(span)
                return tuple.__getitem__(self, k)

        entry = catalog_lookup(71, "fricke")
        series = QSeriesHaupt(entry.label, entry.n, RecordingCoeffs(entry.coeffs))
        tau = fixed_point(enumerate_representatives(71, -71, enumerate_class_group(-71))[0])
        value = evaluate(series, tau, prec)
        assert value == evaluate(entry, tau, prec)
        with mp.workprec(prec + _GUARD):
            z, _gamma, _steps = _ascend(cm_mpc(tau), 71)
        ell = 2 * math.pi * float(z.imag) * (1 - 2.0**-40)
        kstar, _ = _tail_index(series, ell, prec)
        assert read == set(range(kstar + 1))
        target = (ERROR_BITS - 2 - prec) * math.log(2)
        assert _log_tail(series, ell, kstar) <= target < _log_tail(series, ell, kstar - 1)

    def test_data_ceiling_at_c8(self):
        entry = catalog_lookup(71, "fricke")
        tau = fixed_point(EllipticElement(71, 1, -9, 8))
        with pytest.raises(InsufficientDataError) as exc:
            evaluate(entry, tau, 448)
        assert exc.value.have == len(entry.coeffs)
        assert exc.value.needed > exc.value.have

    def test_data_ceiling_is_354_bits(self):
        # the longest series the file supports: K* just under its 3,600
        # coefficients at 354 bits, more than the file holds at 355
        entry = catalog_lookup(71, "fricke")
        tau = fixed_point(EllipticElement(71, 1, -9, 8))
        evaluate(entry, tau, 354)
        with pytest.raises(InsufficientDataError) as exc:
            evaluate(entry, tau, 355)
        assert exc.value.have == len(entry.coeffs) < exc.value.needed

    def test_data_ceiling_found_before_summing(self):
        class CountingCoeffs(tuple):
            reads = 0

            def __getitem__(self, k):
                span = range(*k.indices(len(self))) if isinstance(k, slice) else [k]
                CountingCoeffs.reads += len(span)
                return tuple.__getitem__(self, k)

        entry = catalog_lookup(71, "fricke")
        series = QSeriesHaupt(entry.label, entry.n, CountingCoeffs(entry.coeffs))
        tau = fixed_point(EllipticElement(71, 1, -9, 8))
        CountingCoeffs.reads = 0
        with pytest.raises(InsufficientDataError) as exc:
            evaluate(series, tau, 448)
        assert CountingCoeffs.reads == 0
        # K* + 1 coefficients: the envelope tail from K* is below 2^-447
        assert 4300 < exc.value.needed < 4500
        # the same series sums at 256 bits, reading no coefficient past K*
        value = evaluate(series, tau, 256)
        assert 2000 < CountingCoeffs.reads < exc.value.have
        assert value == evaluate(entry, tau, 256)


def _series_reference(entry, tau, prec):
    """Every coefficient of a q-series entry summed in plain mpc at prec bits.

    The tau used here needs no reduction, and the envelope tail past the
    data is checked to be negligible.
    """
    with mp.workprec(prec):
        z = cm_mpc(tau)
        q = mp.exp(2j * mp.pi * z)
        total = entry.coeffs[0] / q
        qk = mp.mpc(1)
        for c in entry.coeffs[1:]:
            total += c * qk
            qk *= q
        a = 4 * mp.pi / mp.sqrt(entry.n)
        e = len(entry.coeffs) - 1
        tail = entry.envelope_a * mp.exp(a * mp.sqrt(e)) * abs(q) ** e
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
    "deep": cpx("0.41421356237", "1e-6", 600),
}
KLEINJ_PREC = 448 + 256


@functools.cache
def _kleinj_reference(point):
    tau = LEVEL1_POINTS[point]
    with mp.workprec(KLEINJ_PREC):
        if isinstance(tau, CMPoint):
            tau = cm_mpc(tau)
        return 1728 * mp.kleinj(tau) - 744


def _check_documented_bound(entry, tau, prec):
    got = evaluate(entry, tau, prec)
    reference = _series_reference if isinstance(entry, QSeriesHaupt) else _eta_reference
    ref = reference(entry, tau, prec + 256)
    with mp.workprec(prec + 256):
        bound = mp.mpf(2) ** (ERROR_BITS - prec) * max(1, abs(ref))
        assert abs(got - ref) <= bound


class TestDocumentedBound:
    """|evaluate - t(tau)| <= 2^(ERROR_BITS - prec) max(1, |t(tau)|)."""

    @pytest.mark.parametrize(
        "alpha,prec", LEVEL71_CASES, ids=[f"{a.text()}@{p}" for a, p in LEVEL71_CASES]
    )
    def test_level71_representatives(self, alpha, prec):
        _check_documented_bound(catalog_lookup(71, "fricke"), fixed_point(alpha), prec)

    @pytest.mark.parametrize("prec", [128, 256, 448])
    @pytest.mark.parametrize("tau", [CMPoint(0, 1, 1, 1), CMPoint(-1, 1, 2, 3)],
                             ids=["i", "rho"])
    def test_level1(self, tau, prec):
        _check_documented_bound(catalog_lookup(1, "gamma0"), tau, prec)

    @pytest.mark.parametrize("prec", [128, 256, 448])
    @pytest.mark.parametrize("point", sorted(LEVEL1_POINTS))
    def test_level1_against_kleinj(self, point, prec):
        # j - 744 from mpmath's theta-function kleinj at the unreduced point,
        # an oracle that shares no code with the eta path
        tau = LEVEL1_POINTS[point]
        got = evaluate(catalog_lookup(1, "gamma0"), tau, prec)
        ref = _kleinj_reference(point)
        with mp.workprec(KLEINJ_PREC):
            assert abs(got - ref) <= mp.mpf(2) ** (ERROR_BITS - prec) * max(1, abs(ref))

    @pytest.mark.parametrize("prec", [128, 256])
    @pytest.mark.parametrize("key", level_keys(), ids=lambda k: "%d-%s%d" % k)
    def test_sweep_points(self, key, prec):
        n, group, disc = key
        entry = catalog_lookup(n, group)
        for alpha in enumerate_representatives(n, disc, enumerate_class_group(disc)):
            _check_documented_bound(entry, fixed_point(alpha), prec)


    @pytest.mark.parametrize("im", ["1e-3", "1e-6", "3e-8"])
    @pytest.mark.parametrize("level,group", [(2, "gamma0"), (2, "fricke"), (1, "gamma0")])
    def test_near_the_real_axis(self, level, group, im):
        # values far beyond the range of a double, where the bound is relative;
        # the reference is a 256-bit-deeper evaluation of the same given tau
        entry = catalog_lookup(level, group)
        tau = cpx("0.3", im, 600)
        got = evaluate(entry, tau, 128)
        ref = evaluate(entry, tau, 128 + 256)
        with mp.workprec(128 + 256):
            assert abs(got - ref) <= mp.mpf(2) ** (ERROR_BITS - 128) * max(1, abs(ref))

    def test_ill_conditioned_point_refused(self):
        # d log t / d tau grows like Im(tau)^-2: at 1e-9 the 48 guard bits
        # cannot keep the error within the bound, so no value is returned
        with pytest.raises(ConvergenceError, match="exceeds the bound"):
            evaluate(catalog_lookup(2, "gamma0"), cpx("0.3", "1e-9", 600), 128)


class TestEnvelope:
    """The stated growth bound |c_e| <= A exp(4 pi sqrt(e/N)), e >= 1."""

    @pytest.mark.parametrize("level,group,fitted", [(71, "fricke", 0.2251)])
    def test_every_coefficient_within_envelope(self, level, group, fitted):
        entry = catalog_lookup(level, group)
        assert abs(entry.envelope_a - fitted) < 1e-4
        a = 4 * mp.pi / mp.sqrt(level)
        with mp.workprec(64):
            for e, c in enumerate(entry.coeffs[2:], start=1):
                assert abs(c) <= entry.envelope_a * mp.exp(a * mp.sqrt(e)), e


def _evaluate_at(entry, z, prec):
    # extra input bits keep the point rounding below the comparison tolerance
    return evaluate(entry, rounded(z, prec + 32), prec)


class TestCatalogValidation:
    """Random-sample invariance of every built-in entry under its group."""

    @pytest.mark.parametrize("n", sorted(GAMMA0_LEVELS))
    def test_eta_quotient_invariance(self, n):
        entry = catalog_lookup(n, "gamma0")
        rng = random.Random(1000 + n)
        tol = mp.mpf(2) ** (-PREC + 16)
        with mp.workprec(PREC + 32):
            for _ in range(20):
                tau = mp.mpc(rng.uniform(-0.5, 0.5), rng.uniform(0.8, 1.6))
                base = _evaluate_at(entry, tau, PREC)
                for _ in range(5):
                    gamma = random_gamma0(rng, n)
                    moved = _evaluate_at(entry, mobius(gamma, tau), PREC)
                    assert abs(moved - base) < tol * max(1, abs(base))

    @pytest.mark.parametrize("n", sorted(GAMMA0_LEVELS - {1}))
    def test_fricke_sym_invariance(self, n):
        entry = catalog_lookup(n, "fricke")
        rng = random.Random(2000 + n)
        tol = mp.mpf(2) ** (-PREC + 16)
        with mp.workprec(PREC + 32):
            for _ in range(8):
                tau = mp.mpc(rng.uniform(-0.5, 0.5), rng.uniform(0.8, 1.6))
                base = _evaluate_at(entry, tau, PREC)
                wtau = -1 / (n * tau)
                assert abs(_evaluate_at(entry, wtau, PREC) - base) < tol * max(1, abs(base))
                gamma = random_gamma0(rng, n)
                moved = _evaluate_at(entry, mobius(gamma, tau), PREC)
                assert abs(moved - base) < tol * max(1, abs(base))

    @pytest.mark.parametrize("n", sorted(GAMMA0_LEVELS - {1}))
    def test_fricke_sym_product_identity(self, n):
        entry = catalog_lookup(n, "fricke")
        rng = random.Random(3000 + n)
        from cfq.eta import eta_quotient

        kappa = int(dict(entry.laurent.terms)[-1])

        tol = mp.mpf(2) ** (-PREC + 16)
        with mp.workprec(PREC + 32):
            for _ in range(20):
                tau = mp.mpc(rng.uniform(-0.5, 0.5), rng.uniform(0.7, 1.8))
                t1, _ = eta_quotient(entry.spec, rounded(tau, PREC), PREC)
                t2, _ = eta_quotient(entry.spec, rounded(-1 / (n * tau), PREC), PREC)
                assert abs(t1 * t2 - kappa) < tol * kappa
