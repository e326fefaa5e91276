"""Catalog lookups, q-series files, Fricke reduction, and evaluation."""

import functools
import os
import random

import pytest
from mpmath import mp

from conftest import cpx, mobius, random_gamma0, rounded
from cfq.elliptic import CMPoint, EllipticElement, enumerate_representatives, fixed_point
from cfq.errors import (
    DataFileMissingError,
    DomainError,
    InsufficientDataError,
    NotGenusZeroError,
    QSeriesFormatError,
)
from cfq.eta import EtaQuotientSpec
from cfq.exactpoly import IntPoly
from cfq.hauptmodul import (
    FRICKE_LEVELS,
    GAMMA0_LEVELS,
    EtaQuotientHaupt,
    FrickeSymHaupt,
    QSeriesHaupt,
    catalog_entries,
    catalog_lookup,
    evaluate,
    fricke_reduce,
    load_qseries,
)
from cfq.quadforms import enumerate_class_group

H284 = IntPoly([-11, 4, 18, 5, -11, -7, 0, 1])


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
        assert entry.const_shift == 24

    def test_level13_entry(self):
        entry = catalog_lookup(13, "gamma0")
        assert entry.spec == EtaQuotientSpec([(1, 2), (13, -2)])

    def test_fricke_sym_kappa(self):
        entry = catalog_lookup(2, "fricke")
        assert isinstance(entry, FrickeSymHaupt)
        assert entry.kappa == 4096 and entry.const_shift == 24

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
        assert first.coeff_bits == 3     # |-7| < 2^3

    def test_rewritten_file_reparsed(self, tmp_path):
        head = "# label=EDIT level=2 group=fricke q_min=-1\n1\n0\n"
        p = self._write(tmp_path, head + "4\n" * 80)
        stamp = p.stat().st_mtime_ns
        assert load_qseries(p).coeffs[2] == 4
        # same size and same mtime: only the content tells the two apart
        p.write_text(head + "9\n" + "4\n" * 79)
        os.utime(p, ns=(stamp, stamp))
        series = load_qseries(p)
        assert series.coeffs[2] == 9 and series.coeff_bits == 4

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


class TestFrickeReduce:
    def test_fixed_point_is_stable(self):
        for n in (2, 5, 71):
            with mp.workprec(160):
                tau = mp.mpc(0, 1) / mp.sqrt(n)
            out = fricke_reduce(tau, n, 160)
            assert abs(out - tau) < mp.mpf(2) ** -140

    def test_translation_then_stable(self):
        n = 5
        with mp.workprec(160):
            tau = 3 + mp.mpc(0, 1) / mp.sqrt(n)
            want = mp.mpc(0, 1) / mp.sqrt(n)
        out = fricke_reduce(tau, n, 160)
        assert abs(out - want) < mp.mpf(2) ** -140

    def test_monotone_ascent_from_deep_point(self):
        with mp.workprec(192):
            tau = (-71 + mp.sqrt(71) * mp.mpc(0, 1)) / 2556
        out = fricke_reduce(tau, 71, 192)
        assert out.imag > tau.imag

    def test_output_window(self):
        rng = random.Random(5150)
        n = 7
        with mp.workprec(160):
            for _ in range(40):
                tau = mp.mpc(rng.uniform(-3, 3), rng.uniform(0.01, 2))
                out = fricke_reduce(tau, n, 160)
                assert out.imag >= tau.imag - mp.mpf(2) ** -100
                assert abs(out.real) <= 0.5 + mp.mpf(2) ** -20
                assert n * (out.real**2 + out.imag**2) >= 1 - mp.mpf(2) ** -20


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
        z = (tau.u + mp.sqrt(tau.n) * mp.mpc(0, tau.v)) / tau.w
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

    @pytest.mark.parametrize("prec", [128, 256, 448])
    @pytest.mark.parametrize("tau", [CMPoint(0, 1, 1, 1), CMPoint(-1, 1, 2, 3)],
                             ids=["i", "rho"])
    def test_level1(self, tau, prec):
        _check_against_reference(1, "gamma0", tau, prec)

    def test_data_ceiling_at_c8(self):
        entry = catalog_lookup(71, "fricke")
        tau = fixed_point(EllipticElement(71, 1, -9, 8))
        with pytest.raises(InsufficientDataError) as exc:
            evaluate(entry, tau, 448)
        assert exc.value.have == len(entry.coeffs)
        assert exc.value.needed > exc.value.have


def _evaluate_at(entry, z, prec):
    # extra input bits keep the point rounding below the comparison tolerance
    return evaluate(entry, rounded(z, prec + 32), prec)


class TestCatalogValidation:
    """Random-sample invariance of every built-in entry under its group."""

    @pytest.mark.parametrize("n", sorted(GAMMA0_LEVELS - {1}))
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

        tol = mp.mpf(2) ** (-PREC + 16)
        with mp.workprec(PREC + 32):
            for _ in range(20):
                tau = mp.mpc(rng.uniform(-0.5, 0.5), rng.uniform(0.7, 1.8))
                t1 = eta_quotient(entry.base, rounded(tau, PREC), PREC)
                t2 = eta_quotient(entry.base, rounded(-1 / (n * tau), PREC), PREC)
                assert abs(t1 * t2 - entry.kappa) < tol * entry.kappa
