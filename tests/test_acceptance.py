"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest -s tests/test_acceptance.py` to see the report lines.
"""

import contextlib
import io
import random
import time

from mpmath import mp

from conftest import (
    H71,
    H284,
    WEBER,
    brute_force_class_count,
    cm_mobius,
    cm_mpc,
    eta_direct_series,
    eta_mpc,
    eta_multiplier,
    evaluate_mpc,
    random_gamma0,
    random_sl2,
    rational_point,
)
from cfq.classfield import ring_class_polynomial
from cfq.cli import run as cli_run
from cfq.elliptic import CMPoint, EllipticElement, enumerate_representatives, fixed_point
from cfq.exactpoly import LaurentExpr, verify_root_relation
from cfq.hauptmodul import GAMMA0_LEVELS, catalog_lookup
from cfq.quadforms import QuadForm, enumerate_class_group


@contextlib.contextmanager
def report(number, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE FAIL criterion {number}: {description}")
        raise
    print(f"ACCEPTANCE PASS criterion {number}: {description}")


def _cli(argv):
    out = io.StringIO()
    code = cli_run(argv, out=out, err=io.StringIO())
    return code, out.getvalue()


def test_criterion_1_class_polynomial_disc_71():
    with report(1, "disc -71 class polynomial, exact, <=512 bits, <60 s"):
        t0 = time.time()
        code, out = _cli(["class-poly", "-n", "71", "--group", "fricke", "-D", "-71"])
        elapsed = time.time() - t0
        assert code == 0
        assert out.strip() == "1,0,-2,-3,1,5,4,1"
        result = ring_class_polynomial(71, "fricke", -71)
        assert result.poly == H71
        assert result.residual < 2.0**-32
        assert result.prec_bits <= 512
        assert elapsed < 60


def test_criterion_2_class_polynomial_disc_284():
    with report(2, "disc -284 class polynomial, exact, <=512 bits, <60 s"):
        t0 = time.time()
        code, out = _cli(["class-poly", "-n", "71", "--group", "fricke", "-D", "-284"])
        elapsed = time.time() - t0
        assert code == 0
        assert out.strip() == "-11,4,18,5,-11,-7,0,1"
        result = ring_class_polynomial(71, "fricke", -284)
        assert result.poly == H284
        assert result.residual < 2.0**-32
        assert result.prec_bits <= 512
        assert elapsed < 60


def test_criterion_3_weber_relations_exact():
    with report(3, "both root relations modulo Weber's polynomial, exact"):
        assert verify_root_relation(LaurentExpr({2: 1, 0: -1, -1: -1}), H284, WEBER)
        assert verify_root_relation(LaurentExpr({6: -1, 5: 3, 4: -2, 0: 1}), H71, WEBER)


def test_criterion_4_class_numbers_and_point_count():
    with report(4, "h(-71) = h(-284) = 7 and 14 elliptic points at level 71"):
        assert enumerate_class_group(-71).class_number == 7
        assert enumerate_class_group(-284).class_number == 7
        reps = enumerate_representatives(71, -71) + enumerate_representatives(71, -284)
        assert len(reps) == 14


def test_criterion_5_degree_law_sweep():
    with report(5, "monic integer polynomial of degree h for all 15 levels, <10 min"):
        t0 = time.time()
        for n in sorted(GAMMA0_LEVELS):
            discs = [-4 * n] + ([-n] if n % 4 == 3 else [])
            for disc in discs:
                result = ring_class_polynomial(n, "gamma0", disc)
                assert result.poly.is_monic()
                assert result.poly.degree == brute_force_class_count(disc), (n, disc)
        assert time.time() - t0 < 600


PREC6 = 160


def _eval_at(entry, z):
    return evaluate_mpc(entry, z, PREC6)


def test_criterion_6_catalog_validity():
    with report(6, "invariance of every eta-quotient and Fricke-sym entry"):
        rng = random.Random(606060)
        tol = mp.mpf(2) ** (-PREC6 + 16)
        with mp.workprec(PREC6 + 32):
            for n in sorted(GAMMA0_LEVELS - {1}):
                entry = catalog_lookup(n, "gamma0")
                for _ in range(20):
                    tau = rational_point(rng, -0.5, 0.5, 0.8, 1.3)
                    base = _eval_at(entry, tau)
                    for _ in range(5):
                        moved = _eval_at(entry, cm_mobius(random_gamma0(rng, n), tau))
                        assert abs(moved - base) < tol, (n, "gamma0")
            for n in sorted(GAMMA0_LEVELS - {1}):
                entry = catalog_lookup(n, "fricke")
                for _ in range(20):
                    tau = rational_point(rng, -0.5, 0.5, 0.8, 1.3)
                    base = _eval_at(entry, tau)
                    wtau = cm_mobius((0, -1, n, 0), tau)
                    assert abs(_eval_at(entry, wtau) - base) < tol, (n, "w")
                    for _ in range(5):
                        moved = _eval_at(entry, cm_mobius(random_gamma0(rng, n), tau))
                        assert abs(moved - base) < tol, (n, "fricke")


def test_criterion_7_conjugacy_well_defined():
    with report(7, "equal values at the conjugate C=2 and C=36 points"):
        entry = catalog_lookup(71, "fricke")
        v_c2 = evaluate_mpc(entry, fixed_point(EllipticElement(71, 1, -36, 2)), 128)
        v_c36 = evaluate_mpc(entry, fixed_point(EllipticElement(71, 1, -2, 36)), 128)
        with mp.workprec(128):
            assert abs(v_c2 - v_c36) < mp.mpf(2) ** -32


def test_criterion_8_eta_engine():
    with report(8, "eta transformation law on 500 random pairs; eta(i) series"):
        prec = 128
        rng = random.Random(80808)
        with mp.workprec(prec + 32):
            tol = mp.mpf(2) ** (-prec + 12)
            for _ in range(500):
                a, b, c, d = random_sl2(rng)
                if c < 0 or (c == 0 and d < 0):
                    a, b, c, d = -a, -b, -c, -d
                tau = rational_point(rng, -0.5, 0.5, 0.4, 1.8)
                lhs = eta_mpc(cm_mobius((a, b, c, d), tau), prec)
                base = eta_mpc(tau, prec)
                rhs = eta_multiplier((a, b, c, d)) * mp.sqrt(c * cm_mpc(tau) + d) * base
                assert abs(lhs - rhs) < tol
            got = eta_mpc(CMPoint(0, 1, 1, 1), prec)
            want = eta_direct_series(mp.mpc(0, 1), prec)
            assert abs(got - want) < mp.mpf(2) ** (-prec + 8)


def test_criterion_9_galois_action_structure():
    with report(9, "translation action is a homomorphism; principal acts as identity"):
        for disc in (-71, -284):
            cg = enumerate_class_group(disc)
            h = cg.class_number
            # translation by [beta] sends [a] to [a][beta]^-1: column
            # inverse_idx(beta) of the Cayley table
            perms = [tuple(row[cg.inverse_idx(b)] for row in cg.table) for b in range(h)]
            assert perms[0] == tuple(range(h))
            for i in range(h):
                for j in range(h):
                    composed = tuple(perms[i][perms[j][k]] for k in range(h))
                    assert composed == perms[cg.table[i][j]]
        # (2, 1, 9) has order 7 in Cl(-71), so its translation is a 7-cycle
        cg = enumerate_class_group(-71)
        beta = cg.classes.index(QuadForm(2, 1, 9))
        power, order = beta, 1
        while power != 0:
            power, order = cg.table[power][beta], order + 1
        assert order == 7


def test_criterion_10_note():
    print(
        "ACCEPTANCE NOTE criterion 10: the full Galois-theoretic statements "
        "(Artin symbols on specific roots) are not desk-verifiable here; "
        "acceptance rests on criteria 1-9."
    )
