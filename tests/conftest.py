"""Shared helpers: published polynomials, independent oracles and random
group-element generators."""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import zip_longest
from math import gcd

import mpmath
import pytest
from mpmath import mp
from mpmath.libmp import from_man_exp

import cfq.classfield
from cfq.elliptic import CMPoint
from cfq.errors import InvalidModulusError, NonInvertibleError
from cfq.exactpoly import IntPoly
from cfq.eta import EtaQuotientSpec, eta_quotient
from cfq.hauptmodul import GAMMA0_LEVELS, evaluate
from cfq.numerics import _GUARD, Ball
from cfq.quadforms import _extgcd

# published degree-7 polynomials for the Hilbert class field of Q(sqrt(-71)),
# lowest degree first, kept apart from the copies in cfq.cli
H71 = IntPoly([1, 0, -2, -3, 1, 5, 4, 1])
H284 = IntPoly([-11, 4, 18, 5, -11, -7, 0, 1])
WEBER = IntPoly([-1, -1, 1, 1, 1, -1, -2, 1])     # x^7-2x^6-x^5+x^4+x^3+x^2-x-1

# discriminants whose class groups the tests compose in full
GROUP_DISCS = [-71, -284, -8, -20, -24]


@pytest.fixture
def certify_calls(monkeypatch):
    """The precision of each certify_int_poly call ring_class_polynomial makes."""
    calls = []
    original = cfq.classfield.certify_int_poly

    def recording(values, radius_log2, prec):
        calls.append(prec)
        return original(values, radius_log2, prec)

    monkeypatch.setattr(cfq.classfield, "certify_int_poly", recording)
    return calls


def cpx(re, im, prec) -> Ball:
    """re + i*im, parsed and rounded at prec bits, as a ball of radius 0."""
    with mp.workprec(prec):
        return mpc_ball(mp.mpc(re, im))


def rounded(z, prec) -> Ball:
    """The complex number z rounded to prec bits, as a ball of radius 0."""
    with mp.workprec(prec):
        return mpc_ball(+z)


def ball_mpc(z) -> mpmath.mpc:
    """A `numerics.Ball`'s value (re + i im) 2^exp exactly, whatever the working precision."""
    return mp.make_mpc((from_man_exp(z.re, z.exp), from_man_exp(z.im, z.exp)))


def mpc_ball(z) -> Ball:
    """The mpc z exactly, as a `numerics.Ball` of radius 0."""
    parts = [(-man if sign else man, exp) for sign, man, exp, _ in z._mpc_]
    e = min((exp for man, exp in parts if man), default=0)
    x, y = (man << (exp - e) if man else 0 for man, exp in parts)
    return Ball(x, y, e, 0.0)


def mpf_parts(x: int, exp: int) -> tuple[int, int, int]:
    """(sign, odd mantissa, exponent) of x 2^exp, and (0, 0, 0) for 0: an mpf's own parts."""
    if not x:
        return 0, 0, 0
    zeros = (x & -x).bit_length() - 1
    return int(x < 0), abs(x) >> zeros, exp + zeros


def eta_mpc(tau, prec) -> mpmath.mpc:
    """Dedekind eta at tau: the one-factor `eta_quotient` at the working scale of prec, exactly."""
    return ball_mpc(eta_quotient(EtaQuotientSpec([(1, 1)]), tau, prec + _GUARD))


def evaluate_mpc(spec, tau, prec) -> mpmath.mpc:
    """`hauptmodul.evaluate` at tau as an mpc, exactly."""
    return ball_mpc(evaluate(spec, tau, prec))


def cm_mpc(tau) -> mpmath.mpc:
    """The CMPoint tau = (u + v sqrt(-n)) / w at the working precision."""
    return (tau.u + mp.sqrt(tau.n) * mp.mpc(0, tau.v)) / tau.w


def rational_point(rng: random.Random, re_lo, re_hi, im_lo, im_hi) -> CMPoint:
    """A random CMPoint (u + v i)/w with u/w in [re_lo, re_hi] and v/w in [im_lo, im_hi].

    w is drawn up to 10^6, and u and v uniformly on the grid 1/w.
    """
    while True:
        w = rng.randint(1, 10**6)
        lo, hi = math.ceil(re_lo * w), math.floor(re_hi * w)
        vlo, vhi = max(1, math.ceil(im_lo * w)), math.floor(im_hi * w)
        if lo <= hi and vlo <= vhi:
            return CMPoint(rng.randint(lo, hi), rng.randint(vlo, vhi), w, 1)


def cm_mobius(m, tau: CMPoint) -> CMPoint:
    """(a tau + b)/(c tau + d) exactly, for an integer matrix of positive determinant.

    With tau = (u + v s)/w, s = sqrt(-n), the numerator times the conjugate
    of the denominator is (au + bw)(cu + dw) + n a c v^2 + (ad - bc) v w s,
    over (cu + dw)^2 + n c^2 v^2.
    """
    a, b, c, d = m
    u, v, w, n = tau.u, tau.v, tau.w, tau.n
    return CMPoint((a * u + b * w) * (c * u + d * w) + n * a * c * v * v,
                   (a * d - b * c) * v * w, (c * u + d * w) ** 2 + n * c * c * v * v, n)


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


def eta_multiplier(m) -> mpmath.mpc:
    """eta(m tau) / (sqrt(c tau + d) eta(tau)) for m in SL2(Z), c > 0 or c = 0 < d.

    From the Dedekind sum by its definition, at the working precision.
    """
    a, b, c, d = m
    if c == 0:
        r = Fraction(b, 12)
    else:
        r = Fraction(a + d, 12 * c) - dedekind_sum_by_definition(d, c) - Fraction(1, 4)
    return mp.exp(mp.mpc(0, 1) * mp.pi * r.numerator / r.denominator)


def level_keys() -> list[tuple[int, str, int]]:
    """(level, group, disc) of the degree-law sweep: h <= 2 at every key."""
    discs = {n: [-4 * n] + ([-n] if n % 4 == 3 else []) for n in GAMMA0_LEVELS}
    return [(n, group, d)
            for group in ("gamma0", "fricke")
            for n in sorted(GAMMA0_LEVELS) if group == "gamma0" or n > 1
            for d in discs[n]]


# Rational polynomials for reference computations: tuples of Fractions,
# lowest degree first, with no trailing zero, so the zero polynomial is ().


def rat(coeffs) -> tuple[Fraction, ...]:
    out = [Fraction(c) for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def rat_add(a, b) -> tuple[Fraction, ...]:
    return rat(x + y for x, y in zip_longest(a, b, fillvalue=0))


def rat_sub(a, b) -> tuple[Fraction, ...]:
    return rat(x - y for x, y in zip_longest(a, b, fillvalue=0))


def rat_mul(a, b) -> tuple[Fraction, ...]:
    out = [Fraction(0)] * max(0, len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return rat(out)


def rat_divmod(a, b) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """Exact division with remainder by a nonzero b; deg(remainder) < deg(b)."""
    rem = list(a)
    quo = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    for shift in reversed(range(len(quo))):
        f = quo[shift] = rem[shift + len(b) - 1] / b[-1]
        for j, y in enumerate(b):
            rem[shift + j] -= f * y
    return rat(quo), rat(rem)


def rat_gcd(a, b) -> tuple[Fraction, ...]:
    """A greatest common divisor, up to a constant factor."""
    while b:
        a, b = b, rat_divmod(a, b)[1]
    return a


def polymod_reduce(p, m) -> tuple[Fraction, ...]:
    """Remainder of p modulo m by exact long division."""
    if len(m) < 2:
        raise InvalidModulusError("modulus must have degree at least 1")
    return rat_divmod(p, m)[1]


def polymod_invert(g, m) -> tuple[Fraction, ...]:
    """Inverse of g in Q[x]/(m) via the extended Euclidean algorithm."""
    # invariants: r0 = s0*g + t0*m, r1 = s1*g + t1*m
    r0, r1 = polymod_reduce(g, m), m
    s0, s1 = rat([1]), ()
    while r1:
        q, r = rat_divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, rat_sub(s0, rat_mul(q, s1))
    if len(r0) != 1:
        raise NonInvertibleError(f"gcd has degree {len(r0) - 1}; element is not invertible")
    return polymod_reduce(rat(c / r0[0] for c in s0), m)


def reference_root_relation(expr, target: IntPoly, modulus: IntPoly) -> bool:
    """target(expr(beta)) == 0 in Q[x]/(modulus), by long division and inversion."""
    m = rat(modulus.coeffs)
    x = rat([0, 1])
    value = ()
    for e, c in expr.terms:
        base = x if e >= 0 else polymod_invert(x, m)
        power = rat([1])
        for _ in range(abs(e)):
            power = polymod_reduce(rat_mul(power, base), m)
        value = rat_add(value, rat(c * y for y in power))
    acc = ()
    for c in reversed(target.coeffs):
        acc = rat_add(polymod_reduce(rat_mul(acc, value), m), rat([c]))
    return not polymod_reduce(acc, m)


def brute_force_class_count(d: int) -> int:
    """Formula-free count of reduced primitive forms by raw (a, b, c) scan."""
    count = 0
    amax = 1
    while 3 * amax * amax <= -d:
        amax += 1
    for a in range(1, amax + 1):
        for b in range(-a, a + 1):
            for c in range(a, (b * b - d) // (4 * a) + 2):
                if b * b - 4 * a * c != d:
                    continue
                if not (-a < b <= a <= c):
                    continue
                if (a == c or a == abs(b)) and b < 0:
                    continue
                if gcd(gcd(a, b), c) == 1:
                    count += 1
    return count


def random_sl2(rng: random.Random, bound: int = 50):
    """Random SL2(Z) matrix with entries bounded by `bound`."""
    while True:
        c = rng.randint(-bound, bound)
        d = rng.randint(-bound, bound)
        if (c, d) == (0, 0) or gcd(c, d) != 1:
            continue
        g, u, v = _extgcd(d, -c)
        assert g == 1
        a, b = u, v
        # a*d - b*c = 1 already; shift (a, b) by multiples of (c, d) to bound
        if c or d:
            if abs(a) > bound or abs(b) > bound:
                continue
        return a, b, c, d


def random_gamma0(rng: random.Random, n: int):
    """Random element of Gamma0(n) with modest entries."""
    while True:
        k = rng.randint(-2, 2)
        c = n * k
        d = rng.randint(-9, 9)
        if (c, d) == (0, 0) or gcd(c, d) != 1:
            continue
        g, u, v = _extgcd(d, -c)
        if g != 1:
            continue
        return u, v, c, d


def eta_direct_series(tau, prec):
    """Pentagonal series summed directly at tau, no modular reduction.

    Independent oracle; only sensible when Im(tau) is large enough for the
    series to converge well.
    """
    with mp.workprec(prec + 16):
        q24 = mp.exp(mp.mpc(0, 1) * mp.pi * tau / 12)
        q = q24 ** 24
        total = mp.mpc(1)
        # t1 = q^(k(3k-1)/2) and t2 = t1 q^k, the next t1 = t2 q^k q^(k+1):
        # products, not powers, with qk = q^k
        k, qk, t1 = 1, q, q
        while True:
            t2 = t1 * qk
            term = t1 + t2
            total = total - term if k % 2 else total + term
            if abs(t1) < mp.mpf(2) ** (-prec - 12):
                break
            k, qk, t1 = k + 1, qk * q, t2 * qk * qk * q
        return q24 * total
