"""Dedekind eta: exact multiplier system and arbitrary-precision evaluation.

Every point is exact, tau = (u + v*sqrt(-r))/w with integers v, w > 0 (a
`CMPoint`), and is moved into the standard fundamental domain in integers
by tracked SL2(Z) steps (`_ascend` with n = 1, the ascent the Fricke groups
of `cfq.hauptmodul` take with n = N): translations and tau -> -1/tau until
|Re| <= 1/2 and |tau| >= 1 exactly, as `cfq.quadforms.reduce_form` does for
forms.  Only the reduced point is formed in mpmath, so the pentagonal
series is only ever summed where |q| <= exp(-pi*sqrt(3)), and a handful of
terms suffice at any precision.  The transformation multiplier is computed
exactly as a root of unity through Dedekind sums, in integers.

For gamma = [[a, b], [c, d]] with c > 0:

    eta(gamma tau) = exp(pi*i*((a+d)/(12c) - s(d,c) - 1/4))
                     * (c*tau + d)^(1/2) * eta(tau)

with the principal square root; c = 0 gives the pure translation factor
exp(pi*i*b/12).

Error model.  At working precision W, every mpmath operation (arithmetic,
sqrt, exp) is assumed to return its result on its rounded inputs with
relative error at most u = 2^(1-W): mpmath rounds arithmetic correctly and
evaluates sqrt and exp to within an ulp.  `eta_quotient` propagates these
errors to first order through the evaluation it returns, from each
factor's reduced point, its matrix's c and the exponents its series
summed.  The constants 0.3, 1.01 and 0.99 below hold for
Im(tau) >= sqrt(3)/2, with room for the rounding of the point:

  * the reduced point, rounded once to the working precision
    (`_mp_point`): within 6 units of |tau|, whatever steps led to it, and
    |d log eta / d tau| = (pi/12) |E2(tau)| <= 0.3 there;
  * the pentagonal series, a proven fixed-point bound: one exp gives
    q^(1/24), and q = (q^(1/24))^24 is formed in integers at scale 2^W by
    five truncated products, q^2, q^3, q^6, q^12, q^24.  The kernel's
    product lemma (`numerics._fixed_series`) adds the errors along this
    addition chain, so q is within sqrt(2) 23 of (q^(1/24))^24.  The series
    is summed by the kernel in blocks of isqrt(e_max) + 1 exponents, and
    its rounding bound is charged as it states it for the exponents summed;
    the series has derivative below 1.01 and modulus above 0.99.  The
    number of terms is fixed from Im(tau) before summing
    (`_pentagonal_count`): the first exponent e with |q|^e <= 2^-(W+1), so
    the terms left out, whose exponents are distinct integers >= e, sum to
    below 2^-W;
  * the multiplier exp(pi*i*r), an exact 24th root of unity (12r is an
    integer) rounded once, from a per-precision table; the square root of
    c*tau + d, formed from the same integers as the point, and the integer
    powers of the quotient, counted operation by operation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, lru_cache
from math import gcd, isqrt

import mpmath
from mpmath import mp
from mpmath.libmp import from_rational, round_nearest

from .elliptic import CMPoint
from .errors import ConvergenceError, DomainError
from .numerics import _GUARD, _fixed_series, _powers, _to_fixed

__all__ = [
    "EtaQuotientSpec",
    "eta",
    "eta_quotient",
]


@dataclass(frozen=True)
class EtaQuotientSpec:
    """Product prod_d eta(d*tau)^r_d, stored as ((d, r), ...)."""

    terms: tuple[tuple[int, int], ...]

    def __init__(self, terms):
        terms = tuple((int(d), int(r)) for d, r in terms)
        if not terms:
            raise DomainError("eta quotient needs at least one factor")
        for d, r in terms:
            if d < 1:
                raise DomainError(f"scale {d} must be positive")
            if r == 0:
                raise DomainError("exponents must be nonzero")
        object.__setattr__(self, "terms", terms)


def _dedekind12(h: int, k: int) -> int:
    """T(h, k) = 12k s(h, k), an integer, by the Euclidean recursion of reciprocity.

    s(h, k) + s(k, h) = -1/4 + (h^2 + k^2 + 1)/(12hk), times 12hk, gives
    h T(h, k) = h^2 + k^2 + 1 - 3hk - k T(k, h), and T(0, 1) = 0.
    """
    if k < 1:
        raise DomainError("k must be a positive integer")
    if gcd(h, k) != 1:
        raise DomainError(f"gcd({h}, {k}) != 1")
    h %= k
    return 0 if k == 1 else (h * h + k * k + 1 - 3 * h * k - k * _dedekind12(k, h)) // h


def _ascend(tau: CMPoint, n: int) -> tuple[CMPoint, tuple[int, int, int, int], int]:
    """Move tau up under tau -> tau - k and tau -> -1/(n tau) until n|tau|^2 >= 1.

    Exact, in integers, with tau = (p + s sqrt(-r))/q.  A translation is
    p -= kq, k the nearest integer to Re(tau), ties to even as in mp.nint,
    so that mirror images -conj(tau) stay mirror images.  The flip is
    (p, s, q) -> (-p, s, n (p^2 + s^2 r)/q), an exact division while q
    divides n (p^2 + s^2 r): tau is first scaled so that q divides
    p^2 + s^2 r, and both steps keep the weaker condition.  Each flip lowers
    q, so the ascent ends.

    Returns (point, (a, b, c, d), steps): the integer matrix, a product of
    translations and [[0, -1], [n, 0]], maps tau to the point, and lies in
    SL2(Z) for n = 1; each translation and each flip counts as one step.
    The point has |Re| <= 1/2 and n|point|^2 >= 1, and its imaginary part
    is never below tau's.
    """
    p, s, q, r = tau.u, tau.v, tau.w, tau.n
    g = q // gcd(q, p * p + s * s * r)
    p, s, q = g * p, g * s, g * q
    a, b, c, d = 1, 0, 0, 1
    steps = 0
    while True:
        k, tie = divmod(2 * p + q, 2 * q)
        if tie == 0 and k % 2:
            k -= 1
        if k:
            p -= k * q
            a, b = a - k * c, b - k * d
            steps += 1
        norm = p * p + s * s * r
        if n * norm >= q * q:
            return CMPoint(p, s, q, r), (a, b, c, d), steps
        p, q = -p, n * norm // q
        a, b, c, d = -c, -d, n * a, n * b
        steps += 1


def _mp_point(tau: CMPoint, root) -> mpmath.mpc:
    """tau at the working precision, given root = sqrt(tau.n) rounded once.

    u/w and v/w are rounded once each and v/w times root once more, so the
    result is within 6 units of |tau|, 2 units of its result an operation.
    """
    prec = mp.prec
    return mp.mpc(mp.make_mpf(from_rational(tau.u, tau.w, prec, round_nearest)),
                  mp.make_mpf(from_rational(tau.v, tau.w, prec, round_nearest)) * root)


def _pentagonal_exponent(j: int) -> int:
    """The j-th exponent, in increasing order, of prod (1 - q^k) = sum (-1)^k q^(k(3k-1)/2)."""
    k = (j + 1) // 2
    return k * (3 * k - 1) // 2 if j % 2 else k * (3 * k + 1) // 2


@cache
def _pentagonal(n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The first n exponents of the pentagonal series and their signs."""
    return (tuple(map(_pentagonal_exponent, range(n))),
            tuple(-1 if (j + 1) // 2 % 2 else 1 for j in range(n)))


def _pentagonal_count(y: float, w: int) -> int:
    """Terms of the pentagonal series summed at Im(tau) = y, scale 2^w.

    The first n whose exponent e_n, the first one left out, has
    |q|^e_n = e^(-2 pi y e_n) <= 2^-(w+1).
    """
    need = (w + 1) * math.log(2) / (2 * math.pi * y)
    n = 1
    while _pentagonal_exponent(n) < need:
        n += 1
    return n


def _eta_series(tau) -> tuple[mpmath.mpc, float]:
    """q^(1/24) times the pentagonal series at a point of the fundamental domain.

    Returns the value and the series' error in units of 2^-w, w the working
    precision: the kernel's bounds for the exponents it summed, and the tail.
    The truncated q^(1/24) is within sqrt(2), and its 24th power moves that
    by 24 |q^(1/24)|^23 sqrt(2) < 1.  The chain that forms the 24th power
    adds sqrt(2) 23, charged as 1.5 * 23: q^3 is within sqrt(2) 2, and each
    squaring doubles the error and adds sqrt(2).  The series has derivative
    below 1.01 where |q| <= e^(-pi sqrt(3)), and the tail is below 1.
    """
    w = mp.prec
    q24 = mp.exp(mp.mpc(0, 1) * mp.pi * tau / 12)
    # q^2 and q^3 along the powers' step-1 chain, then q^6, q^12 and q^24
    *_, qr, qi = _powers((_to_fixed(q24.real, w), _to_fixed(q24.imag, w)), 3, w)
    for _ in range(3):
        qr, qi = (qr * qr - qi * qi) >> w, (2 * qr * qi) >> w
    q = (qr, qi)
    exps, signs = _pentagonal(_pentagonal_count(float(tau.imag), w))
    powers = _powers(q, isqrt(exps[-1]) + 1, w)
    sr, si, sum_err = _fixed_series(q, exps, signs, 0, w, powers)
    return (q24 * mp.mpc(mp.ldexp(sr, -w), mp.ldexp(si, -w)),
            sum_err + 1 + 1.01 * (1.5 * 23 + 1))


@lru_cache(maxsize=8)
def _roots_of_unity(prec: int) -> tuple[mpmath.mpc, ...]:
    """exp(2 pi i k / 24) for k = 0 .. 23, each rounded once to prec bits."""
    with mp.workprec(prec + 16):
        roots = [mp.mpc(mp.cospi(mp.mpf(k) / 12), mp.sinpi(mp.mpf(k) / 12))
                 for k in range(24)]
    with mp.workprec(prec):
        return tuple(+z for z in roots)


def _multiplier(gamma) -> tuple[int, tuple[int, int]]:
    """Factor data for eta(gamma tau) = eps * (c tau + d)^(1/2) eta(tau).

    Returns (k, (c, d)) with eps = exp(pi*i*k/12), a 24th root of unity;
    k is reduced mod 24.  For c > 0, k = (a + d)/c - 12 s(d, c) - 3.
    """
    a, b, c, d = gamma
    if c < 0 or (c == 0 and d < 0):
        a, b, c, d = -a, -b, -c, -d
    if c == 0:
        # a = d = 1: pure translation by b
        return b % 24, (c, d)
    k, rest = divmod(a + d - _dedekind12(d, c), c)
    assert rest == 0, "the eta multiplier is a 24th root of unity"
    return (k - 3) % 24, (c, d)


def _eta_mpc(tau: CMPoint, root) -> tuple[mpmath.mpc, float]:
    """eta at tau and its relative error, at the working precision w.

    root is sqrt(tau.n) rounded once.  The error, in units of 2^-w, follows
    the module's error model through this evaluation's own point and series.
    """
    point, gamma, _steps = _ascend(tau, 1)
    xr = _mp_point(point, root)
    value, series_err = _eta_series(xr)
    k, (c, d) = _multiplier(gamma)
    # dividing by eps is multiplying by its conjugate, the root of index -k
    value *= _roots_of_unity(mp.prec)[-k % 24]
    # Everything up to q^(1/24) = exp(pi i xr / 12) acts as an error in the
    # point: the point's rounding within 6|xr|, the argument's roundings
    # within 8|xr| and the exp's within 8, as 12/pi times its relative 2
    # units.  The series has modulus above 0.99; the conversion of the sum,
    # the product with q^(1/24), the root of unity and the product with it
    # round once each.
    err = 0.3 * (14 * abs(complex(xr)) + 8) + series_err / 0.99 + 8
    if c:
        # c tau + d from the same integers, within 6 units of itself; its
        # square root halves that, and the sqrt and the division round once
        # each
        value /= mp.sqrt(_mp_point(CMPoint(c * tau.u + d * tau.w, c * tau.v, tau.w, tau.n), root))
        err += 7
    return value, err


def eta(tau: CMPoint, prec: int) -> mpmath.mpc:
    """Dedekind eta at tau, relative error at most 2^(8 - prec), rounded to prec bits.

    Raises ConvergenceError, instead of returning, where the bound of
    `eta_quotient` exceeds 2^8 units of 2^-prec.
    """
    value, err = eta_quotient(EtaQuotientSpec([(1, 1)]), tau, prec)
    if not err <= 2.0**8:
        raise ConvergenceError(f"error estimate {err:.3g} * 2^-{prec} exceeds "
                               f"the bound 2^(8 - {prec}) at this point")
    return value


def eta_quotient(spec: EtaQuotientSpec, tau: CMPoint, prec: int) -> tuple[mpmath.mpc, float]:
    """prod eta(d*tau)^r_d rounded to prec bits, and a bound on its relative error.

    The bound is in units of 2^-prec and follows the error model in the
    module docstring through each factor's own evaluation; the factor
    d*tau is the exact point (d u + d v sqrt(-n))/w.
    """
    if not isinstance(tau, CMPoint):
        raise DomainError(f"eta needs an exact CMPoint, got {tau!r}")
    with mp.workprec(prec + _GUARD):
        root = mp.sqrt(tau.n)
        value = mp.mpc(1)
        err = 2.0**_GUARD  # the final rounding to prec bits
        for d, r in spec.terms:
            factor, factor_err = _eta_mpc(CMPoint(d * tau.u, d * tau.v, tau.w, tau.n), root)
            value *= factor ** r
            # x^r takes at most 2 log2|r| + 1 operations, then one product
            err += abs(r) * factor_err + 2 * (2 * abs(r).bit_length() + 2)
    with mp.workprec(prec):
        return +value, err / 2.0**_GUARD
