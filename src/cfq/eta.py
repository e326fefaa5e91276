"""Dedekind eta quotients: exact multiplier system and arbitrary-precision evaluation.

Every point is exact, tau = (u + v*sqrt(-r))/w with integers v, w > 0 (a
`CMPoint`), and is moved into the standard fundamental domain in integers
by tracked SL2(Z) steps (`_ascend` with n = 1, the ascent the Fricke groups
of `cfq.hauptmodul` take with n = N): translations and tau -> -1/tau until
|Re| <= 1/2 and |tau| >= 1 exactly, as `cfq.quadforms.reduce_form` does for
forms.  Only the reduced point is evaluated, so the pentagonal series is
only ever summed where |q| <= exp(-pi*sqrt(3)), and a handful of terms
suffice at any precision.  The transformation multiplier is computed
exactly as a root of unity through Dedekind sums, in integers.

For gamma = [[a, b], [c, d]] with c > 0:

    eta(gamma tau) = exp(pi*i*((a+d)/(12c) - s(d,c) - 1/4))
                     * (c*tau + d)^(1/2) * eta(tau)

with the principal square root; c = 0 gives the pure translation factor
exp(pi*i*b/12).

Error model.  Every step after the exact point is in integers with a
proven bound, a factor a `numerics.Ball` at the scale 2^w the caller gives
`eta_quotient`.  The multiplier exp(-pi i k/12), k mod 24 in -12 .. 11, is
the exact translation of the reduced point z by -k: z - k = (z mod 1) + a
for an integer a.  eta(z) = q^(1/24) S(q), and q and S(q) depend on z mod 1
alone: the factors of one quotient that reduce to one point mod 1 share
them, and the q^(1/24) of the first factor there, computed once.

  * the first factor at a point takes q^(1/24) exp(-pi i k/12) =
    exp(pi i (z - k)/12) from `numerics._exp_i_pi`, the one exp of the
    point, whose radius holds the argument's error and the exp's; a later
    factor there, of offset a against the first one's a_0, takes that ball
    times zeta^b = exp(pi i b/12), b = a - a_0 mod 24 in -12 .. 11, and
    that ball itself where b = 0.  zeta^b is `numerics._zeta24`, the same
    exp at the exact argument pi i b/12, cached per process by (b, w)
    alone; the product carries both radii and its truncation's 1.5.  A
    relative error e in a factor's q^(1/24) moves eta(z) by at most
    |E2(z)| e, as d log eta / d log q^(1/24) = E2(z) = 1 - 24 sum sigma(j) q^j.
    The 1 is the factor's own q^(1/24), charged e on the factor.  E2 - 1 is
    S's share through q, |E2 - 1| <= 24 sum sigma(j) |q|^j < 0.106 where
    Im(z) >= sqrt(3)/2, charged 0.15 e_0 on the shared S(q), e_0 the radius
    of the first factor's q^(1/24), which q was built from;
  * q = (q^(1/24))^24 in integers at scale 2^w from five truncated
    products, q^2, q^3, q^6, q^12, q^24, within sqrt(2) 23 by the kernel's
    product lemma (`numerics._fixed_series`), and the pentagonal series S
    summed by the kernel in blocks of isqrt(e_max) + 1 exponents, its
    rounding bound charged as the kernel states it; S has derivative below
    1.01 and modulus above 0.99.  The terms are counted from Im(z) before
    summing (`_pentagonal_count`): the first exponent e left out has
    |q|^e <= 2^-(w+1), so the tail is below 2^-w;
  * c tau + d from the integers of tau (`_cm_ball`), its principal square
    root, the products and the one quotient are `numerics` ball operations.
"""

from __future__ import annotations

import math
from functools import cache
from math import gcd, isqrt

from .elliptic import CMPoint
from .errors import ConvergenceError, DomainError
from .exactpoly import _Record, _integers
from .numerics import (
    MAX_PREC_BITS, MIN_PREC_BITS, _GUARD, Ball, _SeriesTable, _csqrt, _div, _exp_i_pi, _fixed,
    _fixed_series, _mul, _normal, _pow, _powers, _root, _zeta24,
)

__all__ = [
    "EtaQuotientSpec",
    "eta_quotient",
]


class EtaQuotientSpec(_Record):
    """Product prod_d eta(d*tau)^r_d, stored as ((d, r), ...)."""

    __slots__ = ("terms",)

    def __init__(self, terms):
        terms = tuple(_integers(term, "eta quotient scales and exponents") for term in terms)
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
    p -= kq, k the nearest integer to Re(tau), ties to even as in round(),
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


def _imag(z: CMPoint) -> float:
    """Im(z) = sqrt(v^2 n / w^2) as a double; ConvergenceError above 2^500, far past any bound.

    An argument 2 pi Im within units of 2^-w moves q by a relative Im 2^-w
    or so, past evaluate's bound at every precision from about Im = 2^56 on.
    """
    square, w2 = z.v * z.v * z.n, z.w * z.w
    if square.bit_length() > w2.bit_length() + 1000:
        raise ConvergenceError("the point lies too far above the real axis")
    return math.sqrt(square / w2)


@cache
def _pentagonal(count: int, scale: int = 1) -> _SeriesTable:
    """prod (1 - q^(scale j)) = sum (-1)^k q^(scale k(3k-1)/2) to its first count terms.

    The k run 0, 1, -1, 2, -2, ..., so the exponents increase; the
    coefficients are the signs (-1)^k.  One table per (count, scale): the
    eta factors take scale 1, the theta quotient S(q^N) its level.
    """
    ks = [(j + 1) // 2 if j % 2 else -(j // 2) for j in range(count)]
    return _SeriesTable((scale * (k * (3 * k - 1) // 2) for k in ks),
                        (-1 if k % 2 else 1 for k in ks))


def _pentagonal_count(size: float) -> int:
    """The number of those exponents below size > 0: 0, and k(3k -+ 1)/2 for 6k -+ 1 <= r."""
    r = isqrt(24 * math.ceil(size) - 23)
    return 1 + (r + 1) // 6 + (r - 1) // 6


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


def _eta_ball(tau: CMPoint, w: int, series: dict) -> Ball:
    """eta at tau as a ball at scale 2^w (the module's error model).

    `series` maps each reduced point mod 1 met so far in one quotient to
    the first factor's q^(1/24) there, its offset a_0 and S(q)
    (`_pentagonal_ball`): the first factor takes the point's one exp and
    sums q, its chain and S(q) from it, and each factor after it takes that
    q^(1/24) times the cached zeta^b, and S(q) as it is.  E2's charge is
    split: each factor's q^(1/24) carries 1 times its radius, and the
    shared S(q) 0.15 times the radius of the first factor's.
    """
    z, gamma, _steps = _ascend(tau, 1)
    k, (c, d) = _multiplier(gamma)
    # refused here, before any exp, if too far above the real axis
    im = _imag(z)
    # z - k = (z mod 1) + a
    u, a = z.u % z.w, z.u // z.w - (k - 24 * (k >= 12))
    point = (u, z.v, z.w, z.n)
    if point not in series:
        q24 = _exp_i_pi(u + a * z.w, z.v, 12 * z.w, z.n, w)
        series[point] = q24, a, _pentagonal_ball(q24, im, w)
    q24, a0, s = series[point]
    if b := (a - a0 + 12) % 24 - 12:
        q24 = _mul(q24, _zeta24(b, w), w)
    value = _mul(q24, s, w)
    if c:
        # c tau + d = (c u + d t + c v sqrt(-n)) / t
        value = _div(value, _csqrt(_cm_ball(c * tau.u + d * tau.w, c * tau.v, tau.w, tau.n, w),
                                   w), w)
    return value


def _pentagonal_ball(q24: Ball, im: float, w: int) -> Ball:
    """S(q) at q = q24^24, Im(z) = im, as a ball at scale 2^w (the module's error model).

    Its radius holds the chain's products, the kernel's bound, the tail, and
    S's share 0.15 of q24's own error, |E2 - 1| <= 0.106 at reduced points.
    """
    # the first exponent left out, e, has |q|^e = e^(-2 pi Im(z) e) <= 2^-(w+1)
    size = (w + 1) * math.log(2) / (2 * math.pi * im)
    table = _pentagonal(_pentagonal_count(size))
    # q^3 along the powers' chain, then q^6, q^12 and q^24; the truncated
    # q^(1/24), within sqrt(2), moves q by 24 |q^(1/24)|^23 sqrt(2) < 1
    qr, qi = _powers(_fixed(q24, w), 3, w)[4:]
    for _ in range(3):
        qr, qi = (qr * qr - qi * qi) >> w, (2 * qr * qi) >> w
    sr, si, bound = _fixed_series(table, len(table.exps),
                                  _powers((qr, qi), isqrt(table.exps[-1]) + 1, w))
    return _normal(sr, si, -w, (bound + 1 + 1.01 * (1.5 * 23 + 1)) / 0.99 + 0.15 * q24.rad, w)


def _cm_ball(p: int, s: int, t: int, n: int, w: int) -> Ball:
    """(p + s sqrt(-n)) / t for integers s, t > 0, as a ball at scale 2^w.

    At 2^b, b = w + 2 + max(0, len(t) - len(p^2 + s^2 n) // 2), the value is
    above 2^(w + 3/2); its real part is floored within 1, its imaginary part
    within s/t + 1 <= |value| / sqrt(n) + 1: within 1 unit of 2^-w.  The
    shift to w + 1 bits adds 1.5, and a floor of a floor is one floor, so
    only sqrt(n)'s truncation can carry the error past that 1.5 alone.
    """
    b = w + 2 + max(0, t.bit_length() - (p * p + s * s * n).bit_length() // 2)
    return _normal((p << b) // t, (s * _root(n, b)) // t, -b, 1.0, w)


def eta_quotient(spec: EtaQuotientSpec, tau: CMPoint, w: int) -> Ball:
    """prod eta(d*tau)^r_d as a ball at the working scale 2^w (the module's error model).

    w is an integer from MIN_PREC_BITS + _GUARD to MAX_PREC_BITS + _GUARD,
    the scales `evaluate` works at; any other raises DomainError, as does
    a spec that is not an `EtaQuotientSpec`.  Each factor takes its own
    ascent, multiplier and (c tau + d)^(1/2); the exp of q^(1/24), q, its
    chain and S(q) are taken once per reduced point mod 1 of the call, and
    nothing is kept across calls but the roots zeta^b.  The factors, at the
    exact points d*tau, of positive and of negative exponent are multiplied
    out apart and divided once.
    """
    if not isinstance(spec, EtaQuotientSpec):
        raise DomainError(f"eta_quotient needs an EtaQuotientSpec, got {spec!r}")
    if not isinstance(tau, CMPoint):
        raise DomainError(f"eta needs an exact CMPoint, got {tau!r}")
    if not (type(w) is int and MIN_PREC_BITS + _GUARD <= w <= MAX_PREC_BITS + _GUARD):
        raise DomainError(f"the working scale must be an integer from {MIN_PREC_BITS + _GUARD} "
                          f"to {MAX_PREC_BITS + _GUARD}, got {w!r}")
    series, parts = {}, {}
    for d, r in spec.terms:
        p = _pow(_eta_ball(CMPoint(d * tau.u, d * tau.v, tau.w, tau.n), w, series), abs(r), w)
        parts[r > 0] = _mul(parts[r > 0], p, w) if (r > 0) in parts else p
    num = parts.get(True, Ball(1, 0, 0, 0.0))
    return _div(num, parts[False], w) if False in parts else num
