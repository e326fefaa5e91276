"""Dedekind eta: exact multiplier system and arbitrary-precision evaluation.

Any upper-half-plane argument is first moved into the standard fundamental
domain (|Re| <= 1/2, |tau| >= 1) by tracked SL2(Z) steps, so the pentagonal
series is only ever summed where |q| <= exp(-pi*sqrt(3)) and a handful of
terms suffice at any precision.  The transformation multiplier is computed
exactly as a root of unity through Dedekind sums.

For gamma = [[a, b], [c, d]] with c > 0:

    eta(gamma tau) = exp(pi*i*((a+d)/(12c) - s(d,c) - 1/4))
                     * (c*tau + d)^(1/2) * eta(tau)

with the principal square root; c = 0 gives the pure translation factor
exp(pi*i*b/12).

Error model.  At working precision W, every mpmath operation (arithmetic,
sqrt, exp) is assumed to return its result on its rounded inputs with
relative error at most u = 2^(1-W): mpmath rounds arithmetic correctly and
evaluates sqrt and exp to within an ulp.  `eta_quotient_error` propagates
these errors to first order through one evaluation:

  * the reduction: a flip tau -> -1/tau scales an absolute error and Im(tau)
    alike and a translation changes neither, so error / Im(tau) grows only
    by the rounding of each step, at most 2u |tau| / Im(tau) per step;
  * the reduced point: |d log eta / d tau| = (pi/12) |E2(tau)| <= 0.3 where
    Im(tau) >= sqrt(3)/2;
  * the pentagonal series, a proven fixed-point bound: one exp gives
    q^(1/24), and q = (q^(1/24))^24 and the series are summed in integers at
    scale 2^W by `numerics._fixed_series`, whose rounding bound is charged as
    it states it.  The number of terms is fixed from Im(tau) before summing
    (`_pentagonal_count`): the first exponent e with |q|^e <= 2^-(W+1), so
    the terms left out, whose exponents are distinct integers >= e and
    |q| <= e^(-pi*sqrt(3)), sum to below 2^-W;
  * the multiplier exp(pi*i*r), an exact 24th root of unity (12r is an
    integer) rounded once, from a per-precision table; the square root of
    c*tau + d and the integer powers of the quotient, counted operation by
    operation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, lru_cache
from math import gcd

import mpmath
from mpmath import mp

from .errors import DomainError
from .numerics import _GUARD, _fixed_series, _series_bound, _to_fixed

__all__ = [
    "EtaQuotientSpec",
    "dedekind_sum",
    "eta",
    "eta_quotient",
    "eta_quotient_error",
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


def dedekind_sum(h: int, k: int) -> Fraction:
    """Exact s(h, k), by the reciprocity-accelerated Euclidean recursion."""
    if k < 1:
        raise DomainError("k must be a positive integer")
    if gcd(h, k) != 1:
        raise DomainError(f"gcd({h}, {k}) != 1")
    h %= k
    total = Fraction(0)
    sign = 1
    while k > 1:
        # s(h, k) = -1/4 + (h^2 + k^2 + 1)/(12hk) - s(k mod h, h)
        total += sign * (Fraction(-1, 4) + Fraction(h * h + k * k + 1, 12 * h * k))
        sign = -sign
        h, k = k % h, h
    return total


def _reduce_to_fundamental(tau):
    """Move tau into |Re| <= 1/2, |tau| >= 1; returns (tau_f, (a, b, c, d)).

    The integer matrix maps the input to the output point.
    """
    a, b, c, d = 1, 0, 0, 1
    guard = mp.mpf(2) ** (-mp.prec // 2)
    for _ in range(100000):
        k = int(mpmath.nint(tau.real))
        if k:
            tau -= k
            a, b = a - k * c, b - k * d
        if tau.real ** 2 + tau.imag ** 2 < 1 - guard:
            tau = -1 / tau
            a, b, c, d = -c, -d, a, b
        else:
            return tau, (a, b, c, d)
    raise DomainError("fundamental-domain reduction did not terminate")


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


def _eta_series(tau):
    """q^(1/24) times the pentagonal series, at a point of the fundamental domain."""
    w = mp.prec
    q24 = mp.exp(mp.mpc(0, 1) * mp.pi * tau / 12)
    qr, qi, _ = _fixed_series((_to_fixed(q24.real, w), _to_fixed(q24.imag, w)),
                              (24,), (1,), 0, w)
    exps, signs = _pentagonal(_pentagonal_count(float(tau.imag), w))
    sr, si, _ = _fixed_series((qr, qi), exps, signs, 0, w)
    return q24 * mp.mpc(mp.ldexp(sr, -w), mp.ldexp(si, -w))


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
    k is reduced mod 24.
    """
    a, b, c, d = gamma
    if c < 0 or (c == 0 and d < 0):
        a, b, c, d = -a, -b, -c, -d
    if c == 0:
        # a = d = 1: pure translation by b
        r = Fraction(b, 12)
    else:
        r = Fraction(a + d, 12 * c) - dedekind_sum(d, c) - Fraction(1, 4)
    k = 12 * r
    assert k.denominator == 1, "the eta multiplier is a 24th root of unity"
    return int(k) % 24, (c, d)


def _eta_mpc(tau):
    """eta at an arbitrary mpc point, at the current working precision."""
    if tau.imag <= 0:
        raise DomainError("eta requires Im(tau) > 0")
    tau_f, gamma = _reduce_to_fundamental(mp.mpc(tau))
    value_f = _eta_series(tau_f)
    k, (c, d) = _multiplier(gamma)
    # dividing by eps is multiplying by its conjugate, the root of index -k
    value = value_f * _roots_of_unity(mp.prec)[-k % 24]
    if c == 0:
        return value
    return value / mp.sqrt(c * tau + d)


def eta(tau, prec: int) -> mpmath.mpc:
    """Dedekind eta at tau, relative error at most 2^(-prec+8), rounded to prec bits."""
    with mp.workprec(prec + _GUARD):
        value = _eta_mpc(mp.mpc(tau))
    with mp.workprec(prec):
        return +value


def eta_quotient(spec: EtaQuotientSpec, tau, prec: int) -> mpmath.mpc:
    """prod eta(d*tau)^r_d, each factor through the reduced evaluation path."""
    with mp.workprec(prec + _GUARD):
        t = mp.mpc(tau)
        if t.imag <= 0:
            raise DomainError("eta quotient requires Im(tau) > 0")
        value = mp.mpc(1)
        for d, r in spec.terms:
            value *= _eta_mpc(d * t) ** r
    with mp.workprec(prec):
        return +value


def eta_quotient_error(spec: EtaQuotientSpec, tau, prec: int, tau_ulps: float) -> float:
    """Bound on the relative error of eta_quotient(spec, tau, prec), in units of 2^-prec.

    tau may lie up to tau_ulps * 2^-prec * |tau| from the point meant.  The
    bound follows the error model in the module docstring; it is computed
    in double precision from a replay of each factor's reduction.
    """
    z = complex(tau)
    w = prec + _GUARD
    # in units of 2^-w: the caller's error plus the rounding to w bits
    dz = (tau_ulps * 2.0 ** _GUARD + 1) * abs(z)
    total = 2.0 ** _GUARD  # the final rounding to prec bits
    for d, r in spec.terms:
        # x^r takes at most 2 log2|r| + 1 operations, then one product
        ops = 2 * abs(r).bit_length() + 2
        total += abs(r) * _eta_error(d * z, d * dz, w) + 2 * ops
    return total / 2.0 ** _GUARD


def _eta_error(x: complex, dx: float, w: int) -> float:
    """Relative error of _eta_mpc at x, given dx off; both in units of 2^-w."""
    x0, y0 = x, x.imag
    a, c, steps = 1, 0, 0
    # a replay of _reduce_to_fundamental, tracking the matrix's lower-left
    # entry; a step more or less at the boundary is covered by the two
    # extra steps counted below
    for _ in range(100000):
        k = round(x.real)
        if k:
            x -= k
            a -= k * c
            steps += 1
        if abs(x) >= 1:
            break
        x = -1 / x
        a, c = -c, a
        steps += 1
    else:
        return math.inf
    # error / Im(tau) after the reduction, then the reduced point's error.
    # Everything up to q^(1/24) = exp(pi i x / 12) acts as an error in the
    # point: the argument's roundings within 8|x| and the exp's within 8,
    # as 12/pi times its relative 2 units.
    rho = dx / y0 + 4 * (steps + 2) * (1 / (2 * y0) + 1)
    delta = rho * x.imag + 8 * abs(x) + 8
    # The series, in units of 2^-w: the truncated q^(1/24) is within sqrt(2)
    # and its 24th power moves that by 24 |q^(1/24)|^23 sqrt(2) < 1, plus the
    # kernel's 36; the series has derivative below 1.01 and modulus above
    # 0.99 where |q| <= e^(-pi sqrt(3)); the tail is below 1.  The count
    # takes Im shaded down by 2^-20, so it never falls short of the one
    # the evaluation, with its own Im, sums.
    exps = _pentagonal(_pentagonal_count(x.imag * (1 - 2.0**-20), w))[0]
    series = _series_bound(exps, 0) + 1 + 1.01 * (_series_bound((24,), 0) + 1)
    # the conversion of the sum, the product with q^(1/24), the root of
    # unity and the product with it round once each
    err = 0.3 * delta + series / 0.99 + 8
    if c:
        # c x + d rounded twice, |c x + d|^2 = Im(x) / Im(x reduced); its
        # square root halves the relative error; the sqrt and the division
        # round once each
        cxd = math.sqrt(y0 / x.imag)
        err += (abs(c) * dx + 2 * (abs(c * x0) + cxd)) / (2 * cxd) + 4
    return err
