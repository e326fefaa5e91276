"""Certified integer polynomials from complex roots, and the series kernel.

Values are plain `mpmath.mpc` numbers, and every function takes the working
precision in bits as an explicit `prec` argument.  Between the values and
the accepted polynomial all arithmetic is exact, in integers.

`certify_int_poly` turns roots known within radii into an integer
polynomial with a proof (after Enge, Math. Comp. 78, 2009).  Each value v_i
is rounded once to the nearest V_i on the grid 2^-s, s = prec + 8, so
|V_i - v_i| < 2^-s, and prod(x - V_i) is multiplied out exactly in
Gaussian integers.  If each true root t_i lies within
eps_i = 2^radius_log2 * max(1, |v_i|) of v_i, it lies within
eps_i' = eps_i + 2^-s of V_i, and every true coefficient lies within R_k of
the exact one, where R_k is the degree-k coefficient of

    prod(x + |V_i| + eps_i') - prod(x + |V_i|),

evaluated in integers with every rounding directed upward.  Each
coefficient is rounded to the nearest integer and its distance from it,
imaginary part included, computed exactly.  A coefficient ball of radius
R_max around a value within 1/2 - R_max of an integer holds that integer
and no other; the comparison residual + R_max < 1/2 is made in integers.

`_fixed_series` is the one series-summation loop of the package: the eta
pentagonal series and the two series of a theta quotient are all summed by
it, in integers at scale 2^w, with a proven bound on its rounding.  Every
series is cut into blocks of m exponents (rectangular splitting): the
caller builds the powers q^0 .. q^(m-1) and q^m once (`_powers`) and
chooses m, each block is an exact integer dot product with them, and
Horner's rule in q^m joins the blocks.  Eta takes m = isqrt(e_max) + 1;
the theta quotient sums its two series against one set, so that a dense
series of K terms takes about m + K/m full products instead of K.  The
proof of the bound holds for any m and is in the `_fixed_series`
docstring.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from math import isqrt
from operator import le, mul

import mpmath
from mpmath import mp
from mpmath.libmp import from_man_exp, round_ceiling

from .errors import DomainError, RoundingFailureError
from .exactpoly import IntPoly

# guard bits above the requested precision, for eta and for evaluate
_GUARD = 48

# the range of working precisions a request may ask for
MIN_PREC_BITS = 64
MAX_PREC_BITS = 16384

__all__ = [
    "MIN_PREC_BITS",
    "MAX_PREC_BITS",
    "PrecisionPolicy",
    "certify_int_poly",
]


@dataclass(frozen=True)
class PrecisionPolicy:
    """The working precision of a class polynomial's one round.

    `start_bits`, by default the 64-bit floor, from MIN_PREC_BITS to
    MAX_PREC_BITS; the round's values are evaluated at it and the rounding
    is certified once (`certify_int_poly`).
    """

    start_bits: int = MIN_PREC_BITS

    def __post_init__(self):
        if not MIN_PREC_BITS <= self.start_bits <= MAX_PREC_BITS:
            raise DomainError(f"precision must be from {MIN_PREC_BITS} to {MAX_PREC_BITS} "
                              f"bits, got {self.start_bits}")


def certify_int_poly(
    values, radius_log2: int, prec: int
) -> tuple[IntPoly, mpmath.mpf, mpmath.mpf]:
    """The integer polynomial prod(x - t_i), given v_i within eps_i of t_i.

    eps_i = 2^radius_log2 * max(1, |values[i]|).  Returns (poly, residual,
    R_max): the largest complex distance from a coefficient of prod(x - V_i)
    to its rounded value, rounded up to prec bits, and the largest
    coefficient radius (module docstring), both exact binary fractions.
    Raises RoundingFailureError unless residual + R_max < 1/2, so that every
    coefficient ball contains exactly one integer; the comparison is made
    in integers, on the exact residual.
    """
    if not values:
        raise DomainError("need at least one root")
    s, h = prec + 8, len(values)
    roots = [(_nearest(v.real, s), _nearest(v.imag, s)) for v in values]
    # coefficient k of prod(x - V_i 2^s) carries the scale 2^(s(h-k))
    re, im = _expand(roots)
    rounded, dist2 = [], 0
    for k in range(h):
        scale = s * (h - k)
        n = (re[k] + (1 << (scale - 1))) >> scale
        rounded.append(n)
        dr, di = re[k] - (n << scale), im[k]
        # squared distance at the common scale 2^(2sh)
        dist2 = max(dist2, (dr * dr + di * di) << (2 * s * k))
    r_max = _coefficient_radius(roots, radius_log2, s)
    residual = _isqrt_up(dist2)
    # residual + R_max < 1/2, both sides at the scale 2^(sh)
    tol = ((1 << (s - 1)) - r_max) << (s * (h - 1))
    residual_mpf = mp.make_mpf(from_man_exp(residual, -s * h, prec, round_ceiling))
    if tol <= 0 or dist2 >= tol * tol:
        raise RoundingFailureError(
            residual_mpf, mp.make_mpf(from_man_exp(tol, -s * h)))
    return (IntPoly(rounded + [1]), residual_mpf,
            mp.make_mpf(from_man_exp(r_max, -s)))


def _coefficient_radius(roots, radius_log2: int, s: int) -> int:
    """R_max of the module docstring times 2^s, rounded up, for roots V_i 2^s."""
    hi, perturbed = [], []
    for x, y in roots:
        a = _isqrt_up(x * x + y * y)                   # >= |V| 2^s
        # |v| <= |V| + 2^-s, and V is within 2^-s of v
        eps = _shift_up(max(1 << s, a + 1), radius_log2) + 1
        hi.append((-a, 0))
        perturbed.append((-a - eps, 0))
    h = len(roots)
    upper, base = _expand(perturbed)[0], _expand(hi)[0]
    return max(_shift_up(upper[k] - base[k], -s * (h - k - 1)) for k in range(h))


def _nearest(x: mpmath.mpf, s: int) -> int:
    """x * 2^s rounded to the nearest integer, ties away from zero."""
    sign, man, exp, _bc = x._mpf_
    shift = exp + s
    n = man << shift if shift >= 0 else ((man >> (-shift - 1)) + 1) >> 1
    return -n if sign else n


def _isqrt_up(n: int) -> int:
    """ceiling of sqrt(n) for n >= 0."""
    r = isqrt(n)
    return r + (r * r < n)


def _shift_up(n: int, k: int) -> int:
    """ceiling of n * 2^k for n >= 0."""
    return n << k if k >= 0 else -(-n >> -k)


def _expand(roots: list[tuple[int, int]]) -> tuple[list[int], list[int]]:
    """Real and imaginary parts of the coefficients of prod(x - (X + iY)), lowest first."""
    re, im = [1], [0]
    for x, y in roots:
        # multiply by (x - r): c'_k = c_(k-1) - r c_k
        re, im = ([b - a * x + c * y for a, c, b in zip(re + [0], im + [0], [0] + re)],
                  [d - a * y - c * x for a, c, d in zip(re + [0], im + [0], [0] + im)])
    return re, im


def _to_fixed(x: mpmath.mpf, w: int) -> int:
    """x * 2^w truncated toward zero: within 1 of it."""
    sign, man, exp, _bc = x._mpf_
    shift = exp + w
    n = man << shift if shift >= 0 else man >> -shift
    return -n if sign else n


def _powers(q, m: int, w: int) -> tuple[list[int], list[int], int, int]:
    """(baby_r, baby_i, big_r, big_i): q^0 .. q^(m-1) and Q = q^m at scale 2^w.

    q = (qr, qi) as for `_fixed_series`; each power is the one before times
    q, a truncated product, so q^i is within sqrt(2) (i - 1) of its value
    for i >= 1 while |q| <= 1 - 2 m 2^-w (the kernel's premise).
    """
    qr, qi = q
    baby_r, baby_i = [1 << w], [0]
    for _ in range(m):
        pr, pi = baby_r[-1], baby_i[-1]
        baby_r.append((pr * qr - pi * qi) >> w)
        baby_i.append((pr * qi + pi * qr) >> w)
    return baby_r, baby_i, baby_r.pop(), baby_i.pop()


def _fixed_series(q, exponents, coeffs, coeff_bits: int, w: int,
                  powers) -> tuple[int, int, float]:
    """sum_j coeffs[j] q^exponents[j] in integers at scale 2^w, and its rounding bound.

    q = (qr + i qi) 2^-w is given by its scaled components (qr, qi).
    exponents is a nondecreasing sequence of integers >= 0; coeffs is a
    sequence holding one integer of modulus at most 2^coeff_bits per
    exponent.  powers is `_powers(q, m, w)` for any m >= 1, and the series
    is summed in blocks of m exponents against it, so that several series
    at one q can share one set of powers.  Returns (sr, si, bound) with

        |(sr + i si) 2^-w - sum_j coeffs[j] q^exponents[j]| <= bound 2^-w,

    the sum taken at q exactly.  The caller adds its truncation tail and the
    error in q.

    Every product of two scaled numbers is truncated toward -infinity,
    within sqrt(2) of its value.  If approximations of x and y, |x|, |y| <=
    1, are within a and b, their product is within a|y| + b|x| + ab + sqrt(2),
    which is at most a + b + sqrt(2) when |q| + b 2^-w <= 1.  The premise
    holds because |q| <= 1 - 2 max(e_max, m) 2^-w, which is checked in
    integers before any term is summed.

    Block k holds the exponents km .. km + m - 1 (rectangular splitting,
    Paterson and Stockmeyer 1973).  The baby steps q^0 .. q^(m-1) and
    Q = q^m are one chain with step 1, so q^i is within sqrt(2) (i - 1) for
    i >= 1 and Q within sqrt(2) (m - 1).  Each block sum
    sum_i c_(km+i) q^i is an exact integer dot product, within
    sqrt(2) 2^b sum_i max(0, i - 1) of its true value, b = coeff_bits.
    Horner's rule in Q combines the blocks from the top down, one truncated
    product per block below the top: a giant step.  The partial sum H above
    block k has a true value S of modulus at most 2^b times the number of
    terms it holds, since |q| <= 1, and |Q| <= 2^w by the premise, as
    sqrt(2) (m - 1) < 2m.  So H Q 2^-w is within err(H) + |S| sqrt(2) (m - 1)
    of S q^m 2^w, and the giant step adds sqrt(2) for its truncation.  A
    term of block k thus carries sqrt(2) 2^b (max(0, i - 1) + k (m - 1))
    <= sqrt(2) 2^b e, and the sum is within sqrt(2) 2^b sum_j e_j +
    sqrt(2) (giant steps).  The bound returned, 1.5 * 2^b * sum_j e_j +
    1.5 * (giant steps), covers it.
    """
    n = len(exponents)
    if not n:
        return 0, 0, 0.0
    qr, qi = q
    one = 1 << w
    e_max = exponents[-1]
    baby_r, baby_i, big_r, big_i = powers
    m = len(baby_r)
    reach = 2 * max(e_max, m)
    if not (exponents[0] >= 0 and reach < one
            and qr * qr + qi * qi <= (one - reach) ** 2):
        raise DomainError("series point or exponents outside the kernel's range")
    if not all(map(le, exponents, exponents[1:])):
        raise DomainError("series exponents must be nondecreasing")
    local = [e % m for e in exponents]
    terms_r = list(map(mul, coeffs, map(baby_r.__getitem__, local)))
    terms_i = list(map(mul, coeffs, map(baby_i.__getitem__, local)))
    top = e_max // m
    acc_r = acc_i = 0
    hi = n
    for k in range(top, -1, -1):
        lo = bisect_left(exponents, k * m, 0, hi)
        # a giant step; at the top the sum is still 0 and the product exact
        acc_r, acc_i = (((acc_r * big_r - acc_i * big_i) >> w) + sum(terms_r[lo:hi]),
                        ((acc_r * big_i + acc_i * big_r) >> w) + sum(terms_i[lo:hi]))
        hi = lo
    return acc_r, acc_i, 1.5 * 2.0**coeff_bits * sum(exponents) + 1.5 * top
