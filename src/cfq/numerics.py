"""Polynomials from complex roots and certified rounding to integers.

Values are plain `mpmath.mpc` numbers.  Every function takes the working
precision in bits as an explicit `prec` argument and returns values rounded
to it; arithmetic on a returned value outside an `mp.workprec` block runs at
mpmath's global precision (53 bits by default).  The module builds monic
polynomials from their roots and rounds near-integer coefficient vectors.

`certify_int_poly` turns roots known within radii into an integer
polynomial with a proof: if each true root t_i lies within
eps_i = 2^radius_log2 * max(1, |v_i|) of the computed v_i, every true
coefficient lies within R_k of the computed one, where R_k is the degree-k
coefficient of

    prod(x + |v_i| + eps_i) - prod(x + |v_i|) + 8h 2^-prec prod(x + |v_i|),

the second term bounding the rounding inside `poly_from_roots` (h roots, 2h
roundings of at most 2^(1-prec) each along every product).  These are
evaluated in integers with every rounding directed upward, plus 2^-prec for
the rounding of the residual.  A coefficient ball of radius R_max around a
value within 1/2 - R_max of an integer holds that integer and no other.

`_fixed_series` is the one series-summation loop of the package: the eta
pentagonal series and the two series of a theta quotient are all summed by
it, in integers at scale 2^w, with a proven bound on its rounding.  A short
series (eta's, and any of at most 2 (isqrt(e_max) + 1) terms) takes its
powers along an addition sequence, a full product or more per term.  A long one
is cut into blocks of m = isqrt(e_max) + 1 exponents (rectangular
splitting): the powers q^0 .. q^(m-1) are built once, each block is an
exact integer dot product with them, and Horner's rule in q^m joins the
blocks, so a dense series of K terms takes about 2 sqrt(K) full products
instead of K.  The proof of the bound is in the `_fixed_series` docstring.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import chain
from math import isqrt
from operator import le, mul, sub

import mpmath
from mpmath import mp
from mpmath.libmp import from_man_exp

from .errors import DomainError, RoundingFailureError
from .exactpoly import IntPoly

# guard bits above the requested precision, for eta and for evaluate
_GUARD = 48

# the lowest working precision any request may ask for
MIN_PREC_BITS = 64

__all__ = [
    "MIN_PREC_BITS",
    "PrecisionPolicy",
    "poly_from_roots",
    "round_to_int_poly",
    "certify_int_poly",
]


@dataclass(frozen=True)
class PrecisionPolicy:
    """Escalation contract for assembling integer polynomials.

    Start at `start_bits`, by default the 64-bit floor, and accept the first
    round whose every coefficient ball, built from the error bound of each
    root, contains exactly one integer (`certify_int_poly`); otherwise double
    the precision, up to `max_bits`.
    """

    start_bits: int = MIN_PREC_BITS
    max_bits: int = 16384

    def __post_init__(self):
        if self.start_bits < MIN_PREC_BITS:
            raise DomainError(
                f"precision must be at least {MIN_PREC_BITS} bits, got {self.start_bits}"
            )
        if self.max_bits < self.start_bits:
            raise DomainError(
                f"max_bits {self.max_bits} is below start_bits {self.start_bits}"
            )


def poly_from_roots(values, prec: int) -> list[mpmath.mpc]:
    """Monic polynomial with the given roots, lowest degree first, at prec bits."""
    if not values:
        raise DomainError("need at least one root")
    with mp.workprec(prec):
        coeffs = [mp.mpc(1)]
        for r in values:
            # multiply by (x - r): c'_k = c_(k-1) - r * c_k
            nxt = [mp.mpc(0)] + coeffs
            coeffs = [nxt[k] - coeffs[k] * r for k in range(len(coeffs))] + [nxt[-1]]
    return coeffs


def round_to_int_poly(coeffs, tol, prec: int) -> tuple[IntPoly, mpmath.mpf]:
    """Round coefficients to nearest integers; fail if any is off by >= tol.

    The residual is the largest complex distance from a coefficient to its
    rounded value (imaginary parts count in full), computed at prec + 8 bits.
    """
    tol = mpmath.mpf(tol)
    if tol <= 0:
        raise DomainError("tolerance must be positive")
    rounded = []
    with mp.workprec(prec + 8):
        residual = mp.mpf(0)
        for c in coeffs:
            n = int(mpmath.nint(c.real))
            residual = max(residual, mp.hypot(c.real - n, c.imag))
            rounded.append(n)
    if residual >= tol:
        raise RoundingFailureError(residual, tol)
    return IntPoly(rounded), residual


def certify_int_poly(
    values, radius_log2: int, prec: int
) -> tuple[IntPoly, mpmath.mpf, mpmath.mpf]:
    """The integer polynomial prod(x - t_i), given v_i within eps_i of t_i.

    eps_i = 2^radius_log2 * max(1, |values[i]|).  Returns (poly, residual,
    R_max): the residual of `round_to_int_poly` and the largest coefficient
    radius (module docstring), an exact binary fraction.  Raises
    RoundingFailureError unless the residual is below 1/2 - R_max, so that
    every coefficient ball contains exactly one integer.
    """
    coeffs = poly_from_roots(values, prec)
    poly, residual = round_to_int_poly(coeffs, 0.5, prec)
    r_max = _coefficient_radius(values, radius_log2, prec)
    tol = mp.fsub(0.5, r_max, exact=True)
    if residual >= tol:
        raise RoundingFailureError(residual, tol)
    return poly, residual, r_max


def _coefficient_radius(values, radius_log2: int, prec: int) -> mpmath.mpf:
    """R_max of the module docstring, rounded up to a multiple of 2^-s."""
    s = prec + 8
    low, high, plain = [], [], []
    for v in values:
        re_lo, re_hi = _scaled(v.real, s)
        im_lo, im_hi = _scaled(v.imag, s)
        lo = isqrt(re_lo * re_lo + im_lo * im_lo)     # <= |v| 2^s
        hi = isqrt(re_hi * re_hi + im_hi * im_hi) + 1  # >= |v| 2^s
        eps = _shift_up(max(1 << s, hi), radius_log2)  # >= eps 2^s
        low.append(lo)
        high.append(hi + eps)
        plain.append(hi)
    h = len(values)
    # coefficient k of prod(x + a_i 2^s) carries the scale 2^(s(h-k))
    perturbed, base, upper = _expand(high), _expand(low), _expand(plain)
    r_max = 0
    for k in range(h):
        radius = perturbed[k] - base[k] + _shift_up(8 * h * upper[k], -prec)
        r_max = max(r_max, _shift_up(radius, -s * (h - k - 1)))
    # plus the residual's own rounding
    return mp.make_mpf(from_man_exp(r_max + (1 << (s - prec)), -s))


def _scaled(x: mpmath.mpf, s: int) -> tuple[int, int]:
    """floor and ceiling of |x| * 2^s, exactly."""
    _sign, man, exp, _bc = x._mpf_
    shift = exp + s
    if shift >= 0:
        return man << shift, man << shift
    return man >> -shift, -(-man >> -shift)


def _shift_up(n: int, k: int) -> int:
    """ceiling of n * 2^k for n >= 0."""
    return n << k if k >= 0 else -(-n >> -k)


def _expand(roots: list[int]) -> list[int]:
    """Coefficients of prod(x + r), lowest degree first, in integers."""
    coeffs = [1]
    for r in roots:
        coeffs = [a * r + b for a, b in zip(coeffs + [0], [0] + coeffs)]
    return coeffs


def _to_fixed(x: mpmath.mpf, w: int) -> int:
    """x * 2^w truncated toward zero: within 1 of it."""
    sign, man, exp, _bc = x._mpf_
    shift = exp + w
    n = man << shift if shift >= 0 else man >> -shift
    return -n if sign else n


def _fixed_series(q, exponents, coeffs, coeff_bits: int, w: int) -> tuple[int, int, float]:
    """sum_j coeffs[j] q^exponents[j] in integers at scale 2^w, and its rounding bound.

    q = (qr + i qi) 2^-w is given by its scaled components (qr, qi).
    exponents is a nondecreasing sequence of integers >= 0; coeffs is a
    sequence holding one integer of modulus at most 2^coeff_bits per
    exponent.  Returns (sr, si, bound) with

        |(sr + i si) 2^-w - sum_j coeffs[j] q^exponents[j]| <= bound 2^-w,

    the sum taken at q exactly.  The caller adds its truncation tail and the
    error in q.

    Every product of two scaled numbers is truncated toward -infinity,
    within sqrt(2) of its value.  If approximations of x and y, |x|, |y| <=
    1, are within a and b, their product is within a|y| + b|x| + ab + sqrt(2),
    which is at most a + b + sqrt(2) when |q| + b 2^-w <= 1.  The premise
    holds because |q| <= 1 - 2 e_max 2^-w, which is checked in integers
    before any term is summed.

    The terms are split into blocks of m = isqrt(e_max) + 1 exponents,
    block k holding the exponents km .. km + m - 1 (rectangular splitting,
    Paterson and Stockmeyer 1973), and one block is used whenever the n
    terms number at most 2m: the pentagonal series of eta, whose n is
    about 1.6 sqrt(e_max), and every short series.

    One block.  Each power is the previous one times q^(e_{j+1} - e_j), and
    each such difference power q^n is q^(n//2) q^(n - n//2), kept once
    built: an addition sequence (Enge, Hart and Johansson 2018).  By
    induction along it the computed q^e is within sqrt(2) (e - 1) of the
    true one (e >= 1; q^0 = 1 and the products with it are exact), so the
    sum is within sqrt(2) sum_j |c_j| e_j.

    Several blocks.  The baby steps q^0 .. q^(m-1) and Q = q^m are the
    same chain with step 1, so q^i is within sqrt(2) (i - 1) for i >= 1 and
    Q within sqrt(2) (m - 1).  Each block sum sum_i c_(km+i) q^i is an exact
    integer dot product, within sqrt(2) 2^b sum_i max(0, i - 1) of its true
    value, b = coeff_bits.  Horner's rule in Q combines the blocks from the
    top down, one truncated product per block below the top: a giant step.
    The partial sum H above block k has a true value S of modulus at most
    2^b times the number of terms it holds, since |q| <= 1, and |Q| <= 2^w
    by the premise, as sqrt(2) (m - 1) < 2 e_max.
    So H Q 2^-w is within err(H) + |S| sqrt(2) (m - 1) of S q^m 2^w, and the
    giant step adds sqrt(2) for its truncation.  A term of block k thus
    carries sqrt(2) 2^b (max(0, i - 1) + k (m - 1)) <= sqrt(2) 2^b e, and
    the sum is within sqrt(2) 2^b sum_j e_j + sqrt(2) (giant steps).

    Either way the bound returned, 1.5 * 2^b * sum_j e_j + 1.5 * (giant
    steps), covers it; with one block it is the first term alone.
    """
    n = len(exponents)
    if not n:
        return 0, 0, 0.0
    qr, qi = q
    one = 1 << w
    e_max = exponents[-1]
    if not (exponents[0] >= 0 and 2 * e_max < one
            and qr * qr + qi * qi <= (one - 2 * e_max) ** 2):
        raise DomainError("series point or exponents outside the kernel's range")
    bound = 1.5 * 2.0**coeff_bits * sum(exponents)
    m = isqrt(e_max) + 1
    if n > 2 * m:
        if not all(map(le, exponents, exponents[1:])):
            raise DomainError("series exponents must be nondecreasing")
        # baby steps q^0 .. q^(m-1), then Q = q^m
        baby_r, baby_i = [one], [0]
        for _ in range(m):
            pr, pi = baby_r[-1], baby_i[-1]
            baby_r.append((pr * qr - pi * qi) >> w)
            baby_i.append((pr * qi + pi * qr) >> w)
        big_r, big_i = baby_r.pop(), baby_i.pop()
        top = e_max // m
        cuts = [bisect_left(exponents, k * m) for k in range(top + 1)] + [n]
        acc_r = acc_i = 0
        for k in range(top, -1, -1):
            if k < top:
                acc_r, acc_i = ((acc_r * big_r - acc_i * big_i) >> w,
                                (acc_r * big_i + acc_i * big_r) >> w)
            lo, hi = cuts[k], cuts[k + 1]
            block, local = coeffs[lo:hi], exponents[lo:hi]
            powers_r = [baby_r[e - k * m] for e in local]
            powers_i = [baby_i[e - k * m] for e in local]
            acc_r += sum(map(mul, block, powers_r))
            acc_i += sum(map(mul, block, powers_i))
        return acc_r, acc_i, bound + 1.5 * top
    table = {0: (one, 0), 1: (qr, qi)}

    def power(k):
        # q^k, built from halves; a negative k is a decreasing exponent
        p = table.get(k)
        if p is None:
            if k < 0:
                raise DomainError("series exponents must be nondecreasing")
            (ar, ai), (br, bi) = power(k // 2), power(k - k // 2)
            p = table[k] = ((ar * br - ai * bi) >> w, (ar * bi + ai * br) >> w)
        return p

    steps = [power(k) for k in map(sub, exponents, chain((0,), exponents))]
    pr, pi = one, 0
    acc_r = acc_i = 0
    for c, (dr, di) in zip(coeffs, steps):
        pr, pi = (pr * dr - pi * di) >> w, (pr * di + pi * dr) >> w
        if c:
            acc_r += c * pr
            acc_i += c * pi
    return acc_r, acc_i, bound
