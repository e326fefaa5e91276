"""Certified integer polynomials, the series kernel and fixed-point arithmetic.

Every function takes its precision in bits as an argument, and all
arithmetic is in integers: values are `Ball`s, the residual and the radius
of a certified rounding exact dyadic `Fraction`s.

`certify_int_poly` turns roots known within radii into an integer
polynomial with a proof (after Enge, Math. Comp. 78, 2009).  Each value v_i
is rounded once to the nearest V_i on the grid 2^-s, s = prec + 8, so
|V_i - v_i| < 2^-s, and the V_i are grouped once (`_group_roots`) into
real roots, exact conjugate pairs and lone roots.  prod(x - V_i) is
multiplied out exactly: a real V_i as a real linear factor, a pair as one
real quadratic, a lone V_i in Gaussian integers (`_expand`).  If each true
root t_i lies within eps_i = 2^radius_log2 * max(1, |v_i|) of v_i, it lies
within eps_i' = eps_i + 2^-s of V_i, and every true coefficient lies within
R_k of the exact one, where R_k is the degree-k coefficient of

    prod(x + |V_i| + eps_i') - prod(x + |V_i|),

evaluated in integers with every rounding directed upward, a pair's two
equal factors in each product as one real quadratic.  Each coefficient is
rounded to the nearest integer and its distance from it, imaginary part
included, computed exactly.  A coefficient ball of radius R_max around a
value within 1/2 - R_max of an integer holds that integer and no other;
the comparison residual + R_max < 1/2 is made in integers.

`_fixed_series` is the one series-summation loop of the package: the eta
pentagonal series, the three series of a theta quotient and the Taylor
series of exp are all summed by it, in integers at scale 2^w, with a
proven bound on its rounding.  A series is a `_SeriesTable`: its
exponents, its coefficients, and per prefix the sum of its exponents and
the least b with every coefficient |c| <= 2^b, checked and computed once
when it is built (one coefficient per exponent, the exponents
nondecreasing from 0 or above) and cached per process with the series it
holds, never with a request's key or point.  The kernel takes a table, a
count and a set of powers, and nothing else: it sums the table's first
count terms, reads the point and the scale from the powers and the
coefficient bound from the table, so no caller states any of them, and
checks only what depends on the call: the count, the point's premise and
the lane of each block.  Every series is cut into blocks of m exponents
(rectangular splitting): the caller builds the powers q^0 .. q^(m-1) and
q^m once (`_powers`) and chooses m, each block is an exact integer dot
product with them, and Horner's rule in q^m joins the blocks.  Eta takes
m = isqrt(e_max) + 1; the theta quotient sums its three
series against one set, so that a dense series of K terms takes about
m + K/m full products instead of K.  Each baby power is packed as one
integer, its imaginary part in a lane above its real part, so a block is
one integer sum, read back into its two parts exactly once before its
giant step.  Each step of the chain of powers and each giant step is one
complex product in three integer products, which give the same exact
integers as four.  The proof of the bound holds for any m, and the proof
that the lanes never carry into each other is in the `_fixed_series`
docstring.

A `Ball` (re + i im) 2^exp is within rad units of 2^-w of its modulus, w
the scale of the operations that made it, each leaving |re + i im| >= 2^w,
so a truncation is below sqrt(2) units, charged 1.5.  Radii add: to first
order, and the second-order terms fit in the 0.08 each 1.5 leaves while
radii are below 2^(w-5), far above what callers accept.  pi, ln 2, sqrt(n)
and exp carry proven bounds (Brent and Zimmermann, Modern Computer
Arithmetic, 2010, ch. 4).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import isqrt
from operator import le, mul
from typing import NamedTuple

from .errors import DomainError, RoundingFailureError
from .exactpoly import IntPoly, _Record

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


class PrecisionPolicy(_Record):
    """The working precision of a class polynomial's one round.

    `start_bits`, by default the 64-bit floor, from MIN_PREC_BITS to
    MAX_PREC_BITS; the round's values are evaluated at it and the rounding
    is certified once (`certify_int_poly`).
    """

    __slots__ = ("start_bits",)

    def __init__(self, start_bits: int = MIN_PREC_BITS):
        _check_prec(start_bits)
        object.__setattr__(self, "start_bits", start_bits)


def _check_prec(prec) -> None:
    """DomainError unless prec is an integer from MIN_PREC_BITS to MAX_PREC_BITS."""
    if not (isinstance(prec, int) and MIN_PREC_BITS <= prec <= MAX_PREC_BITS):
        raise DomainError(f"precision must be from {MIN_PREC_BITS} to {MAX_PREC_BITS} "
                          f"bits, got {prec!r}")


def certify_int_poly(values, radius_log2: int, prec: int) -> tuple[IntPoly, Fraction, Fraction]:
    """The integer polynomial prod(x - t_i), given `Ball`s v_i within eps_i of t_i.

    eps_i = 2^radius_log2 * max(1, |values[i]|); the balls' radii are not
    read.  Returns (poly, residual, R_max): the largest complex distance
    from a coefficient of prod(x - V_i) to its rounded value, rounded up to
    prec bits, and the largest coefficient radius (module docstring), both
    exact dyadic fractions.  Raises RoundingFailureError unless
    residual + R_max < 1/2, so that every coefficient ball contains exactly
    one integer; the comparison is made in integers, on the exact residual.
    The products are exact, the values' by `_expand` and the two of R_max
    in real integers, so the triple does not depend on the values' order.
    """
    if not values:
        raise DomainError("need at least one root")
    s, h = prec + 8, len(values)
    roots = _group_roots([(_nearest(v.re, v.exp + s), _nearest(v.im, v.exp + s))
                          for v in values])
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
    # the residual rounded up to prec bits
    cut = max(residual.bit_length() - prec, 0)
    residual_up = Fraction(_shift_up(residual, -cut) << cut, 1 << s * h)
    if tol <= 0 or dist2 >= tol * tol:
        raise RoundingFailureError(residual_up, Fraction(tol, 1 << s * h))
    return IntPoly(rounded + [1]), residual_up, Fraction(r_max, 1 << s)


def _coefficient_radius(roots, radius_log2: int, s: int) -> int:
    """R_max of the module docstring times 2^s, rounded up, for `_group_roots` of V_i 2^s.

    A conjugate pair shares |V| and eps, so its two linear factors in each
    product are one real quadratic (x + c)^2: the same exact integers.
    """
    reals, pairs, lone = roots
    upper = base = [1]
    for x, y in pairs:
        a, b = _radius_terms(x, y, radius_log2, s)
        upper, base = _times_quadratic(upper, 2 * b, b * b), _times_quadratic(base, 2 * a, a * a)
    for x, y in [(x, 0) for x in reals] + lone:
        a, b = _radius_terms(x, y, radius_log2, s)
        upper, base = _times_linear(upper, b), _times_linear(base, a)
    h = len(upper) - 1
    return max(_shift_up(upper[k] - base[k], -s * (h - k - 1)) for k in range(h))


def _radius_terms(x: int, y: int, radius_log2: int, s: int) -> tuple[int, int]:
    """(a, a + eps) for the root V 2^s = x + i y: a >= |V| 2^s and eps >= eps_i' 2^s."""
    a = _isqrt_up(x * x + y * y)
    # |v| <= |V| + 2^-s, and V is within 2^-s of v
    return a, a + _shift_up(max(1 << s, a + 1), radius_log2) + 1


def _nearest(x: int, shift: int) -> int:
    """x * 2^shift rounded to the nearest integer, ties away from zero."""
    if shift >= 0:
        return x << shift
    n = ((abs(x) >> (-shift - 1)) + 1) >> 1
    return -n if x < 0 else n


def _isqrt_up(n: int) -> int:
    """ceiling of sqrt(n) for n >= 0."""
    r = isqrt(n)
    return r + (r * r < n)


def _shift_up(n: int, k: int) -> int:
    """ceiling of n * 2^k for n >= 0."""
    return n << k if k >= 0 else -(-n >> -k)


def _group_roots(roots: list[tuple[int, int]]):
    """(reals, pairs, lone) of the roots X + iY: each real root's X, one (X, Y) of each
    exact conjugate pair, and the complex roots left over, each once per multiplicity."""
    reals, pairs, lone = [], [], Counter()
    for x, y in roots:
        if not y:
            reals.append(x)
        elif lone[x, -y]:
            lone[x, -y] -= 1
            pairs.append((x, y))
        else:
            lone[x, y] += 1
    return reals, pairs, list(lone.elements())


def _expand(roots) -> tuple[list[int], list[int]]:
    """Real and imaginary parts of the coefficients of prod(x - (X + iY)), lowest first.

    roots is `_group_roots` of the roots: a real root is multiplied in as
    the real factor x - X, a conjugate pair as the one real factor
    x^2 - 2X x + X^2 + Y^2; only the lone roots are complex factors.  The
    product is exact, so the grouping changes no coefficient.
    """
    reals, pairs, lone = roots
    re = [1]
    for x in reals:
        re = _times_linear(re, -x)
    for x, y in pairs:
        re = _times_quadratic(re, -2 * x, x * x + y * y)
    im = [0] * len(re)
    for x, y in lone:
        # multiply by (x - r): c'_k = c_(k-1) - r c_k
        re, im = ([b - a * x + c * y for a, c, b in zip(re + [0], im + [0], [0] + re)],
                  [d - a * y - c * x for a, c, d in zip(re + [0], im + [0], [0] + im)])
    return re, im


def _times_linear(p: list[int], c: int) -> list[int]:
    """p times x + c, coefficients lowest first."""
    return [b + c * a for a, b in zip(p + [0], [0] + p)]


def _times_quadratic(p: list[int], b: int, c: int) -> list[int]:
    """p times x^2 + b x + c, coefficients lowest first: c'_k = c_(k-2) + b c_(k-1) + c c_k."""
    return [e + b * d + c * a for a, d, e in zip(p + [0, 0], [0] + p + [0], [0, 0] + p)]


class Ball(NamedTuple):
    """(re + i im) 2^exp, within rad units of 2^-w of its modulus (module docstring)."""

    re: int
    im: int
    exp: int
    rad: float


def _bits(z: Ball) -> int:
    return max(abs(z.re), abs(z.im)).bit_length()


def _normal(x: int, y: int, e: int, rad: float, w: int) -> Ball:
    """(x + i y) 2^e with its larger part w + 1 bits long; a shift down adds 1.5."""
    if (s := max(abs(x), abs(y)).bit_length() - w - 1) > 0:
        return Ball(x >> s, y >> s, e + s, rad + 1.5)
    return Ball(x << -s, y << -s, e + s, rad)


def _mul(a: Ball, b: Ball, w: int) -> Ball:
    return _normal(a.re * b.re - a.im * b.im, a.re * b.im + a.im * b.re,
                   a.exp + b.exp, a.rad + b.rad, w)


def _pow(z: Ball, r: int, w: int) -> Ball:
    """z^r for r >= 1 by repeated squaring."""
    out = z if r & 1 else None
    while r := r >> 1:
        z = _mul(z, z, w)
        if r & 1:
            out = z if out is None else _mul(out, z, w)
    return out


def _div(a: Ball, b: Ball, w: int) -> Ball:
    """a / b by `_quotient`, both parts floored once."""
    x, y, s = _quotient(a.re, a.im, b.re, b.im, w)
    return Ball(x, y, a.exp - b.exp - s, a.rad + b.rad + 1.5)


def _quotient(ar: int, ai: int, br: int, bi: int, w: int) -> tuple[int, int, int]:
    """(x, y, s): (a / b) 2^s with both parts floored, |a / b| 2^s >= 2^(w + 1/2), b nonzero.

    a conj(b) / |b|^2 with s = w + 2 + bits(b) - bits(a), bits the length of
    the larger part: |a| >= 2^(bits(a) - 1) and |b| < 2^(bits(b) + 1/2).  The
    floors are within sqrt(2) units of the last place, so within
    |a / b| 2^-w of the quotient.
    """
    d = br * br + bi * bi
    x, y = ar * br + ai * bi, ai * br - ar * bi
    s = w + 2 + max(abs(br), abs(bi)).bit_length() - max(abs(ar), abs(ai)).bit_length()
    if s >= 0:
        return (x << s) // d, (y << s) // d, s
    return x // (d << -s), y // (d << -s), s


def _csqrt(z: Ball, w: int) -> Ball:
    """The principal square root of a nonzero z; the radius halves and gains 3.

    X + iY, the mantissa shifted up to |X + iY| >= 2^(2w+1) and an even
    exponent: for X >= 0, Re = sqrt((|X + iY| + X)/2) >= |root| / sqrt(2)
    comes from two isqrt within 1.001, Im = Y / (2 Re) from one floor within
    1.001 sqrt(2) + 1, for X < 0 the other way round; |root| >= 2^w.
    """
    t = 2 * w + 2 - _bits(z)
    t += (z.exp - t) & 1
    x, y = z.re << t, z.im << t
    big = isqrt((isqrt(x * x + y * y) + abs(x)) >> 1)
    re, im = (big, y // (2 * big)) if x >= 0 else (abs(y) // (2 * big), big if y >= 0 else -big)
    return Ball(re, im, (z.exp - t) >> 1, z.rad / 2 + 3)


def _sum(terms, w: int) -> Ball:
    """The sum of balls, its radius in units of 2^-w max(1, |sum|).

    Each term is moved to the exponent e = max(top, 0) - w - 1 (2^(top - 1)
    <= its largest), exactly or by a truncation within sqrt(2) 2^e, charged
    1.5, and its radius weighted by |term| / max(1, |sum|), cancelled or not.
    """
    top = max((t.exp + _bits(t) for t in terms if t.re or t.im), default=0)
    e = max(top, 0) - w - 1
    x = y = shifted = 0
    for t in filter(_bits, terms):
        s = t.exp - e
        if s >= 0:
            x, y = x + (t.re << s), y + (t.im << s)
        else:
            x, y = x + (t.re >> -s), y + (t.im >> -s)
            shifted += 1
    total = _mag(x, y, e)
    scale = total if _ratio(total, (1.0, 0)) >= 1 else (1.0, 0)
    rad = sum(t.rad * _ratio(_mag(t.re, t.im, t.exp), scale) for t in terms if t.rad)
    if shifted:
        rad += 1.5 * shifted * _ratio((1.0, max(top, 0) - 1), scale)
    return Ball(x, y, e, rad)


def _mag(x: int, y: int, e: int) -> tuple[float, int]:
    """|x + i y| 2^e = f 2^k as (f, k), f a double below 2^65 within 2^-50 of its value."""
    s = max(max(abs(x), abs(y)).bit_length() - 64, 0)
    return math.hypot(x >> s, y >> s), e + s


def _ratio(a: tuple[float, int], b: tuple[float, int]) -> float:
    """a / b for two `_mag` pairs, b nonzero, rounded up by 1 + 2^-40; inf past 2^960."""
    k = a[1] - b[1]
    return math.ldexp(a[0] / b[0] * (1 + 2.0**-40), k) if k < 900 or not a[0] else math.inf


def _fixed(z: Ball, w: int) -> tuple[int, int]:
    """The parts of z at scale 2^w, each truncated within 1."""
    return (z.re << s, z.im << s) if (s := z.exp + w) >= 0 else (z.re >> -s, z.im >> -s)


def _round(z: Ball, prec: int, rad: float) -> Ball:
    """z with each part rounded to the nearest prec-bit number, ties to even, and radius rad.

    The result is in lowest terms (`_lowest`), so that one value has one
    (re, im, exp) whatever exponent z carried.
    """
    parts = []
    for x in (z.re, z.im):
        cut = abs(x).bit_length() - prec
        if cut <= 0:
            parts.append((x, z.exp))
            continue
        n, rest = divmod(abs(x), 1 << cut)
        n += rest > 1 << (cut - 1) or (rest == 1 << (cut - 1) and n & 1)
        parts.append((-n if x < 0 else n, z.exp + cut))
    (x, ex), (y, ey) = parts
    e = min(ex, ey)
    return _lowest(x << (ex - e), y << (ey - e), e, rad)


def _lowest(x: int, y: int, e: int, rad: float) -> Ball:
    """(x + i y) 2^e in lowest terms: at least one part odd, and zero as (0, 0, 0)."""
    if not (x or y):
        return Ball(0, 0, 0, rad)
    zeros = ((x | y) & -(x | y)).bit_length() - 1
    return Ball(x >> zeros, y >> zeros, e + zeros, rad)


def _arctan_inv(x: int, s: int, sign: int) -> int:
    """arctan(1/x) 2^s (sign -1) or artanh(1/x) 2^s (sign 1), x >= 3, within 1.35 (n + 2).

    Each of the n < s powers 2^s / x^(2k+1) is floored from the one before,
    each term once more, and the tail is below 1; len(w) + 5 guard bits
    cover 20 such bounds.
    """
    power = (1 << s) // x
    total, k, x2 = power, 1, x * x
    while power:
        power //= x2
        total += (sign if k % 2 else 1) * (power // (2 * k + 1))
        k += 1
    return total


@lru_cache(maxsize=64)
def _pi(w: int) -> int:
    """pi 2^w within 2, by Machin's formula pi = 16 arctan(1/5) - 4 arctan(1/239)."""
    s = w + w.bit_length() + 5
    return (16 * _arctan_inv(5, s, -1) - 4 * _arctan_inv(239, s, -1)) >> (s - w)


@lru_cache(maxsize=64)
def _ln2(w: int) -> int:
    """ln 2 * 2^w within 2, as 2 artanh(1/3)."""
    return (2 * _arctan_inv(3, w + w.bit_length() + 5, 1)) >> (w.bit_length() + 5)


@lru_cache(maxsize=64)
def _root(n: int, w: int) -> int:
    """sqrt(n) 2^w truncated, within 1."""
    return isqrt(n << 2 * w)


@lru_cache(maxsize=64)
def _exp_plan(w: int) -> tuple[int, int, _SeriesTable]:
    """(j, g, table) for `_exp` at scale 2^w: the argument over 2^j, g guard bits, and
    the series sum_(i <= n) (n!/i!) z^i as a `_SeriesTable`.

    j = isqrt(w) timed best at w = 1072; n is the least with |z|^(n+1)/(n+1)!
    <= 2^-(w+j+25), |z| <= 4.1 2^-j, and n! < 2^704 at every scale used.
    """
    j = max(4, isqrt(w))
    n = 1
    while (n + 1) * (j - 2.04) + math.lgamma(n + 2) / math.log(2) < w + j + 25:
        n += 1
    coeffs = [1]
    for i in range(n, 0, -1):
        coeffs.append(coeffs[-1] * i)
    return (j, j + (2 * n * (n + 1) + 8).bit_length() + 3,
            _SeriesTable(range(n + 1), reversed(coeffs)))


def _exp(x: int, y: int, w: int) -> Ball:
    """exp((x + i y) 2^-w) for integers x, y with |y| <= 4 * 2^w, as a ball at scale 2^w.

    At s = w + g bits, x = k ln 2 + r, 0 <= r < ln 2, comes out as 2^k (r
    within 2|k| units).  z = (r + i y) / 2^j, truncated within sqrt(2), has
    |exp(z)| >= 1; n!^-1 sum (n!/i!) z^i is summed by the kernel and
    divided by n! > 2^(b-1), b the table's coefficient bound, with one
    floor, within bound 2^(1-b) + 1 + 1.01 sqrt(2) and the tail 1.  Each of
    the j squarings, modulus in [1, 2), doubles the relative error and adds
    sqrt(2): 2^j (bound 2^(1-b) + 5.5) units of 2^-s, below 1/8 unit of
    2^-w; the shift down to 2^w adds 1.5.  That bound is a worst case no
    test reaches: before the shift, the errors of 3,000 random arguments at
    w = 112 to 1072 stayed below 1/75 of it, and the shift's truncation,
    below sqrt(2), is charged 1.5.  Tests pin the guard bits through the
    bound itself, 0.07 to 0.093 unit, hold it in the radius by growing the
    kernel's bound, and pin ln 2's 2|k|, which exp(-2^60) reaches to half,
    as ln 2 is floored within 1.
    """
    if abs(y) > 4 << w:
        raise DomainError("exp needs |Im| <= 4")
    j, g, table = _exp_plan(w)
    count, factorial, b = len(table.exps), table.coeffs[0], table.bits[-1]
    s = w + g
    x, ln2 = x << g, _ln2(s)
    k = x // ln2
    z = ((x - k * ln2) >> j, (y << g) >> j)
    sr, si, bound = _fixed_series(table, count, _powers(z, isqrt(count - 1) + 1, s))
    sr, si = sr // factorial, si // factorial
    for _ in range(j):
        sr, si = ((sr + si) * (sr - si)) >> s, (sr * si) >> (s - 1)
    rad = math.ldexp(math.ldexp(bound, 1 - b) + 5.5, j - g) + math.ldexp(abs(k), 1 - g)
    return _normal(sr, si, k - s, rad, w)


def _exp_i_pi(u: int, v: int, t: int, n: int, w: int) -> Ball:
    """exp(pi i (u + v sqrt(-n)) / t) as a ball at scale 2^w, for integers t, n > 0.

    The argument, from pi within 2 and sqrt(n) within 1 by one floor a part,
    is within d = (2 sqrt(n) + pi) |v| / t + 2 |u| / t + 2 units, which moves
    the value by a relative |e^d - 1| <= d e^(d 2^-w); |v| sqrt(n) / t is
    taken from v^2 n / t^2, which fits a double where callers checked Im.
    """
    pi, root = _pi(w), _root(n, w)
    z = _exp(-((pi * root * v) // (t << w)), (pi * u) // t, w)
    d = 2 * math.sqrt(v * v * n / (t * t)) + 3.15 * (abs(v) / t) + 2 * abs(u) / t + 2
    return Ball(z.re, z.im, z.exp, z.rad + d * math.exp(min(math.ldexp(d, -w), 700.0)))


@lru_cache(maxsize=64)
def _zeta24(b: int, w: int) -> Ball:
    """exp(pi i b / 12), -12 <= b <= 11, as a ball at scale 2^w: `_exp_i_pi` at an exact
    argument, |Im| <= pi, with its proven radius."""
    return _exp_i_pi(b, 0, 12, 1, w)


def _powers(q, m: int, w: int) -> tuple[tuple[int, int], int, list[int], int, int, int]:
    """(q, w, baby, lane, big_r, big_i): q^0 .. q^(m-1) packed, and Q = q^m, at scale 2^w.

    q = (qr + i qi) 2^-w is given by its scaled parts (qr, qi), and the
    tuple starts with the q and the w it was built from, which the kernel
    reads as its point and its scale.  q^1 is q, and each power above it
    is the one before times q, a truncated product, so q^i is within
    sqrt(2) (i - 1) of its value for i >= 1 while |q| <= 1 - 2 m 2^-w (the
    kernel's premise).  A step from p = pr + i pi takes three products,
    k = qr (pr + pi), then k - pi (qr + qi) = pr qr - pi qi and
    k + pr (qi - qr) = pr qi + pi qr: the same exact integers as the four
    products, floored the same.  The baby power x + i y is the one integer
    x + y 2^lane, lane = w + floor(w/4) + 128, so that the kernel sums a
    block of terms as one dot product; Q, which eta reads alone, is not
    packed.
    """
    qr, qi = q
    qs, qd = qr + qi, qi - qr
    lane = w + (w >> 2) + 128
    baby = [1 << w]
    pr, pi = q
    for _ in range(m - 1):
        baby.append(pr + (pi << lane))
        k = qr * (pr + pi)
        pr, pi = (k - pi * qs) >> w, (k + pr * qd) >> w
    return q, w, baby, lane, pr, pi


class _SeriesTable(_Record):
    """A series sum_j coeffs[j] q^exps[j] as `_fixed_series` sums it, checked once.

    `exps` are nondecreasing integers from e_0 >= 0 and `coeffs` one
    integer per exponent, both tuples.  For the first k terms, `sums[k]` =
    e_0 + ... + e_(k-1) is the exponent sum the kernel's bound takes, and
    `bits[k]` the least b >= 0 with |c_j| <= 2^b for every j < k, the
    coefficient bound its bound and its lane room take.  A table
    depends on its series only, so each is built once per process and
    cached with what it depends on: exp's Taylor coefficients with
    `_exp_plan`, the pentagonal series and its copies in q^N with
    `eta._pentagonal`, the theta numerator with `hauptmodul._theta_numerator`.
    """

    __slots__ = ("exps", "coeffs", "sums", "bits")

    def __init__(self, exps, coeffs):
        exps, coeffs = tuple(exps), tuple(coeffs)
        if len(exps) != len(coeffs):
            raise DomainError(f"a series needs one coefficient per exponent, got "
                              f"{len(coeffs)} for {len(exps)}")
        if exps and exps[0] < 0:
            raise DomainError(f"series exponents must be >= 0, got {exps[0]}")
        if not all(map(le, exps, exps[1:])):
            raise DomainError("series exponents must be nondecreasing")
        self._set_fields(exps, coeffs, tuple(accumulate(exps, initial=0)),
                         tuple(accumulate((max(abs(c) - 1, 0).bit_length() for c in coeffs),
                                          max, initial=0)))


def _fixed_series(table: _SeriesTable, count: int, powers) -> tuple[int, int, float]:
    """sum_(j < count) c_j q^e_j of `table` in integers at scale 2^w, and its rounding bound.

    powers is `_powers(q, m, w)` for any m >= 1, and it names the point
    q = (qr + i qi) 2^-w and the scale 2^w; the series is summed in blocks
    of m exponents against it, so that several series at one q can share
    one set of powers.  The table's first count terms are summed, and a
    count outside 0 .. len(table.exps) raises DomainError.  Their exponents
    are nondecreasing from 0 or above, as every `_SeriesTable` is, and each
    coefficient has modulus at most 2^b, b = table.bits[count], which the
    table computed from the coefficients themselves.  Returns (sr, si,
    bound) with

        |(sr + i si) 2^-w - sum_(j < count) c_j q^e_j| <= bound 2^-w,

    the sum taken at q exactly.  The caller adds its truncation tail and the
    error in q.

    Every product of two scaled numbers is truncated toward -infinity,
    within sqrt(2) of its value.  If approximations of x and y, |x|, |y| <=
    1, are within a and b, their product is within a|y| + b|x| + ab + sqrt(2),
    which is at most a + b + sqrt(2) when |q| + b 2^-w <= 1.  The premise
    holds because |q| <= 1 - 2 max(e_max, m) 2^-w, e_max = e_(count-1),
    which is checked in integers before any term is summed.

    Block k holds the exponents km .. km + m - 1 (rectangular splitting,
    Paterson and Stockmeyer 1973).  The baby steps q^0 .. q^(m-1) and
    Q = q^m are one chain with step 1, so q^i is within sqrt(2) (i - 1) for
    i >= 1 and Q within sqrt(2) (m - 1).  Each block sum
    sum_i c_(km+i) q^i is an exact integer dot product, within
    sqrt(2) 2^b sum_i max(0, i - 1) of its true value.
    Horner's rule in Q combines the blocks from the top down, one truncated
    product per block below the top: a giant step, taken in three products
    as the steps of `_powers` are, exactly.  The partial sum H above
    block k has a true value S of modulus at most 2^b times the number of
    terms it holds, since |q| <= 1, and |Q| <= 2^w by the premise, as
    sqrt(2) (m - 1) < 2m.  So H Q 2^-w is within err(H) + |S| sqrt(2) (m - 1)
    of S q^m 2^w, and the giant step adds sqrt(2) for its truncation.  A
    term of block k thus carries sqrt(2) 2^b (max(0, i - 1) + k (m - 1))
    <= sqrt(2) 2^b e, and the sum is within sqrt(2) 2^b sum_j e_j +
    sqrt(2) (giant steps).  The bound returned, 1.5 * 2^b * sum_j e_j +
    1.5 * (giant steps), covers it, with sum_j e_j read from
    `table.sums[count]`.  It is a double, so 2^b sum_j e_j must stay below
    2^1022, which no table comes near: exp's n! stays below 2^704 and the
    theta numerator's b below 16 up to MAX_PREC_BITS, both pinned by tests.

    The dot product is taken on packed powers: with x_i + y_i 2^L for
    q^i = x_i + i y_i, L the lane of `_powers`, a block's one integer sum
    is X + Y 2^L, X = sum_i c_i x_i and Y = sum_i c_i y_i exactly.  Each
    term's packed power is read from the list baby * (top + 1), at index
    e, which holds q^(e mod m) for every e <= e_max.  Under the premise
    each part is at most 2^w in modulus: q^0 = 2^w, and for 1 <= i < m,
    |q^i| <= 2^w - 2m and its error is below 2m.  So a block of t terms has
    |X| <= t 2^(b + w) < 2^(L - 1) whenever t < 2^(L - w - 1 - b), and
    X + 2^(L - 1) lies in [0, 2^L): the low lane never carries into the
    high one, and its low L bits less 2^(L - 1) give X and the bits above
    give Y, with no rounding.  A block of more terms raises DomainError.
    With L = w + floor(w/4) + 128 a block may hold up to
    2^(floor(w/4) + 127 - b) - 1 terms, which no table comes near: the
    theta quotient's b stays below 16, and exp's n! and its blocks of
    isqrt(n) + 1 fit at every scale, pinned by a test.  The packed integer,
    about 2.25 w bits, costs one product and one sum a term where the two
    parts cost two of each at w bits.
    """
    exps = table.exps
    if not 0 <= count <= len(exps):
        raise DomainError(f"a table of {len(exps)} terms has no first {count}")
    if not count:
        return 0, 0, 0.0
    (qr, qi), w, baby, lane, big_r, big_i = powers
    one, b = 1 << w, table.bits[count]
    e_max = exps[count - 1]
    m = len(baby)
    reach = 2 * max(e_max, m)
    if not (reach < one and qr * qr + qi * qi <= (one - reach) ** 2):
        raise DomainError("series point or exponents outside the kernel's range")
    # the most terms a block may hold, t < 2^(lane - w - 1 - b)
    most = (1 << max(lane - w - 1 - b, 0)) - 1
    top = e_max // m
    terms = list(map(mul, table.coeffs[:count],
                     map((baby * (top + 1)).__getitem__, exps[:count])))
    half, mask = 1 << (lane - 1), (1 << lane) - 1
    big_s, big_d = big_r + big_i, big_i - big_r
    acc_r = acc_i = 0
    hi = count
    for k in range(top, -1, -1):
        lo = bisect_left(exps, k * m, 0, hi)
        if hi - lo > most:
            raise DomainError("series coefficients too wide for the kernel's lane")
        # the block's packed sum, its low lane offset by half a lane; then a
        # giant step in three products, at the top with the sum still 0 and
        # the product exact
        block = sum(terms[lo:hi], half)
        t = big_r * (acc_r + acc_i)
        acc_r, acc_i = (((t - acc_i * big_s) >> w) + (block & mask) - half,
                        ((t + acc_r * big_d) >> w) + (block >> lane))
        hi = lo
    return acc_r, acc_i, 1.5 * 2.0**b * table.sums[count] + 1.5 * top
