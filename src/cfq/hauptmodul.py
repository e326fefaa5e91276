"""Catalog and evaluation of principal moduli for genus-zero levels.

Two kinds of entry, each normalized so the q-expansion is q^-1 + 0 + O(q):

  * `EtaQuotientHaupt`: sum_e c_e t^e, integer c_e, t an eta quotient:
    t + shift for a genus-zero congruence level, t + shift + kappa/t for its
    Fricke group, and j - 744 = h + 24 + 196608/h + 16777216/h^2 in the
    level-2 quotient h for level 1 (built-in tables, validated by the test
    suite rather than trusted);
  * `ThetaQuotientHaupt`: f / (eta(tau) eta(N tau)) + shift for the Fricke
    group of a prime level N = 23 mod 24 (71, 47 and 23), where
    f = sum_Q s_Q theta_Q / m and theta_Q(tau) = sum_(x,y) q^Q(x,y) is the
    theta series of a form Q of discriminant -N.

The catalog is one table, `_CATALOG`, built once at import: each
genus-zero (level, group) key maps to its kind (eta-quotient, fricke-sym,
theta-quotient or none) and its entry.  `catalog_lookup` returns the key's
one shared, immutable entry, or raises NoConstructionError for the other 20
Fricke levels of the genus-zero list, which have no construction here;
`catalog_entries`, `GAMMA0_LEVELS` and `FRICKE_LEVELS` read the same table.

`evaluate(spec, tau, prec)` returns t(tau) as a `numerics.Ball` whose two
parts are rounded to prec bits, with

    |evaluate(spec, tau, prec) - t(tau)| <= 2^(ERROR_BITS - prec) * max(1, |t(tau)|),

ERROR_BITS = 3, for tau an exact point (u + v sqrt(-n))/w, a `CMPoint`.  It
works in integers at the scale 2^(prec + 48), with a proven bound on the
error of the unrounded value, and raises ConvergenceError, instead of
returning, when the bound exceeds 2^(ERROR_BITS - 1 - prec) * max(1, |value|);
the one rounding of each part to prec bits then keeps the sum within the
bound.  An eta-quotient entry sums c_e t^e on the ball `eta_quotient`
returns, which prices the cancellation between the terms (`numerics._sum`).

A theta quotient is evaluated at a point of tau's orbit under Gamma0(N)
and the Fricke flip tau -> -1/(N tau) with Im >= sqrt(3)/(2N), found in
integers, so |q| <= exp(-pi sqrt(3)/N) (`_fricke_ascent`).
There eta(tau) eta(N tau) = q^v D, v = (N + 1)/24 and D = S(q) S(q^N),
S = prod (1 - q^n) = sum_k (-1)^k q^(k(3k-1)/2) Euler's pentagonal series,
and f = sum_(e >= v-1) c_e q^e, so t = N / (q D) + shift with the one
series N = sum_(e >= v-1) c_e q^(e-v+1).  The three series have integer
coefficients (the c_e from lattice enumeration, cached per process) and
are summed by `numerics._fixed_series` against one set of powers of q,
built once per point at one scale.  Each stops at the first exponent K
whose tail bound meets its target, fixed before it is summed, and carries
twice the kernel's proven rounding bound (once more for q's truncation),
the tail, and the error in q from `numerics._exp_i_pi` through the
derivative.  The tails are proven: S has coefficients 0 and +-1, so each
factor's tail is below sum_(e >= K) |q|^e; and as -N is a fundamental
discriminant, the representation counts of its classes sum to
2 sum_(d|e) (-N/d), so r_Q(e) <= 2 d(e) <= 4 sqrt(e) for every form and
|c_e| <= A sqrt(e) for e >= 1, A = 4 sum |s_Q| / m.  (At level 23, v = 1
and N's term at q^0 is theta's constant, sum s_Q / m = 1: exact in the
kernel, with no derivative, below its 2^b, and in no tail, as tails start
at k >= 1.)

The value is then one pass in integers.  D = S(q) S(q^N) is one Gaussian
product floored at scale 2^w; q D is q's mantissa times D, exact at q's
own exponent, so that a point far above the axis, where q underflows any
fixed scale, loses nothing; t - shift = N / (q D) is one Gaussian quotient,
both parts floored at >= w + 1/2 bits (`numerics._quotient`); and the
shift is added exactly, or floored once where it falls below the value's
last bit, |t| > 2^w.  The radius, in units of 2^-w max(1, |t|), is one
float budget on (mantissa, exponent) pairs, as `numerics._mag` and
`numerics._ratio` keep them, so no term overflows up to MAX_PREC_BITS:

  * D's relative error r_D = r_1 + r_2 + r_1 r_2 2^-w + 1.5 / |D|: each
    factor's error over its modulus, and D's floor, within sqrt(2);
  * q's radius r_q, the pole's error: q D is within g = (r_q + r_D +
    r_q r_D 2^-w) 2^-w of its value relatively, and ConvergenceError is
    raised unless (r_q + r_D) 2^-w < 2^-5;
  * on |N / (q D)|, the quotient's floors, within sqrt(2) units of its
    last place and so within 2^-w of it, charged 1.5, and q D's error,
    g / (1 - g) of it;
  * N's error, absolute, as N cancels to nothing where t = shift, over
    |q D| (1 - g), a lower bound on the true |q D|;
  * the shift's floor, below one unit of the value's last place.

The products of two relative errors are carried whole by g and 1 - g.
The second-order terms of each floor fit in the 1.5 charged for it: D's
floor adds sqrt(2) (r_1 + r_2 + r_1 r_2 2^-w) 2^-w / |D| < 0.045 / |D| under
the premise, inside the 0.086 / |D| that 1.5 - sqrt(2) leaves; the
quotient's is charged on the computed |N / (q D)|, below the exact one by
at most 2^-w of it, and (1 + g / (1 - g) 2^w) 2^-w < 0.04 of that fits in
the 0.5 its charge of 1.5 leaves over 1.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from functools import cache
from math import isqrt

from .elliptic import CMPoint
from .errors import ConvergenceError, DomainError, NoConstructionError, NotGenusZeroError
from .eta import EtaQuotientSpec, _ascend, _imag, _pentagonal, _pentagonal_count, eta_quotient
from .exactpoly import LaurentExpr, _Record
from .numerics import (
    _GUARD, Ball, _check_prec, _div, _fixed, _fixed_series, _exp_i_pi, _mag, _mul,
    _powers, _quotient, _ratio, _round, _sum,
)

__all__ = [
    "EtaQuotientHaupt",
    "ThetaQuotientHaupt",
    "GAMMA0_LEVELS",
    "FRICKE_LEVELS",
    "catalog_lookup",
    "catalog_entries",
    "evaluate",
    "ERROR_BITS",
]

# evaluate(spec, tau, prec) is within 2^(ERROR_BITS - prec) * max(1, |t(tau)|)
ERROR_BITS = 3

# Hauptmodul eta quotients for the genus-zero congruence levels > 1.  Each is
# the unique choice whose exponents satisfy r(N/d) = -r(d), which forces
# t(-1/(N tau)) = kappa / t(tau) with kappa = prod (N/d)^(r_d/2).
_ETA_TABLE: dict[int, tuple[tuple[int, int], ...]] = {
    2: ((1, 24), (2, -24)),
    3: ((1, 12), (3, -12)),
    4: ((1, 8), (4, -8)),
    5: ((1, 6), (5, -6)),
    6: ((1, 5), (2, -1), (3, 1), (6, -5)),
    7: ((1, 4), (7, -4)),
    8: ((1, 4), (2, -2), (4, 2), (8, -4)),
    9: ((1, 3), (9, -3)),
    10: ((1, 3), (2, -1), (5, 1), (10, -3)),
    12: ((1, 3), (2, -2), (3, -1), (4, 1), (6, 2), (12, -3)),
    13: ((1, 2), (13, -2)),
    16: ((1, 2), (2, -1), (8, 1), (16, -2)),
    18: ((1, 2), (2, -1), (3, -1), (6, 1), (9, 1), (18, -2)),
    25: ((1, 1), (25, -1)),
}


class EtaQuotientHaupt(_Record):
    """Principal modulus sum_e c_e t^e, t the eta quotient `spec`, c_e integers."""

    __slots__ = ("level", "spec", "laurent")

    def __init__(self, level: int, spec: EtaQuotientSpec, laurent: LaurentExpr):
        if not laurent.terms:
            raise DomainError("Laurent coefficients must be integers, not all zero")
        self._set_fields(level, spec, laurent)


class ThetaQuotientHaupt(_Record):
    """Principal modulus sum_Q s_Q theta_Q / (divisor eta(tau) eta(N tau)) + shift.

    `forms` holds ((a, b, c), s_Q) for forms of discriminant -N, N = `level`
    a prime = 23 mod 24, and `shift` is an integer.
    """

    __slots__ = ("level", "forms", "divisor", "shift")

    def __init__(self, level: int, forms: tuple, divisor: int, shift: int):
        if (level % 24 != 23 or any(level % p == 0 for p in range(2, isqrt(level) + 1))
                or divisor < 1 or not forms
                or any(a < 1 or b * b - 4 * a * c != -level for (a, b, c), _ in forms)):
            raise DomainError(f"no theta quotient of prime level {level} = 23 mod 24 "
                              f"with forms {forms} and divisor {divisor}")
        self._set_fields(level, forms, divisor, shift)


def _kappa(n: int, terms) -> int:
    num = math.prod((n // d) ** r for d, r in terms if r > 0)
    den = math.prod((n // d) ** -r for d, r in terms if r < 0)
    root = isqrt(num // den)
    assert root * root * den == num
    return root


def _eta_entry(n: int, terms, *tail: int) -> EtaQuotientHaupt:
    """t + r_1 + tail[0]/t + tail[1]/t^2 + ..., t the eta quotient `terms`."""
    coeffs = (1, dict(terms)[1], *tail)
    return EtaQuotientHaupt(n, EtaQuotientSpec(terms),
                            LaurentExpr({1 - k: c for k, c in enumerate(coeffs)}))


# The catalog, built once at import: (level, group) -> (kind, entry), the
# entry None for a genus-zero level with no construction here.  An eta
# entry is t + r_1, as t = q^-1 - r_1 + O(q); level 1 is j - 744 in the
# level-2 quotient h, from j = (h + 256)^3 / h^2, the 2B relation of Conway
# and Norton, "Monstrous Moonshine" (1979).  A theta entry's eta(tau)
# eta(N tau) is a weight-1 cusp form with character (-N/.), no zero in the
# upper half plane and order (N + 1)/24 at both cusps; each numerator has
# order one less at infinity.
_CATALOG = {
    (1, "gamma0"): ("eta-quotient", _eta_entry(1, _ETA_TABLE[2], 196608, 16777216)),
    **{(n, "gamma0"): ("eta-quotient", _eta_entry(n, terms)) for n, terms in _ETA_TABLE.items()},
    **{(n, "fricke"): ("fricke-sym", _eta_entry(n, terms, _kappa(n, terms)))
       for n, terms in _ETA_TABLE.items()},
    (23, "fricke"): ("theta-quotient", ThetaQuotientHaupt(23, (((1, 1, 6), 1),), 1, -3)),
    (47, "fricke"): ("theta-quotient",
                     ThetaQuotientHaupt(47, (((1, 1, 12), 1), ((2, 1, 6), -1)), 2, 0)),
    (71, "fricke"): ("theta-quotient",
                     ThetaQuotientHaupt(71, (((2, 1, 9), 1), ((3, 1, 6), -1)), 2, 0)),
    **{(n, "fricke"): ("none", None)
       for n in (11, 14, 15, 17, 19, 20, 21, 24, 26, 27, 29, 31, 32, 35, 36, 39, 41, 49, 50, 59)},
}
_GROUPS = {"gamma0": "congruence group", "fricke": "Fricke group"}
GAMMA0_LEVELS = frozenset(n for n, group in _CATALOG if group == "gamma0")
FRICKE_LEVELS = frozenset(n for n, group in _CATALOG if group == "fricke")


def catalog_lookup(n: int, group: str):
    """The principal-modulus description for (level, group), one shared instance per key.

    group is "gamma0" or "fricke".  Levels outside the genus-zero lists raise
    NotGenusZeroError; listed levels without a construction raise
    NoConstructionError.
    """
    if group not in _GROUPS:
        raise DomainError(f"unknown group {group!r}")
    if (n, group) not in _CATALOG:
        raise NotGenusZeroError(
            f"level {n} is not in the genus-zero list for the {_GROUPS[group]}"
        )
    _kind, entry = _CATALOG[n, group]
    if entry is None:
        raise NoConstructionError(
            f"level {n} of the {_GROUPS[group]} is genus zero, but the catalog "
            f"has no construction of its principal modulus"
        )
    return entry


def catalog_entries() -> list[dict]:
    """Inventory of all catalog keys with the kind of their construction."""
    return [{"level": n, "group": group, "kind": _CATALOG[n, group][0]}
            for wanted in _GROUPS for n, group in sorted(_CATALOG) if group == wanted]


def evaluate(spec, tau: CMPoint, prec: int) -> Ball:
    """Value of a principal modulus at the exact point tau, each part rounded to prec bits.

    The result is within 2^(ERROR_BITS - prec) * max(1, |t(tau)|) of the
    true value (module docstring), and its radius is the proven bound in
    units of 2^-prec * max(1, |value|); where that bound cannot meet
    2^ERROR_BITS, ConvergenceError is raised instead.  DomainError unless
    prec is an integer from 64 to 16384.
    """
    _check_prec(prec)
    if not isinstance(tau, CMPoint):
        raise DomainError(f"evaluation needs an exact CMPoint, got {tau!r}")
    wp = prec + _GUARD
    if isinstance(spec, EtaQuotientHaupt):
        value = _laurent_sum(spec.laurent, eta_quotient(spec.spec, tau, wp), wp)
    elif isinstance(spec, ThetaQuotientHaupt):
        value = _evaluate_theta(spec, tau, prec)
    else:
        raise DomainError(f"unknown principal-modulus description {spec!r}")
    # in units of 2^-prec * max(1, |value|); the final rounding adds 1
    if not (err := value.rad / 2.0**_GUARD) <= 2.0 ** (ERROR_BITS - 1):
        raise ConvergenceError(
            f"error estimate {err:.3g} * 2^-{prec} * max(1, |t|) exceeds the "
            f"bound 2^({ERROR_BITS - 1} - {prec}) * max(1, |t|) at this point"
        )
    return _round(value, prec, err + 1)


def _laurent_sum(laurent: LaurentExpr, t: Ball, w: int) -> Ball:
    """sum_e c_e t^e, its radius in units of 2^-w max(1, |value|).

    t^k from k - 1 products, c t^k exact and c / t^k from one quotient: each
    term's radius holds t's k-fold, and `numerics._sum` weighs the terms.
    """
    if not (t.re or t.im) and laurent.min_exponent() < 0:
        raise DomainError("eta quotient vanished at the evaluation point")
    powers = [Ball(1, 0, 0, 0.0), t]
    terms = []
    for e, c in laurent.terms:
        k = abs(e)
        while len(powers) <= k:
            powers.append(_mul(powers[-1], t, w))
        p = powers[k]
        terms.append(_div(Ball(c, 0, 0, 0.0), p, w) if e < 0
                     else Ball(c * p.re, c * p.im, p.exp, p.rad))
    return _sum(terms, w)


def _fricke_ascent(tau: CMPoint, n: int) -> CMPoint:
    """A point of tau's orbit under Gamma0(n) and the Fricke flip, for a prime n.

    Exact, in integers.  The Fricke ascent `_ascend(tau, n)` comes first.
    Only if it stops below Im = sqrt(3)/(2n), is its point w moved into the
    fundamental domain of SL2(Z), z1 = g w.  When n divides the lower-left
    entry c of g, g^-1 lies in Gamma0(n) and z1 is in the orbit.  Otherwise
    g^-1 lies in the coset Gamma0(n) S T^k, k = -a/c mod n
    (S T^k = [[0, -1], [1, k]], the cosets other than Gamma0(n) itself, as n
    is prime), and the Fricke flip takes S T^k z1 to (z1 + k)/n.  A second
    Fricke ascent follows.  The point has |Re| <= 1/2 and
    Im >= sqrt(3)/(2n).
    """
    point, _gamma, _steps = _ascend(tau, n)
    # 2n Im < sqrt(3), Im = v sqrt(point.n) / w
    if 4 * n * n * point.v**2 * point.n < 3 * point.w**2:
        z1, (a, _b, c, _d), _steps = _ascend(point, 1)
        if c % n:
            k = -a * pow(c, -1, n) % n
            z1 = CMPoint(z1.u + k * z1.w, z1.v, n * z1.w, z1.n)
        point, _gamma, _steps = _ascend(z1, n)
    return point


@cache
def _theta_numerator(spec: ThetaQuotientHaupt, size: int):
    """(exponents, coefficients) of N = q^(1-v) sum_Q s_Q theta_Q / m.

    The nonzero c_e for v - 1 <= e < v - 1 + size, at the exponents
    e - v + 1, the theta series by lattice enumeration: for each y, the x
    with a x^2 + b x y + c y^2 < v - 1 + size lie between the roots, whose
    discriminant is 4 a (v - 1 + size) - N y^2.
    """
    n, v = spec.level, (spec.level + 1) // 24
    top = v - 1 + size
    counts = [0] * top
    for (a, b, c), s in spec.forms:
        ymax = isqrt(4 * a * top // n) + 1
        for y in range(-ymax, ymax + 1):
            disc = 4 * a * top - n * y * y
            if disc <= 0:
                continue
            root = isqrt(disc) + 1
            for x in range((-b * y - root) // (2 * a), (-b * y + root) // (2 * a) + 1):
                e = a * x * x + b * x * y + c * y * y
                if e < top:
                    counts[e] += s
    if any(k % spec.divisor for k in counts):
        raise DomainError(f"theta numerator of level {n} has non-integer coefficients")
    coeffs = [k // spec.divisor for k in counts]
    if any(coeffs[: v - 1]) or not coeffs[v - 1]:
        raise DomainError(f"theta numerator of level {n} does not have order {v - 1}")
    kept = [(e - v + 1, k) for e, k in enumerate(coeffs[v - 1:], start=v - 1) if k]
    return tuple(e for e, _ in kept), tuple(k for _, k in kept)


def _log_tail(ell: float, k: int, alpha: float, beta: float) -> float:
    """ln of sum_(e >= k) (alpha e + beta) r^e, r = e^-ell, in closed form.

    sum_(e >= k) e r^e = r^k (k (1 - r) + r) / (1 - r)^2.
    """
    one_r = -math.expm1(-ell)
    return (-ell * k + math.log(alpha * (k * one_r + 1 - one_r) + beta * one_r)
            - 2 * math.log(one_r))


def _cutoff(ell: float, target: float, growth) -> tuple[int, float]:
    """The least k >= 1 with _log_tail(ell, k, *growth(k)) <= target, and that log-tail.

    growth(k) gives the (alpha, beta) of a tail from k; the log-tail is
    -ell k plus a slowly growing term g(k), and k = ceil((g(k) - target) /
    ell) only grows, so a few steps reach the least such k.
    """
    k = 1
    while (tail := _log_tail(ell, k, *growth(k))) > target:
        k = max(k + 1, math.ceil((tail + ell * k - target) / ell))
    return k, tail


def _coeff_bits(a: float, top: int) -> int:
    """Bits of the numerator's bound A sqrt(e) over the exponents below top."""
    return math.ceil(a * (isqrt(top) + 1)).bit_length()


def _evaluate_theta(spec: ThetaQuotientHaupt, tau: CMPoint, prec: int) -> Ball:
    """The quotient at tau, its radius in units of 2^-(prec+guard) max(1, |value|)."""
    n, wp = spec.level, prec + _GUARD
    v = (n + 1) // 24
    z = _fricke_ascent(tau, n)
    # -ln|q|, shaded down so that no bound below is shaded down with it
    ell = 2 * math.pi * _imag(z) * (1 - 2.0**-40)
    r = math.exp(-ell)
    # A relative error eps_q in q moves a series by eps_q sum_e e |c_e| |q|^e,
    # which is below s1 = sum e r^e = r/(1-r)^2 for each pentagonal factor
    # and A (sqrt(s1 s2) + sqrt(v - 1) s1) for N, as sum e^(3/2) r^e
    # <= sqrt(s1 s2) by Cauchy-Schwarz, s2 = sum e^2 r^e = r(1+r)/(1-r)^3.
    one_r = -math.expm1(-ell)
    s1, s2 = r / one_r**2, r * (1 + r) / one_r**3

    # S(q) and S(q^N) stop below K, their tails below 2^-(prec + 8), room
    # for |D| down to 2^-4 or so; sampling finds |D| > 0.05 wherever the
    # ascent ends (the bound does not assume it)
    size, tail = _cutoff(ell, -(prec + 8) * math.log(2), lambda k: (0, 1))
    a = 4 * sum(abs(s) for _, s in spec.forms) / spec.divisor
    # One scale and one set of powers for the three series, with room for
    # the numerator's coefficients and exponent sums up to twice K;
    # m = isqrt(6K) powers balance the blocks of these sparse series (timed
    # best among isqrt(cK), c = 1 .. 16, at 64 bits, flat at 256).
    room = 2 * size
    w = wp + _coeff_bits(a, room + v) + 2 * room.bit_length()
    q = _exp_i_pi(2 * z.u, 2 * z.v, z.w, z.n, w)
    qw = _fixed(q, w)
    powers = _powers(qw, isqrt(6 * size), w)

    def series(exps, coeffs, coeff_bits, tail, slope):
        # the sum and its error in units of 2^-w: the kernel's bound twice,
        # once more for q's truncation (q^e moves sqrt(2) e), the tail and
        # q's error through the derivative
        sr, si, bound = _fixed_series(qw, exps, coeffs, coeff_bits, w, powers)
        return sr, si, 2 * bound + math.exp(tail + w * math.log(2)) + q.rad * slope

    exps, signs = _pentagonal(_pentagonal_count(size))
    cut = bisect_left(exps, -(-size // n))
    ar, ai, err_a = series(exps, signs, 0, tail, s1)
    br, bi, err_b = series([n * e for e in exps[:cut]], signs[:cut], 0, tail, s1)
    # D = S(q) S(q^N) floored at scale 2^w; its relative error, in units
    # of 2^-w, from each factor's and from the floor's sqrt(2) (charged 1.5)
    dr, di = (ar * br - ai * bi) >> w, (ar * bi + ai * br) >> w
    if not (dr or di):
        raise ConvergenceError("a sum of the theta quotient vanished at this point")
    rel_a, rel_b = _ratio((err_a, 0), _mag(ar, ai, -w)), _ratio((err_b, 0), _mag(br, bi, -w))
    df, dk = _mag(dr, di, -w)
    rel_d = rel_a + rel_b + math.ldexp(rel_a * rel_b, -w) + _ratio((1.5, 0), (df, dk))
    if not math.ldexp(q.rad + rel_d, 5 - w) < 1:
        raise ConvergenceError("the pole q D is lost in its own error at this point")

    # N: its tail from exponent k, with sqrt(e + v - 1) <= (e + v - 1) /
    # sqrt(k + v - 1), is below 2^(ERROR_BITS-2-prec) |q D|, |q| from its
    # integers as r underflows a double at high points; its table is cached
    # at a power of two >= K, at least 1024
    den_low = math.ldexp(df, dk) * (1 - math.ldexp(rel_d, -w))
    qf, qk = _mag(q.re, q.im, q.exp)
    size, tail = _cutoff(ell, (ERROR_BITS - 2 - prec + qk) * math.log(2) + math.log(den_low * qf),
                         lambda k: (a / math.sqrt(k + v - 1), a * (v - 1) / math.sqrt(k + v - 1)))
    exps, coeffs = _theta_numerator(spec, max(1024, 1 << (size - 1).bit_length()))
    cut = bisect_left(exps, size)
    nr, ni, err_n = series(exps[:cut], coeffs[:cut], _coeff_bits(a, size + v - 1), tail,
                           a * (math.sqrt(s1 * s2) + math.sqrt(v - 1) * s1))
    # t - shift = N / (q D): q D exact at exponent q.exp - w, the quotient
    # floored once (module docstring), then the shift added exactly, or
    # floored once where it falls below the value's last bit
    xr, xi = q.re * dr - q.im * di, q.re * di + q.im * dr
    x, y, s = _quotient(nr, ni, xr, xi, w)
    e = -q.exp - s
    quot, floor = _mag(x, y, e), (0.0, 0)
    if e <= 0:
        x += spec.shift << -e
    elif spec.shift:
        x += spec.shift >> e
        floor = (1.0, e + w)
    value = _mag(x, y, e) if spec.shift else quot
    big = value if _ratio(value, (1.0, 0)) >= 1 else (1.0, 0)
    # the budget in units of 2^-w max(1, |t|) (module docstring): on
    # |N / (q D)| the quotient's floors and q D's error g / (1 - g), N's
    # absolute error over |q D| (1 - g), and the shift's floor
    gq, gd = math.ldexp(q.rad, -w), math.ldexp(rel_d, -w)
    low = 1 - (gq + gd + gq * gd)
    pole = 1.5 + (q.rad + rel_d + q.rad * gd) / low
    rad = (_ratio((pole * quot[0], quot[1]), big) + _ratio(floor, big)
           + _ratio((err_n / low, 0), (qf * df * big[0], qk + dk + big[1])))
    return Ball(x, y, e, rad * 2.0 ** (wp - w))
