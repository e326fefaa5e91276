"""Catalog and evaluation of principal moduli for genus-zero levels.

Two kinds of entry, each normalized so the q-expansion is q^-1 + 0 + O(q):

  * `EtaQuotientHaupt`: sum_e c_e t^e, integer c_e, t an eta quotient:
    t + shift for a genus-zero congruence level, t + shift + kappa/t for its
    Fricke group, and j - 744 = h + 24 + 196608/h + 16777216/h^2 in the
    level-2 quotient h for level 1 (built-in tables, validated by the test
    suite rather than trusted);
  * `QSeriesHaupt`: an ingested q-series coefficient file for a Fricke-only
    level (the package ships the level-71 series).

`evaluate(spec, tau, prec)` returns t(tau) rounded to prec bits with

    |evaluate(spec, tau, prec) - t(tau)| <= 2^(ERROR_BITS - prec) * max(1, |t(tau)|),

ERROR_BITS = 3.  It works at prec + 48 bits, estimates the error of the
unrounded value and raises ConvergenceError, instead of returning, when the
estimate exceeds 2^(ERROR_BITS - 1 - prec) * max(1, |value|); the final
rounding then keeps the sum within the bound.  The estimate rests on two
stated assumptions:

  * the operation-error model of `cfq.eta` at the working precision, which
    also prices the cancellation between the terms of sum_e c_e t^e;
  * for a q-series, the coefficient envelope |c_e| <= A exp(4 pi sqrt(e/N))
    for e >= 1, N the level.  A is fitted to the file when it is parsed
    (`QSeriesHaupt.envelope_a`, about 0.225 for level 71), so the envelope
    holds on the data by construction and is assumed beyond it.

A q-series is evaluated after an ascent through translations and the Fricke
flip tau -> -1/(N tau), the ascent `cfq.eta` takes with N = 1 (`_ascend`).
Before summing, K* is found: the first exponent at
which a closed-form bound on the envelope's tail,
sum_{e >= K*} A exp(4 pi sqrt(e/N)) |q|^e, is at most 2^(ERROR_BITS-2-prec);
if the file stops before K*, InsufficientDataError is raised before any term
is summed.  Exactly the exponents 0 .. K*-1 are summed, in fixed-point
integers by `numerics._fixed_series`, at a scale sized by the envelope at
K*, and the kernel's proven rounding bound is charged in full.  The
remaining parts of the estimate are the error in q, carried through the
derivative of the series, with the roundings of each step of the ascent
counted, and the rounding of the last operations.  Eta-quotient entries are
valid anywhere because eta itself reduces its argument, and `eta_quotient`
returns its error bound with its value.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import isqrt
from pathlib import Path

import mpmath
from mpmath import mp

from .elliptic import CMPoint
from .errors import (
    ConvergenceError,
    DataFileMissingError,
    DomainError,
    InsufficientDataError,
    NotGenusZeroError,
    QSeriesFormatError,
)
from .eta import EtaQuotientSpec, _ascend, eta_quotient
from .exactpoly import LaurentExpr
from .numerics import _GUARD, _fixed_series, _to_fixed

__all__ = [
    "EtaQuotientHaupt",
    "QSeriesHaupt",
    "GAMMA0_LEVELS",
    "FRICKE_LEVELS",
    "catalog_lookup",
    "catalog_entries",
    "load_qseries",
    "evaluate",
    "ERROR_BITS",
]

# evaluate(spec, tau, prec) is within 2^(ERROR_BITS - prec) * max(1, |t(tau)|)
ERROR_BITS = 3
_PACKAGED_DATA = Path(__file__).resolve().parent / "data"

GAMMA0_LEVELS = frozenset([1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 13, 16, 18, 25])
FRICKE_LEVELS = frozenset(
    list(range(2, 22)) + list(range(23, 28))
    + [29, 31, 32, 35, 36, 39, 41, 47, 49, 50, 59, 71]
)

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


@dataclass(frozen=True)
class EtaQuotientHaupt:
    """Principal modulus sum_e c_e t^e, t the eta quotient `spec`, c_e integers."""

    level: int
    spec: EtaQuotientSpec
    laurent: LaurentExpr

    def __post_init__(self):
        terms = self.laurent.terms
        if not terms or any(c.denominator != 1 for _, c in terms):
            raise DomainError("Laurent coefficients must be integers, not all zero")


@dataclass(frozen=True)
class QSeriesHaupt:
    """Principal modulus of a Fricke group known through its q-expansion coefficients."""

    label: str
    n: int
    coeffs: tuple[int, ...]
    # the least A with |c_e| <= A exp(4 pi sqrt(e/n)) for every e >= 1 in the
    # file, which the tail and error bounds of evaluate assume for all e
    envelope_a: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        a = 4 * math.pi / math.sqrt(self.n)
        # index k holds the coefficient of q^(k-1)
        best = max(
            (math.log(abs(c)) - a * math.sqrt(k - 1)
             for k, c in enumerate(self.coeffs) if k >= 2 and c),
            default=None,
        )
        # a relative margin of 2^-40 covers the double-precision fit
        envelope = 0.0 if best is None else math.exp(best) * (1 + 2.0**-40)
        object.__setattr__(self, "envelope_a", envelope)


def _kappa(n: int, terms) -> int:
    val = Fraction(1)
    for d, r in terms:
        val *= Fraction(n // d) ** r
    assert val.denominator == 1
    root = isqrt(val.numerator)
    assert root * root == val.numerator
    return root


# (quotient, Laurent coefficients) of each congruence-group entry: t + r_1,
# as t = q^-1 - r_1 + O(q).  Level 1 is j - 744 in the level-2 quotient h,
# from j = (h + 256)^3 / h^2, the 2B relation of Conway and Norton,
# "Monstrous Moonshine" (1979).
_GAMMA0_ENTRIES = {
    1: (_ETA_TABLE[2], {1: 1, 0: 24, -1: 196608, -2: 16777216}),
    **{n: (terms, {1: 1, 0: dict(terms)[1]}) for n, terms in _ETA_TABLE.items()},
}


def _data_dirs(data_dir) -> list[Path]:
    dirs = []
    if data_dir is not None:
        dirs.append(Path(data_dir))
    else:
        env = os.environ.get("CFQ_DATA_DIR")
        if env:
            dirs.append(Path(env))
    dirs.append(_PACKAGED_DATA)
    return dirs


def load_qseries(path) -> QSeriesHaupt:
    """Parse a q-series coefficient file.

    Line 1: "# label=<text> level=<n> group=fricke q_min=-1" with n >= 1.
    Every further non-blank line that does not start with '#' holds one
    decimal integer; the first is the coefficient of q^-1.  The file is read
    on every call, and parsed once per process for each content.
    """
    path = Path(path)
    return _parse_qseries(str(path), path.read_text(encoding="utf-8"))


# Keyed on the file's content, not on its mtime, so a rewrite that keeps the
# size and lands within the timestamp granularity is never served stale.
@lru_cache(maxsize=8)
def _parse_qseries(path: str, text: str) -> QSeriesHaupt:
    lines = text.split("\n")
    header = lines[0]
    if not header.startswith("#"):
        raise QSeriesFormatError("header", f"{path}: missing header line")
    fields = {}
    for token in header[1:].split():
        if "=" not in token:
            raise QSeriesFormatError("header", f"{path}: bad header token {token!r}")
        key, _, value = token.partition("=")
        fields[key] = value
    for key in ("label", "level", "group", "q_min"):
        if key not in fields:
            raise QSeriesFormatError("header", f"{path}: header lacks {key}=")
    try:
        level = int(fields["level"])
        q_min = int(fields["q_min"])
    except ValueError as exc:
        raise QSeriesFormatError("header", f"{path}: non-integer header field") from exc
    if level < 1:
        raise QSeriesFormatError("header", f"{path}: level must be positive, got {level}")
    if fields["group"] != "fricke":
        raise QSeriesFormatError("header", f"{path}: group must be fricke")
    if q_min != -1:
        raise QSeriesFormatError("q_min", f"{path}: q_min must be -1, got {q_min}")
    coeffs = []
    for lineno, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            coeffs.append(int(line))
        except ValueError as exc:
            raise QSeriesFormatError(
                "coefficient", f"{path}:{lineno}: not an integer: {line!r}"
            ) from exc
    if len(coeffs) < 64:
        raise QSeriesFormatError(
            "too_few", f"{path}: only {len(coeffs)} coefficients, need at least 64"
        )
    if coeffs[0] == 0:
        raise QSeriesFormatError(
            "coefficient", f"{path}: leading coefficient (of q^-1) must be nonzero"
        )
    return QSeriesHaupt(label=fields["label"], n=level, coeffs=tuple(coeffs))


def catalog_lookup(n: int, group: str, data_dir=None):
    """The principal-modulus description for (level, group).

    group is "gamma0" or "fricke".  Levels outside the genus-zero lists raise
    NotGenusZeroError; entries backed by coefficient files raise
    DataFileMissingError when no file is found in the data directories.
    """
    if group == "gamma0":
        if n not in GAMMA0_LEVELS:
            raise NotGenusZeroError(
                f"level {n} is not in the genus-zero list for the congruence group"
            )
        terms, laurent = _GAMMA0_ENTRIES[n]
    elif group == "fricke":
        if n not in FRICKE_LEVELS:
            raise NotGenusZeroError(
                f"level {n} is not in the genus-zero list for the Fricke group"
            )
        if n not in _ETA_TABLE:
            return _load_from_dirs(n, data_dir)
        terms = _ETA_TABLE[n]
        laurent = {1: 1, 0: dict(terms)[1], -1: _kappa(n, terms)}
    else:
        raise DomainError(f"unknown group {group!r}")
    return EtaQuotientHaupt(n, EtaQuotientSpec(terms), LaurentExpr(laurent))


def _load_from_dirs(n: int, data_dir) -> QSeriesHaupt:
    name = f"fricke_{n}.qseries"
    for d in _data_dirs(data_dir):
        candidate = d / name
        if candidate.is_file():
            series = load_qseries(candidate)
            if series.n != n:
                raise QSeriesFormatError(
                    "header",
                    f"{candidate}: header level {series.n} does not match "
                    f"catalog entry ({n}, fricke)",
                )
            return series
    raise DataFileMissingError(
        f"no q-series file {name!r} in {[str(d) for d in _data_dirs(data_dir)]}"
    )


def catalog_entries(data_dir=None) -> list[dict]:
    """Inventory of all catalog keys with entry kind and data availability."""
    out = [{"level": n, "group": "gamma0", "kind": "eta-quotient"}
           for n in sorted(GAMMA0_LEVELS)]
    for n in sorted(FRICKE_LEVELS):
        if n in _ETA_TABLE:
            out.append({"level": n, "group": "fricke", "kind": "fricke-sym"})
        else:
            available = any((d / f"fricke_{n}.qseries").is_file()
                            for d in _data_dirs(data_dir))
            out.append({"level": n, "group": "fricke", "kind": "qseries",
                        "available": available})
    return out


def evaluate(spec, tau, prec: int) -> mpmath.mpc:
    """Value of a principal modulus at tau, rounded to prec bits.

    tau is a CMPoint or any complex number in the upper half plane.  The
    result is within 2^(ERROR_BITS - prec) * max(1, |t(tau)|) of the true
    value, under the assumptions stated in the module docstring; where the
    error estimate cannot meet that, ConvergenceError is raised instead.
    """
    wp = prec + _GUARD
    with mp.workprec(wp):
        if isinstance(tau, CMPoint):
            z = (tau.u + mp.sqrt(tau.n) * mp.mpc(0, tau.v)) / tau.w
        else:
            z = tau
        # Errors in units of 2^-wp * max(1, |value|), 2 units of its result
        # per operation (the model of cfq.eta); z is within 4 units of |z|
        # of the point.
        if isinstance(spec, EtaQuotientHaupt):
            value, err = _laurent_sum(spec.laurent, *eta_quotient(spec.spec, z, wp))
        elif isinstance(spec, QSeriesHaupt):
            value, err = _evaluate_qseries(spec, z, prec)
        else:
            raise DomainError(f"unknown principal-modulus description {spec!r}")
    # in units of 2^-prec * max(1, |value|); the final rounding adds 1
    err /= 2.0**_GUARD
    if not err <= 2.0 ** (ERROR_BITS - 1):
        raise ConvergenceError(
            f"error estimate {err:.3g} * 2^-{prec} * max(1, |t|) exceeds the "
            f"bound 2^({ERROR_BITS - 1} - {prec}) * max(1, |t|) at this point"
        )
    with mp.workprec(prec):
        return +value


def _laurent_sum(laurent: LaurentExpr, t, t_err: float) -> tuple[mpmath.mpc, float]:
    """sum_e c_e t^e, and its error in units of 2^-wp max(1, |value|).

    t is within t_err units of |t|, an error that passes e-fold into each
    term c_e t^e whatever cancels between them.  Each operation rounds
    within 2 units of its result (the model of cfq.eta): t^k takes k - 1
    products, a division by it or a product with c_e != 1 one more, and
    each partial sum one; the constant, exact, is added last.
    """
    if t == 0 and laurent.min_exponent() < 0:
        raise DomainError("eta quotient vanished at the evaluation point")
    powers = [1, t]
    terms = []
    for e, c in sorted(laurent.terms, key=lambda term: term[0] == 0):
        c, k = c.numerator, abs(e)
        while len(powers) <= k:
            powers.append(powers[-1] * t)
        if e < 0:
            term = c / powers[k]
        else:
            term = powers[k] if c == 1 else c * powers[k]
        terms.append((k, k - 1 + (e < 0 or c != 1) if k else 0, term))
    value, partials = terms[0][2], []
    for _k, _ops, term in terms[1:]:
        value += term
        partials.append(value)
    modulus = abs(value)
    scale = max(1, modulus)
    slope = rounding = 0.0
    for k, ops, term in terms:
        if k:
            r = _rel(term, scale)
            slope += k * r
            rounding += 2 * ops * r
    for partial in partials[:-1]:
        rounding += 2 * _rel(partial, scale)
    if partials:
        rounding += 2 * float(modulus / scale)
    return value, t_err * slope + rounding


def _rel(x, scale) -> float:
    """|x| / scale in double precision, for a scale >= 1 of any size."""
    return float(abs(x) / scale)


def _log_tail(series: QSeriesHaupt, ell: float, k: int) -> float:
    """ln of a bound on sum_{e >= k} A exp(a sqrt e) r^e, r = e^-ell, a = 4 pi/sqrt(N).

    On e >= k, sqrt(e) lies below its tangent at k, which leaves a geometric
    series with ratio r exp(a / (2 sqrt k)); the bound is infinite when that
    ratio is not below 1.
    """
    a = 4 * math.pi / math.sqrt(series.n)
    ratio = a / (2 * math.sqrt(k)) - ell
    if ratio >= 0:
        return math.inf
    return (math.log(series.envelope_a) + a * math.sqrt(k) - ell * k
            - math.log(-math.expm1(ratio)))


def _tail_index(series: QSeriesHaupt, ell: float, prec: int) -> tuple[int, float]:
    """(K*, ln of its tail bound): the first k >= 1 with tail <= 2^(ERROR_BITS-2-prec).

    The bound is infinite up to some k and decreasing after it, so a
    doubling search and a bisection find K* in a few dozen float operations.
    """
    if series.envelope_a == 0:
        return 1, -math.inf
    target = (ERROR_BITS - 2 - prec) * math.log(2)
    hi = 1
    while _log_tail(series, ell, hi) > target:
        if hi > 1 << 40:
            return hi, math.inf
        hi *= 2
    lo = hi // 2  # the bound exceeds the target at lo, or lo = 0
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _log_tail(series, ell, mid) > target:
            lo = mid
        else:
            hi = mid
    return hi, _log_tail(series, ell, hi)


def _evaluate_qseries(series: QSeriesHaupt, z, prec: int) -> tuple[mpmath.mpc, float]:
    """The series at z and its error bound in units of 2^-(prec+guard) max(1, |value|).

    Runs at the working precision evaluate sets (prec + guard).
    """
    z0 = complex(z)
    # the function is invariant under the full ascent of its Fricke group
    zc, _gamma, steps = _ascend(mp.mpc(z), series.n)
    coeffs = series.coeffs
    q = mp.exp(2j * mp.pi * zc)
    # -ln|q|, shaded down so that the tail bound is not shaded down with it
    ell = 2 * math.pi * float(zc.imag) * (1 - 2.0**-40)
    kstar, log_tail = _tail_index(series, ell, prec)
    if kstar >= len(coeffs):
        raise InsufficientDataError(mp.nstr(abs(q), 8), len(coeffs), kstar + 1)
    # Exponents 0 .. K*-1, index k holding the coefficient of q^(k-1), summed
    # at scale 2^w.  |c| <= 2^b: the constant term by its bit length, the
    # others by the envelope, which grows with e and is fitted to every
    # coefficient of the file.  The kernel's bound, 1.5 * 2^b * K*(K*-1)/2
    # plus 1.5 per giant step (at most K*/2), and as much again for the
    # truncation of q, stay below 1.5 * 2^(w - prec - _GUARD) for this w.
    a = 4 * math.pi / math.sqrt(series.n)
    b = abs(coeffs[1]).bit_length()
    if kstar > 1:
        b = max(b, math.ceil(math.log2(series.envelope_a)
                             + a * math.sqrt(kstar - 1) / math.log(2)))
    w = prec + _GUARD + b + 2 * kstar.bit_length()
    acc_r, acc_i, rounding = _fixed_series(
        (_to_fixed(q.real, w), _to_fixed(q.imag, w)), range(kstar),
        coeffs[1:kstar + 1], b, w)
    acc = mp.mpc(mp.ldexp(acc_r, -w), mp.ldexp(acc_i, -w))
    pole = coeffs[0] / q
    value = pole + acc
    scale = max(1, abs(value))
    # Error in units of 2^-(prec+_GUARD) max(1, |value|); every operation
    # rounds within 2 units of its result (the model of cfq.eta).  The
    # point: z carries 4 units of |z|, and error / Im(z) survives each step
    # of the ascent, which adds its two roundings, 4 units of |z| / Im(z) <=
    # 1/(2 Im z0) + 1 at each step's result; the exp argument rounds 8
    # units of |z|.  A relative error eps_q in q moves the sum by
    # eps_q (|c_-1 / q| + sum e |c_e| |q|^e), and the envelope bounds that
    # sum by A e^(a^2 / (2 ell)) sqrt(r) / (1 - sqrt(r))^2,
    # since a sqrt(e) <= a^2 / (2 ell) + ell e / 2.  Truncating q to the
    # scale moves each q^e by at most sqrt(2) e 2^-w, as much again as the
    # kernel's rounding bound.  The last operations, 1/q, the conversion
    # of the sum and the addition, round once each.
    rho = 4 * abs(z0) / z0.imag + 4 * steps * (1 / (2 * z0.imag) + 1)
    delta = rho * float(zc.imag) + 8 * float(abs(zc))
    eps_q = 2 * math.pi * delta + 2
    slope = series.envelope_a * math.exp(
        min(a * a / (2 * ell) - ell / 2 - 2 * math.log(-math.expm1(-ell / 2)), 709.0)
    )
    tail = math.exp(min(log_tail + (prec + _GUARD) * math.log(2), 709.0))
    rounding *= 2.0 ** (prec + _GUARD + 1 - w)
    err = (1 + (tail + rounding + slope * eps_q) / float(scale)
           + (eps_q + 2) * _rel(pole, scale) + 2 * (_rel(acc, scale) + 1))
    return value, err
