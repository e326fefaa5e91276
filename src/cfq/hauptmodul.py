"""Catalog and evaluation of principal moduli for genus-zero levels.

Three kinds of entry, each normalized so the q-expansion is q^-1 + 0 + O(q):

  * eta quotients for the levels where the congruence group itself has genus
    zero (built-in exponent tables, validated by the test suite rather than
    trusted);
  * Fricke symmetrizations t + kappa/t of those quotients, which are
    principal moduli for the corresponding Fricke groups;
  * ingested q-series coefficient files for Fricke-only levels (the package
    ships the level-71 series and the level-1 modular invariant).

Evaluation of a q-series entry first ascends through translations and the
Fricke flip (`fricke_reduce`), then sums the series in fixed-point integer
arithmetic, at a width that bounds the rounding error of the summed terms by
2^-(prec+guard), until an empirical tail criterion holds (32 consecutive
terms below 2^-(prec+8)); eta-quotient entries are valid anywhere because
eta itself reduces its argument.
"""

from __future__ import annotations

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
    DataFileMissingError,
    DomainError,
    InsufficientDataError,
    NotGenusZeroError,
    QSeriesFormatError,
)
from .eta import EtaQuotientSpec, eta_quotient

__all__ = [
    "EtaQuotientHaupt",
    "FrickeSymHaupt",
    "QSeriesHaupt",
    "GAMMA0_LEVELS",
    "FRICKE_LEVELS",
    "catalog_lookup",
    "catalog_entries",
    "load_qseries",
    "fricke_reduce",
    "evaluate",
]

_GUARD = 48
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
    """Principal modulus given by an eta quotient plus a constant shift."""

    level: int
    spec: EtaQuotientSpec
    const_shift: int


@dataclass(frozen=True)
class FrickeSymHaupt:
    """Principal modulus t + kappa/t + shift for a Fricke group."""

    level: int
    base: EtaQuotientSpec
    kappa: int
    const_shift: int

    def __post_init__(self):
        if self.kappa <= 0:
            raise DomainError("kappa must be positive")


@dataclass(frozen=True)
class QSeriesHaupt:
    """Principal modulus known through its q-expansion coefficients."""

    label: str
    n: int
    group: str
    q_min: int
    coeffs: tuple[int, ...]
    # bit length of the largest |coefficient|, which sizes the fixed-point sum
    coeff_bits: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        bits = max(map(abs, self.coeffs), default=0).bit_length()
        object.__setattr__(self, "coeff_bits", bits)


def _kappa(n: int, terms) -> int:
    val = Fraction(1)
    for d, r in terms:
        val *= Fraction(n // d) ** r
    assert val.denominator == 1
    root = isqrt(val.numerator)
    assert root * root == val.numerator
    return root


def _const_shift(terms) -> int:
    # q-expansion of the quotient is q^-1 - r_1 + O(q)
    for d, r in terms:
        if d == 1:
            return r
    return 0


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

    Line 1: "# label=<text> level=<int> group=<gamma0|fricke> q_min=-1".
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
    if fields["group"] not in ("gamma0", "fricke"):
        raise QSeriesFormatError("header", f"{path}: group must be gamma0|fricke")
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
    return QSeriesHaupt(
        label=fields["label"],
        n=level,
        group=fields["group"],
        q_min=q_min,
        coeffs=tuple(coeffs),
    )


def _qseries_filename(n: int, group: str) -> str:
    return f"{group}_{n}.qseries"


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
        if n == 1:
            return _load_from_dirs(n, group, data_dir)
        terms = _ETA_TABLE[n]
        return EtaQuotientHaupt(n, EtaQuotientSpec(terms), _const_shift(terms))
    if group == "fricke":
        if n not in FRICKE_LEVELS:
            raise NotGenusZeroError(
                f"level {n} is not in the genus-zero list for the Fricke group"
            )
        if n in _ETA_TABLE:
            terms = _ETA_TABLE[n]
            return FrickeSymHaupt(
                n, EtaQuotientSpec(terms), _kappa(n, terms), _const_shift(terms)
            )
        return _load_from_dirs(n, group, data_dir)
    raise DomainError(f"unknown group {group!r}")


def _load_from_dirs(n: int, group: str, data_dir) -> QSeriesHaupt:
    name = _qseries_filename(n, group)
    for d in _data_dirs(data_dir):
        candidate = d / name
        if candidate.is_file():
            series = load_qseries(candidate)
            if series.n != n or series.group != group:
                raise QSeriesFormatError(
                    "header",
                    f"{candidate}: header ({series.n}, {series.group}) does not "
                    f"match catalog entry ({n}, {group})",
                )
            return series
    raise DataFileMissingError(
        f"no q-series file {name!r} in {[str(d) for d in _data_dirs(data_dir)]}"
    )


def catalog_entries(data_dir=None) -> list[dict]:
    """Inventory of all catalog keys with entry kind and data availability."""
    out = []
    for n in sorted(GAMMA0_LEVELS):
        kind = "qseries" if n == 1 else "eta-quotient"
        entry = {"level": n, "group": "gamma0", "kind": kind}
        if kind == "qseries":
            entry["available"] = _available(n, "gamma0", data_dir)
        out.append(entry)
    for n in sorted(FRICKE_LEVELS):
        kind = "fricke-sym" if n in _ETA_TABLE else "qseries"
        entry = {"level": n, "group": "fricke", "kind": kind}
        if kind == "qseries":
            entry["available"] = _available(n, "fricke", data_dir)
        out.append(entry)
    return out


def _available(n: int, group: str, data_dir) -> bool:
    name = _qseries_filename(n, group)
    return any((d / name).is_file() for d in _data_dirs(data_dir))


def fricke_reduce(tau, n: int, prec: int) -> mpmath.mpc:
    """Ascend under tau -> tau+1 and tau -> -1/(n tau) until stable.

    Works at prec + guard bits and rounds the result to prec bits.  The
    output has |Re| <= 1/2 + 2^-20 and n|tau|^2 >= 1 - 2^-20, and its
    imaginary part is never below the input's.
    """
    with mp.workprec(prec + _GUARD):
        z = mp.mpc(tau)
        if z.imag <= 0:
            raise DomainError("point must lie in the upper half plane")
        eps = mp.mpf(2) ** -24
        for _ in range(100000):
            k = int(mp.nint(z.real))
            if k:
                z -= k
            if n * (z.real**2 + z.imag**2) < 1 - eps:
                z = -1 / (n * z)
            else:
                break
        else:
            raise DomainError("Fricke reduction did not terminate")
    with mp.workprec(prec):
        return +z


def evaluate(spec, tau, prec: int) -> mpmath.mpc:
    """Value of a principal modulus at tau, rounded to prec bits.

    tau is a CMPoint or any complex number in the upper half plane; the
    value is computed at prec + guard bits.
    """
    with mp.workprec(prec + _GUARD):
        if isinstance(tau, CMPoint):
            z = (tau.u + mp.sqrt(tau.n) * mp.mpc(0, tau.v)) / tau.w
        else:
            z = tau
        if isinstance(spec, EtaQuotientHaupt):
            value = eta_quotient(spec.spec, z, prec + _GUARD) + spec.const_shift
        elif isinstance(spec, FrickeSymHaupt):
            t = eta_quotient(spec.base, z, prec + _GUARD)
            if t == 0:
                raise DomainError("eta quotient vanished at the evaluation point")
            value = t + spec.kappa / t + spec.const_shift
        elif isinstance(spec, QSeriesHaupt):
            value = _evaluate_qseries(spec, z, prec)
        else:
            raise DomainError(f"unknown principal-modulus description {spec!r}")
    with mp.workprec(prec):
        return +value


def _evaluate_qseries(series: QSeriesHaupt, z, prec: int) -> mpmath.mpc:
    """The series at z, at the working precision evaluate sets (prec + guard)."""
    # a Fricke-group function is invariant under the full ascent; a level-1
    # series is too, because the flip is then an ordinary modular substitution
    if series.group == "fricke" or series.n == 1:
        z = fricke_reduce(z, series.n, prec + _GUARD)
    coeffs = series.coeffs
    # Fixed point at scale 2^w.  q is truncated to integers (error < 2^-w per
    # component), and each step q^j -> q^(j+1) truncates again, so the
    # computed power p_j satisfies |p_j - q^j| < 4j * 2^-w while |q| < 1.
    # Summing |c_j| |p_j - q^j| with |c_j| < 2^b over j < n < 2^l gives at
    # most 2^(b+1) n^2 2^-w <= 2^-(prec+_GUARD) for w as chosen below.
    b = series.coeff_bits
    w = prec + _GUARD + b + 2 * len(coeffs).bit_length() + 2
    zc = mp.mpc(z)
    if zc.imag <= 0:
        raise DomainError("point must lie in the upper half plane")
    if series.group == "gamma0" and series.n != 1:
        k = int(mp.nint(zc.real))
        if k:
            zc -= k
    q = mp.exp(2j * mp.pi * zc)
    qr, qi = int(mp.ldexp(q.real, w)), int(mp.ldexp(q.imag, w))
    # a term is quiet when both components are below 2^-(prec+9), so
    # its modulus is below 2^-(prec+8)
    quiet_bits = w - prec - 9
    pr, pi = 1 << w, 0
    acc_r = acc_i = 0
    quiet = 0
    for k in range(1, len(coeffs)):
        # index k holds the coefficient of q^(k-1); (pr, pi) is q^(k-1)
        c = coeffs[k]
        if c:
            tr, ti = c * pr, c * pi
            acc_r += tr
            acc_i += ti
        else:
            tr, ti = pr, pi
        pr, pi = (pr * qr - pi * qi) >> w, (pr * qi + pi * qr) >> w
        if tr.bit_length() <= quiet_bits and ti.bit_length() <= quiet_bits:
            quiet += 1
            if quiet >= 32:
                acc = mp.mpc(mp.ldexp(acc_r, -w), mp.ldexp(acc_i, -w))
                return coeffs[0] / q + acc
        else:
            quiet = 0
    # a term among the last 32 was at least 2^-(prec+9) with |c| < 2^b,
    # so |q|^(have-33) > 2^-(prec+9+b) and this estimate exceeds have
    absq = abs(q)
    needed = int((prec + 9 + b) * mp.log(2) / -mp.log(absq)) + 64
    raise InsufficientDataError(mp.nstr(absq, 8), len(coeffs), needed)
