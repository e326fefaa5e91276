"""Exact univariate polynomials over the integers and exact root relations.

Arbitrary-magnitude integers are Python ints, the coefficients of an
`IntPoly` and of a `LaurentExpr` alike; both refuse a non-integer, a value
whose denominator is not 1 (`_integers`), rather than truncate it.
Polynomials are dense, lowest degree first, with a nonzero leading
coefficient unless zero.

`verify_root_relation` works in integers only: it makes the modulus monic by
scaling the variable, and carries one common denominator.  There is no
rounding anywhere in this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .errors import DomainError, InvalidModulusError, NonInvertibleError

__all__ = [
    "IntPoly",
    "LaurentExpr",
    "verify_root_relation",
]


def _integers(values, what: str) -> tuple[int, ...]:
    """values as ints; DomainError unless each is an integer, its denominator 1."""
    values = tuple(values)
    if any(getattr(c, "denominator", None) != 1 for c in values):
        raise DomainError(f"{what} must be integers, got {values}")
    return tuple(map(int, values))


def _strip(coeffs: tuple) -> tuple:
    end = len(coeffs)
    while end > 0 and coeffs[end - 1] == 0:
        end -= 1
    return coeffs[:end]


@dataclass(frozen=True)
class IntPoly:
    """Integer polynomial; coefficients lowest degree first."""

    coeffs: tuple[int, ...]

    def __init__(self, coeffs: Iterable[int]):
        object.__setattr__(self, "coeffs", _strip(_integers(coeffs, "polynomial coefficients")))

    @property
    def degree(self) -> int:
        """Degree; the zero polynomial has degree -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __getitem__(self, k: int) -> int:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0


@dataclass(frozen=True)
class LaurentExpr:
    """Finite expression sum_e c_e * beta^e in one variable, exponents and c_e in Z."""

    terms: tuple[tuple[int, int], ...]

    def __init__(self, terms: Mapping[int, int]):
        pairs = zip(_integers(terms, "Laurent exponents"),
                    _integers(terms.values(), "Laurent coefficients"))
        cleaned = tuple(sorted((e, c) for e, c in pairs if c))
        object.__setattr__(self, "terms", cleaned)

    def min_exponent(self) -> int:
        return self.terms[0][0] if self.terms else 0


def _require_modulus(m: IntPoly) -> None:
    if m.is_zero():
        raise InvalidModulusError("modulus is the zero polynomial")
    if m.degree < 1:
        raise InvalidModulusError("modulus must have degree at least 1")


def _mulmod(f: list[int], g: list[int], m: list[int]) -> list[int]:
    """f * g reduced modulo the monic x^d + m[d-1] x^(d-1) + ... + m[0]."""
    d = len(m)
    out = [0] * max(d, len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] += a * b
    for top in range(len(out) - 1, d - 1, -1):
        c = out[top]
        if c:
            base = top - d
            for j, mj in enumerate(m):
                out[base + j] -= c * mj
    del out[d:]
    return out


def verify_root_relation(expr: LaurentExpr, target: IntPoly, modulus: IntPoly) -> bool:
    """Decide whether expr(beta) is a root of target, for beta a root of modulus.

    Works in Z[y]/(m~) for the monic m~(y) = a^(d-1) modulus(y/a), where a is
    the leading coefficient and d the degree, so that y = a*beta.  Then
    beta = y/a and beta^-1 = a*u/m~(0) with u = -(m~ - m~(0))/y, and
    expr(beta) = N/D for an integer residue N and one integer D != 0.  The
    relation holds iff D^deg(target) * target(N/D), summed by homogeneous
    Horner, is the zero residue.
    """
    _require_modulus(modulus)
    d = modulus.degree
    a = modulus.coeffs[-1]
    # m~ without its leading 1, lowest degree first
    mt = [c * a ** (d - 1 - k) for k, c in enumerate(modulus.coeffs[:-1])]
    pos = max([0] + [e for e, _ in expr.terms])
    neg = max(0, -expr.min_exponent())
    if neg and mt[0] == 0:
        raise NonInvertibleError(
            "modulus has zero constant term; negative powers are undefined"
        )
    y = _mulmod([1], [0, 1], mt)
    u = [-c for c in mt[1:]] + [-1]
    # D = a^pos * m~(0)^neg, and c*beta^e*D is the integer
    # c * a^(pos-e) * m~(0)^(neg-k) times y^e (e >= 0) or u^k (k = -e > 0)
    den = a**pos * mt[0] ** neg
    num = [0] * d
    for e, c in expr.terms:
        k = max(0, -e)
        scale = c * a ** (pos - e) * mt[0] ** (neg - k)
        power = [1]
        for _ in range(abs(e)):
            power = _mulmod(power, y if e > 0 else u, mt)
        for i, p in enumerate(power):
            num[i] += scale * p
    acc: list[int] = []
    den_power = 1
    for c in reversed(target.coeffs):
        acc = _mulmod(acc, num, mt)
        acc[0] += c * den_power
        den_power *= den
    return not any(acc)
