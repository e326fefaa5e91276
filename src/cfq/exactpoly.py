"""Exact univariate polynomial algebra over the integers and rationals.

Arbitrary-magnitude integers are Python ints and rationals are
`fractions.Fraction` (always in lowest terms with positive denominator), so
the two scalar types carry their invariants for free.  Polynomials are dense,
lowest degree first, with a nonzero leading coefficient unless zero.

The residue-ring operations `polymod_reduce` and `polymod_invert` work over
the rationals by exact long division and the extended Euclidean algorithm.
`verify_root_relation` works in integers only: it makes the modulus monic by
scaling the variable, and carries one common denominator.  There is no
rounding anywhere in this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

from .errors import InvalidModulusError, NonInvertibleError

__all__ = [
    "IntPoly",
    "RatPoly",
    "LaurentExpr",
    "polymod_reduce",
    "polymod_invert",
    "verify_root_relation",
]


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
        object.__setattr__(self, "coeffs", _strip(tuple(int(c) for c in coeffs)))

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

    def __neg__(self) -> IntPoly:
        return IntPoly(-c for c in self.coeffs)

    def __add__(self, other: IntPoly) -> IntPoly:
        n = max(len(self.coeffs), len(other.coeffs))
        return IntPoly(self[k] + other[k] for k in range(n))

    def __sub__(self, other: IntPoly) -> IntPoly:
        n = max(len(self.coeffs), len(other.coeffs))
        return IntPoly(self[k] - other[k] for k in range(n))

    def __mul__(self, other: IntPoly) -> IntPoly:
        if self.is_zero() or other.is_zero():
            return IntPoly(())
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return IntPoly(out)

    def derivative(self) -> IntPoly:
        return IntPoly(k * c for k, c in enumerate(self.coeffs) if k > 0)

    def evaluate(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def to_rat(self) -> RatPoly:
        return RatPoly(Fraction(c) for c in self.coeffs)

    def text(self) -> str:
        """Comma-separated decimal coefficients, lowest degree first."""
        return ",".join(str(c) for c in self.coeffs)

    @classmethod
    def from_text(cls, s: str) -> IntPoly:
        return cls(int(part) for part in s.split(","))

    @classmethod
    def x_power(cls, k: int) -> IntPoly:
        return cls([0] * k + [1])


@dataclass(frozen=True)
class RatPoly:
    """Rational polynomial; coefficients lowest degree first."""

    coeffs: tuple[Fraction, ...]

    def __init__(self, coeffs: Iterable[Fraction | int]):
        object.__setattr__(
            self, "coeffs", _strip(tuple(Fraction(c) for c in coeffs))
        )

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __getitem__(self, k: int) -> Fraction:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else Fraction(0)

    def __neg__(self) -> RatPoly:
        return RatPoly(-c for c in self.coeffs)

    def __add__(self, other: RatPoly) -> RatPoly:
        n = max(len(self.coeffs), len(other.coeffs))
        return RatPoly(self[k] + other[k] for k in range(n))

    def __sub__(self, other: RatPoly) -> RatPoly:
        n = max(len(self.coeffs), len(other.coeffs))
        return RatPoly(self[k] - other[k] for k in range(n))

    def __mul__(self, other: RatPoly) -> RatPoly:
        if self.is_zero() or other.is_zero():
            return RatPoly(())
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return RatPoly(out)

    def scale(self, c) -> RatPoly:
        c = Fraction(c)
        return RatPoly(c * a for a in self.coeffs)

    def evaluate(self, x):
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def divmod(self, other: RatPoly) -> tuple[RatPoly, RatPoly]:
        """Exact division with remainder; deg(remainder) < deg(other)."""
        if other.is_zero():
            raise InvalidModulusError("division by the zero polynomial")
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return RatPoly(()), self
        quo = [Fraction(0)] * (dq + 1)
        lead = other.coeffs[-1]
        for top in range(len(rem) - 1, len(other.coeffs) - 2, -1):
            c = rem[top]
            if c == 0:
                continue
            f = c / lead
            shift = top - (len(other.coeffs) - 1)
            quo[shift] = f
            for j, b in enumerate(other.coeffs):
                rem[shift + j] -= f * b
        return RatPoly(quo), RatPoly(rem)

    def to_int(self) -> IntPoly:
        """Convert when every coefficient is integral; raises otherwise."""
        if any(c.denominator != 1 for c in self.coeffs):
            raise ValueError("polynomial has non-integer coefficients")
        return IntPoly(c.numerator for c in self.coeffs)


@dataclass(frozen=True)
class LaurentExpr:
    """Finite expression sum_e c_e * beta^e in one variable, exponents in Z."""

    terms: tuple[tuple[int, Fraction], ...]

    def __init__(self, terms: Mapping[int, Fraction | int]):
        cleaned = tuple(
            sorted((int(e), Fraction(c)) for e, c in terms.items() if c != 0)
        )
        object.__setattr__(self, "terms", cleaned)

    def min_exponent(self) -> int:
        return self.terms[0][0] if self.terms else 0


def _require_modulus(m: RatPoly) -> None:
    if m.is_zero():
        raise InvalidModulusError("modulus is the zero polynomial")
    if m.degree < 1:
        raise InvalidModulusError("modulus must have degree at least 1")


def polymod_reduce(p: RatPoly, m: RatPoly) -> RatPoly:
    """Remainder of p modulo m by exact long division."""
    _require_modulus(m)
    return p.divmod(m)[1]


def polymod_invert(g: RatPoly, m: RatPoly) -> RatPoly:
    """Inverse of g in Q[x]/(m) via the extended Euclidean algorithm."""
    _require_modulus(m)
    # invariants: r0 = s0*g + t0*m, r1 = s1*g + t1*m
    r0, r1 = polymod_reduce(g, m), m
    s0, s1 = RatPoly([1]), RatPoly(())
    while not r1.is_zero():
        q, r = r0.divmod(r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
    if r0.degree != 0:
        raise NonInvertibleError(
            f"gcd has degree {r0.degree}; element is not invertible"
        )
    inv = s0.scale(Fraction(1) / r0.coeffs[0])
    return polymod_reduce(inv, m)


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
    lcm = math.lcm(*(c.denominator for _, c in expr.terms))
    # D = lcm * a^pos * m~(0)^neg, and c*beta^e*D is the integer
    # c*lcm * a^(pos-e) * m~(0)^(neg-k) times y^e (e >= 0) or u^k (k = -e > 0)
    den = lcm * a**pos * mt[0] ** neg
    num = [0] * d
    for e, c in expr.terms:
        k = max(0, -e)
        scale = c.numerator * (lcm // c.denominator) * a ** (pos - e) * mt[0] ** (neg - k)
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
