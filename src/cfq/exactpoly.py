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

from operator import attrgetter
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


class _Record:
    """The base of the package's value types.  A record's fields are its
    public `__slots__`, each set once by its class's `__init__`; it equals a
    record of its type with equal fields, hashes as their tuple, shows as
    Name(field=value, ...) and refuses assignment, so pickle and copy set
    every slot through `__setstate__`, private ones (derived state) too."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls._fields = tuple(name for name in cls.__slots__ if name[0] != "_")
        get = attrgetter(*cls._fields)  # of one name: the bare value, not its 1-tuple
        cls._key = get if len(cls._fields) > 1 else staticmethod(lambda record: (get(record),))

    def _set_fields(self, *values):
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name, *value):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def __getstate__(self):
        return {name: getattr(self, name) for name in self.__slots__ if hasattr(self, name)}

    def __setstate__(self, state):
        for name, value in state.items():
            object.__setattr__(self, name, value)


def _strip(coeffs: tuple) -> tuple:
    end = len(coeffs)
    while end > 0 and coeffs[end - 1] == 0:
        end -= 1
    return coeffs[:end]


class IntPoly(_Record):
    """Integer polynomial; coefficients lowest degree first."""

    __slots__ = ("coeffs",)

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


class LaurentExpr(_Record):
    """Finite expression sum_e c_e * beta^e in one variable, exponents and c_e in Z."""

    __slots__ = ("terms",)

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


def _times_y(f: list[int], m: list[int]) -> list[int]:
    """y f reduced modulo the monic y^d + m[d-1] y^(d-1) + ... + m[0], for len(f) <= d.

    The shift up by one degree, then one step of reduction, by c y^d =
    -c (m[d-1] y^(d-1) + ... + m[0]) for the one coefficient c that reaches
    y^d: the integers of `_mulmod(f, [0, 1], m)`, without its product.
    """
    shifted = [0, *f] + [0] * (len(m) - len(f))
    c = shifted.pop()
    return [a - c * b for a, b in zip(shifted, m)] if c else shifted


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
    u = [-c for c in mt[1:]] + [-1]
    # D = a^pos * m~(0)^neg, and c*beta^e*D is the integer
    # c * a^(pos-e) * m~(0)^(neg-k) times y^e (e >= 0) or u^k (k = -e > 0)
    den = a**pos * mt[0] ** neg
    num = [0] * d
    # each side's powers up one chain, its terms taken outward from e = 0
    terms = expr.terms
    for side in ([t for t in terms if t[0] >= 0], [t for t in reversed(terms) if t[0] < 0]):
        power, reached = [1], 0
        for e, c in side:
            k = max(0, -e)
            for _ in range(abs(e) - reached):
                power = _times_y(power, mt) if e > 0 else _mulmod(power, u, mt)
            reached = abs(e)
            scale = c * a ** (pos - e) * mt[0] ** (neg - k)
            for i, p in enumerate(power):
                num[i] += scale * p
    acc: list[int] = []
    den_power = 1
    for c in reversed(target.coeffs):
        acc = _mulmod(acc, num, mt)
        acc[0] += c * den_power
        den_power *= den
    return not any(acc)
