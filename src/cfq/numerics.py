"""Arbitrary-precision complex arithmetic and certified integer rounding.

`BigComplex` wraps a pair of mpmath floats together with the precision (in
bits) they were produced at; arithmetic runs at the maximum precision of the
operands.  On top of it sit polynomial construction from roots, rounding of
near-integer coefficient vectors with a certified residual, and an
Aberth-Ehrlich simultaneous root finder used to double-check class
polynomials numerically.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import mpmath
from mpmath import mp

from .errors import ConvergenceError, DomainError, RoundingFailureError
from .exactpoly import IntPoly, RatPoly

__all__ = [
    "BigComplex",
    "PrecisionPolicy",
    "poly_from_roots",
    "round_to_int_poly",
    "find_roots",
]


@dataclass(frozen=True)
class BigComplex:
    """Immutable complex value with explicit binary precision."""

    re: mpmath.mpf
    im: mpmath.mpf
    prec: int

    @classmethod
    def from_mpc(cls, z, prec: int) -> BigComplex:
        with mp.workprec(prec):
            return cls(mp.mpf(z.real) + 0, mp.mpf(z.imag) + 0, prec)

    @classmethod
    def from_int(cls, n: int, prec: int) -> BigComplex:
        with mp.workprec(prec):
            return cls(mp.mpf(n), mp.mpf(0), prec)

    @classmethod
    def from_fraction(cls, fr: Fraction, prec: int, imag: Fraction = Fraction(0)) -> BigComplex:
        with mp.workprec(prec):
            re = mp.mpf(fr.numerator) / fr.denominator
            im = mp.mpf(imag.numerator) / imag.denominator
            return cls(re, im, prec)

    def to_mpc(self) -> mpmath.mpc:
        with mp.workprec(self.prec):
            return mpmath.mpc(self.re, self.im)

    def _binary(self, other: BigComplex):
        return max(self.prec, other.prec)

    def __add__(self, other: BigComplex) -> BigComplex:
        p = self._binary(other)
        with mp.workprec(p):
            return BigComplex(self.re + other.re, self.im + other.im, p)

    def __sub__(self, other: BigComplex) -> BigComplex:
        p = self._binary(other)
        with mp.workprec(p):
            return BigComplex(self.re - other.re, self.im - other.im, p)

    def __mul__(self, other: BigComplex) -> BigComplex:
        p = self._binary(other)
        with mp.workprec(p):
            return BigComplex(
                self.re * other.re - self.im * other.im,
                self.re * other.im + self.im * other.re,
                p,
            )

    def __truediv__(self, other: BigComplex) -> BigComplex:
        p = self._binary(other)
        with mp.workprec(p):
            den = other.re * other.re + other.im * other.im
            if den == 0:
                raise ZeroDivisionError("division by zero BigComplex")
            return BigComplex(
                (self.re * other.re + self.im * other.im) / den,
                (self.im * other.re - self.re * other.im) / den,
                p,
            )

    def __neg__(self) -> BigComplex:
        with mp.workprec(self.prec):
            return BigComplex(-self.re, -self.im, self.prec)

    def conjugate(self) -> BigComplex:
        with mp.workprec(self.prec):
            return BigComplex(self.re, -self.im, self.prec)

    def abs(self) -> mpmath.mpf:
        with mp.workprec(self.prec):
            return mp.hypot(self.re, self.im)


@dataclass(frozen=True)
class PrecisionPolicy:
    """Escalation contract for assembling integer polynomials.

    Start at `start_bits` (defaulting to max(128, 10*degree + 32)), double on
    rounding failure or instability up to `max_bits`, and accept only when
    two consecutive precisions round to the same integer polynomial below
    2^-tol_log2.
    """

    start_bits: int | None = None
    max_bits: int = 16384
    tol_log2: int = 32

    def __post_init__(self):
        if self.start_bits is not None:
            if self.start_bits < 64:
                raise DomainError("start_bits must be at least 64")
            if self.max_bits < self.start_bits:
                raise DomainError("max_bits must be at least start_bits")

    def initial_bits(self, degree: int) -> int:
        if self.start_bits is not None:
            return self.start_bits
        return max(128, 10 * degree + 32)

    def tolerance(self, prec: int) -> mpmath.mpf:
        with mp.workprec(prec):
            return mp.mpf(2) ** (-self.tol_log2)


def poly_from_roots(values: list[BigComplex]) -> list[BigComplex]:
    """Monic polynomial with the given roots; coefficients lowest degree first."""
    if not values:
        raise DomainError("need at least one root")
    prec = max(v.prec for v in values)
    one = BigComplex.from_int(1, prec)
    zero = BigComplex.from_int(0, prec)
    coeffs = [one]
    for r in values:
        nxt = [zero] + coeffs
        coeffs = [nxt[k] - (coeffs[k] * r if k < len(coeffs) else zero) for k in range(len(nxt))]
    return coeffs


def round_to_int_poly(coeffs: list[BigComplex], tol) -> tuple[IntPoly, mpmath.mpf]:
    """Round coefficients to nearest integers; fail if any is off by >= tol.

    The residual is the largest complex distance from a coefficient to its
    rounded value (imaginary parts count in full).
    """
    tol = mpmath.mpf(tol)
    if tol <= 0:
        raise DomainError("tolerance must be positive")
    prec = max(c.prec for c in coeffs)
    rounded = []
    with mp.workprec(prec + 8):
        residual = mp.mpf(0)
        for c in coeffs:
            n = int(mpmath.nint(c.re))
            residual = max(residual, mp.hypot(c.re - n, c.im))
            rounded.append(n)
    if residual >= tol:
        raise RoundingFailureError(residual, tol)
    return IntPoly(rounded), residual


def _fujiwara_bound(p: IntPoly, prec: int) -> mpmath.mpf:
    with mp.workprec(prec):
        n = p.degree
        lead = mp.mpf(abs(p.coeffs[-1]))
        bound = mp.mpf(0)
        for k in range(n):
            c = abs(p.coeffs[k])
            if c:
                bound = max(bound, (mp.mpf(c) / lead) ** (mp.mpf(1) / (n - k)))
        return 2 * bound if bound > 0 else mp.mpf(1)


def find_roots(p: IntPoly, prec: int) -> list[BigComplex]:
    """All roots of a square-free integer polynomial, Aberth-Ehrlich iteration.

    Initial points sit on a circle of Fujiwara-bound radius, rotated by a
    fixed irrational angle so no initial point hits a symmetry axis.  Each
    returned root r satisfies |p(r)| < 2^(-prec/2) * max|coeff|.
    """
    n = p.degree
    if n < 1:
        raise DomainError("polynomial must have positive degree")
    gcd_pd = _rat_gcd(p.to_rat(), p.derivative().to_rat())
    if gcd_pd.degree != 0:
        raise DomainError("polynomial is not square-free")
    dp = p.derivative()
    work = prec + 32
    with mp.workprec(work):
        radius = _fujiwara_bound(p, work)
        theta0 = mp.mpf(1) / mp.sqrt(2)
        z = [
            radius * mp.exp(1j * (2 * mp.pi * k / n + theta0))
            for k in range(n)
        ]
        step_tol = mp.mpf(2) ** (-prec - 8)
        for _ in range(500):
            max_step = mp.mpf(0)
            for i in range(n):
                pv = _horner(p, z[i])
                dv = _horner(dp, z[i])
                if pv == 0:
                    continue
                newton = pv / dv if dv != 0 else mp.mpc(1)
                acc = mp.mpc(0)
                for j in range(n):
                    if j != i:
                        dz = z[i] - z[j]
                        if dz == 0:
                            dz = mp.mpc(step_tol)
                        acc += 1 / dz
                denom = 1 - newton * acc
                delta = newton / denom if denom != 0 else newton
                z[i] = z[i] - delta
                max_step = max(max_step, abs(delta) / (1 + abs(z[i])))
            if max_step < step_tol:
                break
        else:
            raise ConvergenceError("root iteration did not converge in 500 rounds")
        norm = max(abs(c) for c in p.coeffs)
        limit = mp.mpf(2) ** (-prec // 2) * norm
        for zi in z:
            if abs(_horner(p, zi)) >= limit:
                raise ConvergenceError(
                    f"root residual {abs(_horner(p, zi))} above {limit}"
                )
    return [BigComplex.from_mpc(zi, prec) for zi in z]


def _horner(p: IntPoly, x):
    acc = mp.mpc(0)
    for c in reversed(p.coeffs):
        acc = acc * x + c
    return acc


def _rat_gcd(a: RatPoly, b: RatPoly) -> RatPoly:
    while not b.is_zero():
        a, b = b, a.divmod(b)[1]
    return a
