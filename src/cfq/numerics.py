"""Polynomials from complex roots and certified rounding to integers.

Values are plain `mpmath.mpc` numbers.  Every function takes the working
precision in bits as an explicit `prec` argument and returns values rounded
to it; arithmetic on a returned value outside an `mp.workprec` block runs at
mpmath's global precision (53 bits by default).  The module builds monic
polynomials from their roots, rounds near-integer coefficient vectors with a
certified residual, and finds the roots of an integer polynomial by
Aberth-Ehrlich simultaneous iteration, which double-checks class polynomials
numerically.
"""

from __future__ import annotations

from dataclasses import dataclass

import mpmath
from mpmath import mp

from .errors import ConvergenceError, DomainError, RoundingFailureError
from .exactpoly import IntPoly, RatPoly

__all__ = [
    "PrecisionPolicy",
    "poly_from_roots",
    "round_to_int_poly",
    "find_roots",
]


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


def find_roots(p: IntPoly, prec: int) -> list[mpmath.mpc]:
    """All roots of a square-free integer polynomial, Aberth-Ehrlich iteration.

    Initial points sit on a circle of Fujiwara-bound radius, rotated by a
    fixed irrational angle so no initial point hits a symmetry axis.  Each
    returned root r satisfies |p(r)| < 2^(-prec/2) * max|coeff| and is
    rounded to prec bits.
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
    with mp.workprec(prec):
        return [+zi for zi in z]


def _horner(p: IntPoly, x):
    acc = mp.mpc(0)
    for c in reversed(p.coeffs):
        acc = acc * x + c
    return acc


def _rat_gcd(a: RatPoly, b: RatPoly) -> RatPoly:
    while not b.is_zero():
        a, b = b, a.divmod(b)[1]
    return a
