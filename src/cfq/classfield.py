"""End-to-end pipeline: singular values and class polynomials.

`singular_values` evaluates a catalog principal modulus at one elliptic fixed
point per ideal class.  Every catalog q-expansion has rational coefficients,
so t(1 - conj(tau)) = conj(t(tau)); when the representatives of a class and
of its inverse fix such a mirror pair of points (up to a translation), only
the first is evaluated and the second gets the exact conjugate, the same
`numerics.Ball` with its imaginary part negated, so a class group with few
ambiguous classes costs about half its h evaluations.  A class that is its
own inverse, at a point that is its own mirror image, has a real value and
gets an imaginary part of exactly 0.
`ring_class_polynomial` multiplies out the monic polynomial with those roots
and rounds it to integers with a proof: each value is within the documented
bound of `evaluate` (2^(ERROR_BITS - prec) * max(1, |t|)), so each computed
coefficient lies in a ball around the true integer one, and the result is
accepted when every ball contains exactly one integer (`certify_int_poly`);
its residual and largest radius are exact dyadic fractions.
There is one round, at the policy's start, by default the 64-bit floor; a
refused round raises `RoundingFailureError` with the residual and the
tolerance.  Every catalog key that computes is accepted at 64 bits with a
margin of about 2^49, since its coefficients are small.
"""

from __future__ import annotations

from fractions import Fraction

from .elliptic import CMPoint, EllipticElement, enumerate_representatives, fixed_point
from .errors import DomainError
from .exactpoly import IntPoly, _Record, _integers
from .hauptmodul import ERROR_BITS, catalog_lookup, evaluate
from .numerics import Ball, PrecisionPolicy, _lowest, certify_int_poly
from .quadforms import ClassGroup, QuadForm, enumerate_class_group

__all__ = [
    "SingularValueSet",
    "ClassPolyResult",
    "singular_values",
    "ring_class_polynomial",
]


class SingularValueSet(_Record):
    """One principal-modulus value per class of one discriminant.

    Each entry is (the class's reduced form, its elliptic element, the
    element's fixed point, the value there).
    """

    __slots__ = ("n", "group", "disc", "entries", "class_group")

    def __init__(self, n: int, group: str, disc: int,
                 entries: tuple[tuple[QuadForm, EllipticElement, CMPoint, Ball], ...],
                 class_group: ClassGroup):
        self._set_fields(n, group, disc, entries, class_group)

    def values(self) -> list[Ball]:
        return [entry[3] for entry in self.entries]


class ClassPolyResult(_Record):
    """Accepted integer class polynomial with its rounding diagnostics.

    `residual` is the largest distance of a computed coefficient from its
    integer and `r_max` the largest coefficient radius, both exact dyadic
    fractions; their sum is below 1/2.
    """

    __slots__ = ("poly", "residual", "prec_bits", "points", "r_max")

    def __init__(self, poly: IntPoly, residual: Fraction, prec_bits: int,
                 points: SingularValueSet, r_max: Fraction):
        self._set_fields(poly, residual, prec_bits, points, r_max)


def singular_values(n: int, group: str, disc: int, prec: int) -> SingularValueSet:
    """Evaluate the catalog principal modulus at every class representative.

    A class whose inverse comes earlier in the list reuses the inverse's
    value, conjugated, when the two representatives are mirror images: the
    same C and A + A' = 0 mod C, so that the fixed points differ by
    1 - conj(tau) up to an integer translation.  Any other pair of
    representatives is evaluated directly.  A class that is its own inverse
    and whose representative is its own mirror image (2A = 0 mod C) has a
    real value, and reports it with an imaginary part of exactly 0.  Every
    value is in lowest terms, as `evaluate` returns it: at least one part
    odd, and zero as (0, 0, 0).
    """
    if type(n) is not int:
        (n,) = _integers((n,), "levels")
    spec = catalog_lookup(n, group)
    cg = enumerate_class_group(disc)
    reps = enumerate_representatives(n, disc, cg)
    entries = []
    for i, (form, alpha) in enumerate(zip(cg.classes, reps)):
        tau = fixed_point(alpha)
        j = cg.inverse_idx(i)
        mirror = reps[j]
        mirrored = mirror.C == alpha.C and (alpha.A + mirror.A) % alpha.C == 0
        if j < i and mirrored:
            # the exact conjugate, with no rounding
            value = entries[j][3]
            value = Ball(value.re, -value.im, value.exp, value.rad)
        else:
            value = evaluate(spec, tau, prec)
            if j == i and mirrored:
                # its own mirror image: t(tau) = conj(t(tau)) is real
                value = _lowest(value.re, 0, value.exp, value.rad)
        entries.append((form, alpha, tau, value))
    return SingularValueSet(n, group, disc, tuple(entries), cg)


def ring_class_polynomial(n: int, group: str, disc: int,
                          policy: PrecisionPolicy | None = None) -> ClassPolyResult:
    """Class polynomial from one certified round at policy.start_bits, by default 64.

    A refused round raises `RoundingFailureError` from `certify_int_poly`,
    and a policy that is not a `PrecisionPolicy` `DomainError`.
    """
    if policy is None:
        policy = PrecisionPolicy()
    elif not isinstance(policy, PrecisionPolicy):
        raise DomainError(f"the policy must be a PrecisionPolicy, got {policy!r}")
    prec = policy.start_bits
    vals = singular_values(n, group, disc, prec)
    # each value is within 2^(ERROR_BITS - prec) max(1, |t|) of t,
    # so within 2^(ERROR_BITS + 1 - prec) max(1, |value|)
    poly, residual, r_max = certify_int_poly(vals.values(), ERROR_BITS + 1 - prec, prec)
    assert poly.is_monic() and poly.degree == vals.class_group.class_number
    return ClassPolyResult(poly, residual, prec, vals, r_max)
