"""End-to-end pipeline: singular values, class polynomials, Galois action.

`singular_values` evaluates a catalog principal modulus at one elliptic fixed
point per ideal class.  Every catalog q-expansion has rational coefficients,
so t(1 - conj(tau)) = conj(t(tau)); when the representatives of a class and
of its inverse fix such a mirror pair of points (up to a translation), only
the first is evaluated and the second gets the exact conjugate, so a class
group with few ambiguous classes costs about half its h evaluations.
`ring_class_polynomial` multiplies out the monic polynomial with those roots
and rounds it to integers under a precision escalation contract (double the
working precision until two consecutive precisions round to the same integer
polynomial).  The Galois side of the theory is realized combinatorially:
`galois_permutation` translates the class list by a fixed class through form
composition.
"""

from __future__ import annotations

from dataclasses import dataclass

import mpmath
from mpmath import mp

from .elliptic import CMPoint, EllipticElement, enumerate_representatives, fixed_point
from .errors import (
    DomainError,
    EscalationFailureError,
    InsufficientDataError,
    RoundingFailureError,
)
from .exactpoly import IntPoly
from .hauptmodul import catalog_lookup, evaluate
from .numerics import PrecisionPolicy, poly_from_roots, round_to_int_poly
from .quadforms import ClassGroup, IdealClass, enumerate_class_group

__all__ = [
    "SingularValueSet",
    "ClassPolyResult",
    "singular_values",
    "ring_class_polynomial",
    "galois_permutation",
]


@dataclass(frozen=True)
class SingularValueSet:
    """One principal-modulus value per ideal class of one discriminant."""

    n: int
    group: str
    disc: int
    entries: tuple[tuple[IdealClass, EllipticElement, CMPoint, mpmath.mpc], ...]
    prec: int
    class_group: ClassGroup

    def values(self) -> list[mpmath.mpc]:
        return [entry[3] for entry in self.entries]


@dataclass(frozen=True)
class ClassPolyResult:
    """Accepted integer class polynomial with its rounding diagnostics."""

    poly: IntPoly
    residual: mpmath.mpf
    prec_bits: int
    points: SingularValueSet

    def to_json_dict(self) -> dict:
        dps = max(17, int(self.prec_bits * 0.302) + 2)
        points = []
        for cls, alpha, _tau, value in self.points.entries:
            points.append(
                {
                    "class": cls.rep.text(),
                    "element": alpha.text(),
                    "value_re": mpmath.nstr(value.real, dps),
                    "value_im": mpmath.nstr(value.imag, dps),
                }
            )
        return {
            "level": self.points.n,
            "group": self.points.group,
            "disc": self.points.disc,
            "class_number": self.points.class_group.class_number,
            "poly": [str(c) for c in self.poly.coeffs],
            "residual": mpmath.nstr(self.residual, 10),
            "prec_bits": self.prec_bits,
            "points": points,
        }


def singular_values(
    n: int,
    group: str,
    disc: int,
    prec: int,
    data_dir=None,
    *,
    spec=None,
    class_group: ClassGroup | None = None,
    reps: list[EllipticElement] | None = None,
) -> SingularValueSet:
    """Evaluate the catalog principal modulus at every class representative.

    `spec`, `class_group` and `reps` let a caller that evaluates the same
    (level, group, disc) at several precisions look each of them up once;
    any left out is computed here.

    A class whose inverse comes earlier in the list reuses the inverse's
    value, conjugated, when the two representatives are mirror images: the
    same C and A + A' = 0 mod C, so that the fixed points differ by
    1 - conj(tau) up to an integer translation.  Any other pair of
    representatives is evaluated directly.
    """
    if spec is None:
        spec = catalog_lookup(n, group, data_dir)
    cg = class_group if class_group is not None else enumerate_class_group(disc)
    if reps is None:
        reps = enumerate_representatives(n, disc, cg)
    entries = []
    for i, (cls, alpha) in enumerate(zip(cg.classes, reps)):
        tau = fixed_point(alpha)
        j = cg.inverse_idx(i)
        mirror = reps[j]
        if j < i and mirror.C == alpha.C and (alpha.A + mirror.A) % alpha.C == 0:
            # conjugating outside workprec would round to mpmath's global 53 bits
            with mp.workprec(prec):
                value = mp.conj(entries[j][3])
        else:
            value = evaluate(spec, tau, prec)
        entries.append((cls, alpha, tau, value))
    return SingularValueSet(n, group, disc, tuple(entries), prec, cg)


def ring_class_polynomial(
    n: int,
    group: str,
    disc: int,
    policy: PrecisionPolicy | None = None,
    data_dir=None,
) -> ClassPolyResult:
    """Class polynomial under the escalation contract.

    Runs the pipeline at doubling precisions until two consecutive rounds
    produce the same integer polynomial within the rounding tolerance, then
    returns the higher-precision result.  The catalog entry, the class group
    and the representatives are computed once, before the first round.
    """
    policy = policy or PrecisionPolicy()
    cg = enumerate_class_group(disc)
    spec = catalog_lookup(n, group, data_dir)
    reps = enumerate_representatives(n, disc, cg)
    degree = cg.class_number
    prec = policy.initial_bits(degree)
    history: list[str] = []
    previous: tuple[IntPoly, ClassPolyResult] | None = None
    while prec <= policy.max_bits:
        try:
            vals = singular_values(
                n, group, disc, prec, data_dir, spec=spec, class_group=cg, reps=reps
            )
            coeffs = poly_from_roots(vals.values(), prec)
            poly, residual = round_to_int_poly(coeffs, policy.tolerance(prec), prec)
        except RoundingFailureError as exc:
            history.append(f"{prec} bits: rounding failed, residual {exc.residual}")
            previous = None
            prec *= 2
            continue
        except InsufficientDataError as exc:
            history.append(f"{prec} bits: {exc}")
            raise EscalationFailureError(
                f"q-series data cannot support {prec}-bit evaluation for "
                f"(level {n}, {group}, disc {disc})",
                history,
            ) from exc
        result = ClassPolyResult(poly, residual, prec, vals)
        if previous is not None and previous[0] == poly:
            assert poly.is_monic() and poly.degree == degree
            return result
        history.append(f"{prec} bits: rounded to {poly.text()}")
        previous = (poly, result)
        prec *= 2
    raise EscalationFailureError(
        f"no stable integer polynomial up to {policy.max_bits} bits for "
        f"(level {n}, {group}, disc {disc})",
        history,
    )


def galois_permutation(beta: IdealClass, values: SingularValueSet) -> tuple[int, ...]:
    """Index permutation sending each class [a] to [a] * [beta]^-1."""
    if beta.disc != values.disc:
        raise DomainError(
            f"class discriminant {beta.disc} does not match value set {values.disc}"
        )
    cg = values.class_group
    j = cg.index_of(beta)
    jinv = cg.inverse_idx(j)
    return tuple(cg.compose_idx(i, jinv) for i in range(cg.class_number))
