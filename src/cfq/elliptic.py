"""Order-2 elliptic elements of the Fricke group outside Gamma0(n).

An element is stored as the integer triple (A, B, C) with n*A^2 + B*C = -1,
B < 0, C > 0; it fixes the CM point (n*A + sqrt(-n))/(n*C).  The element's
`disc`, the discriminant of that point's imaginary quadratic order, is -n
exactly when B and C are both even (forcing n = 3 mod 4) and -4n otherwise.
The primitive quadratic form attached to an element places it in an ideal
class of that discriminant, and one representative of minimal C is produced
for every class.
"""

from __future__ import annotations

from itertools import count
from math import gcd

from .errors import DomainError
from .exactpoly import _Record, _integers
from .quadforms import ClassGroup, QuadForm, _reduce, enumerate_class_group

__all__ = [
    "EllipticElement",
    "CMPoint",
    "fixed_point",
    "enumerate_representatives",
]


class EllipticElement(_Record):
    """Trace-zero coset element sqrt(n) * [[A, B/n], [C, -A]], det 1; n, A, B, C are integers."""

    __slots__ = ("n", "A", "B", "C")

    def __init__(self, n: int, A: int, B: int, C: int):
        # ints, which every caller in the package passes, skip the check
        if not (type(n) is type(A) is type(B) is type(C) is int):
            n, A, B, C = _integers((n, A, B, C), "element entries")
        if n < 1:
            raise DomainError("level must be positive")
        if n * A**2 + B * C != -1:
            raise DomainError(f"(A,B,C)=({A},{B},{C}) violates n*A^2 + B*C = -1")
        if not (B < 0 < C):
            raise DomainError("normalization requires B < 0 and C > 0")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "C", C)

    @property
    def disc(self) -> int:
        """The discriminant of the fixed point's order: -n when B and C are both even, else -4n."""
        return _disc(self.n, self.B, self.C)

    def form(self) -> QuadForm:
        """The homogeneous quadratic form n*C x^2 - 2n*A xy - B y^2."""
        return QuadForm(self.n * self.C, -2 * self.n * self.A, -self.B)

    def primitive_form(self) -> QuadForm:
        """The primitive form attached to the element (half the form for disc -n)."""
        return QuadForm(*_primitive(self.n, self.A, self.B, self.C))


def _disc(n: int, B: int, C: int) -> int:
    """`EllipticElement.disc` of the entries n, B, C."""
    return -n if B % 2 == 0 and C % 2 == 0 else -4 * n


def _primitive(n: int, A: int, B: int, C: int) -> tuple[int, int, int]:
    """The coefficients of `EllipticElement.primitive_form` of the entries."""
    if _disc(n, B, C) == -n:
        return n * C // 2, -n * A, -B // 2
    return n * C, -2 * n * A, -B


class CMPoint(_Record):
    """Exact upper-half-plane point (u + v*sqrt(-n)) / w."""

    __slots__ = ("u", "v", "w", "n")

    def __init__(self, u: int, v: int, w: int, n: int):
        # ints, which every caller in the package passes, skip the check: it
        # would double the cost of a point
        if not (type(u) is type(v) is type(w) is type(n) is int):
            u, v, w, n = _integers((u, v, w, n), "CM point coordinates")
        if w == 0 or v == 0:
            raise DomainError("CM point requires v != 0 and w != 0")
        if n < 1:
            raise DomainError("level must be positive")
        if (v > 0) != (w > 0):
            raise DomainError("point must lie in the upper half plane")
        if w < 0:
            u, v, w = -u, -v, -w
        g = gcd(gcd(abs(u), v), w)
        object.__setattr__(self, "u", u // g)
        object.__setattr__(self, "v", v // g)
        object.__setattr__(self, "w", w // g)
        object.__setattr__(self, "n", n)


def fixed_point(alpha: EllipticElement) -> CMPoint:
    """The unique fixed point (n*A + sqrt(-n)) / (n*C) in the upper half plane."""
    n = alpha.n
    tau = CMPoint(n * alpha.A, 1, n * alpha.C, n)
    # exact zero check of the element's form (nC, -2nA, -B) at (tau, 1)
    # over Q(sqrt(-n)), on the integers
    a, b, c = n * alpha.C, -2 * n * alpha.A, -alpha.B
    u, v, w = tau.u, tau.v, tau.w
    rational = a * (u * u - n * v * v) + b * u * w + c * w * w
    irrational = 2 * a * u * v + b * v * w
    assert rational == 0 and irrational == 0
    return tau


def enumerate_representatives(
    n: int, disc: int, group: ClassGroup | None = None
) -> list[EllipticElement]:
    """One elliptic element per ideal class of disc, each with minimal C.

    The list order matches `enumerate_class_group(disc).classes`.  For each
    class, C = 1, 2, ... and A mod C are scanned; the first (A, B, C) whose
    primitive form lies in the class is kept, which maximizes the height of
    the fixed point.

    The scan has no bound on C, and it ends.  The form of (A, B, C) is the
    lattice [nC, nA + sqrt(-n)] = sqrt(-n) [-C sqrt(-n), 1 - A sqrt(-n)], and
    for C = p, an odd prime not dividing n, the second factor is a prime
    ideal of norm p: as A runs over the two roots of n A^2 = -1 mod p, the
    two primes above p.  For disc -n the same holds with C = 2p and the form
    halved, and B is then even.  Every class holds infinitely many primes
    (Dirichlet), so it holds a split prime p coprime to 2n, and the scan
    finds an element of the class by C = p, or 2p for disc -n.
    """
    if disc != -4 * n and not (disc == -n and n % 4 == 3):
        raise DomainError(f"disc {disc} invalid for level {n}")
    if group is not None and group.disc != disc:
        raise DomainError(f"class group of discriminant {group.disc} given for discriminant {disc}")
    cg = group if group is not None else enumerate_class_group(disc)
    # reduced (a, b, c) -> class index, for the classes still without an
    # element; a candidate is tested on ints, and made an element if it hits
    targets = {(f.a, f.b, f.c): k for k, f in enumerate(cg.classes)}
    found: dict[int, EllipticElement] = {}
    for c in count(1):
        if not targets:
            break
        for a0 in range(c):
            if (1 + n * a0 * a0) % c:
                continue
            b = -(1 + n * a0 * a0) // c
            if _disc(n, b, c) != disc:
                continue
            k = targets.pop(_reduce(*_primitive(n, a0, b, c)), None)
            if k is not None:
                found[k] = EllipticElement(n, a0, b, c)
    return [found[k] for k in range(cg.class_number)]
