"""Positive definite binary quadratic forms and their class groups.

A class of Cl(d) is its unique reduced primitive form (Gauss), and every
class in the package is that form.  Covers Gauss reduction to the reduced
form of an SL2(Z) class, Dirichlet composition of primitive forms by extended
gcd, and brute-force class group enumeration (the Cayley table is composed
only when first read).
"""

from __future__ import annotations

from math import gcd, isqrt

from .errors import DomainError
from .exactpoly import _Record, _integers

__all__ = [
    "QuadForm",
    "ClassGroup",
    "reduce_form",
    "compose",
    "enumerate_class_group",
]


class QuadForm(_Record):
    """a*x^2 + b*x*y + c*y^2 with integer coefficients; a non-integer is refused."""

    __slots__ = ("a", "b", "c")

    def __init__(self, a: int, b: int, c: int):
        # ints, which every caller in the package passes, skip the check
        if not (type(a) is type(b) is type(c) is int):
            a, b, c = _integers((a, b, c), "form coefficients")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)

    @property
    def disc(self) -> int:
        return self.b * self.b - 4 * self.a * self.c

    @property
    def content(self) -> int:
        return gcd(gcd(self.a, self.b), self.c)

    def is_positive_definite(self) -> bool:
        return self.disc < 0 and self.a > 0

    def is_primitive(self) -> bool:
        return self.content == 1

    def inverse(self) -> QuadForm:
        return QuadForm(self.a, -self.b, self.c)

    def is_reduced(self) -> bool:
        a, b, c = self.a, self.b, self.c
        if not (-a < b <= a <= c):
            return False
        if (a == c or a == abs(b)) and b < 0:
            return False
        return True


def _check_pos_def(f: QuadForm) -> None:
    if not f.is_positive_definite():
        raise DomainError(f"form {f} is not positive definite")


def reduce_form(f: QuadForm) -> QuadForm:
    """The reduced form SL2(Z)-equivalent to f, by Gauss reduction."""
    _check_pos_def(f)
    g = QuadForm(*_reduce(f.a, f.b, f.c))
    assert g.is_reduced()
    return g


def _reduce(a: int, b: int, c: int) -> tuple[int, int, int]:
    """The reduced (a, b, c) of a positive definite form, on ints (`reduce_form`)."""
    while True:
        # translate b into (-a, a], then flip while a > c
        k = (a - b) // (2 * a)
        b, c = b + 2 * a * k, a * k * k + b * k + c
        if a <= c:
            break
        a, b, c = c, -b, a
    if a == c and b < 0:
        b = -b
    return a, b, c


def principal_form(d: int) -> QuadForm:
    """The reduced representative of the unit class of discriminant d."""
    b = d & 1
    return QuadForm(1, b, (b * b - d) // 4)


def _extgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, u, v) with u*a + v*b = g = gcd(a, b)."""
    old_r, r = a, b
    old_u, u = 1, 0
    old_v, v = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_u, u = u, old_u - q * u
        old_v, v = v, old_v - q * v
    if old_r < 0:
        old_r, old_u, old_v = -old_r, -old_u, -old_v
    return old_r, old_u, old_v


def compose(f: QuadForm, g: QuadForm) -> QuadForm:
    """The reduced form of the product of two primitive positive definite
    forms of one discriminant, by Dirichlet composition.

    The forms need not be reduced.  With
    e = gcd(a1, a2, (b1 + b2)/2) = u a1 + v a2 + w (b1 + b2)/2, the
    composite is (a1 a2 / e^2, B, .) with
    B = (u a1 b2 + v a2 b1 + w (b1 b2 + d)/2) / e mod 2 a1 a2 / e^2
    (Cohen, A Course in Computational Algebraic Number Theory, 5.4).
    """
    for form in (f, g):
        _check_pos_def(form)
        if not form.is_primitive():
            raise DomainError(f"form {form} is imprimitive (content {form.content})")
    if f.disc != g.disc:
        raise DomainError(f"discriminant mismatch: {f.disc} vs {g.disc}")
    d = f.disc
    a1, b1 = f.a, f.b
    a2, b2 = g.a, g.b
    h, x, y = _extgcd(a1, a2)
    e, z, w = _extgcd(h, (b1 + b2) // 2)
    u, v = z * x, z * y
    a3 = a1 * a2 // (e * e)
    bb = (u * a1 * b2 + v * a2 * b1 + w * ((b1 * b2 + d) // 2)) // e % (2 * a3)
    num = bb * bb - d
    assert num % (4 * a3) == 0
    return reduce_form(QuadForm(a3, bb, num // (4 * a3)))


class ClassGroup(_Record):
    """The reduced primitive forms of one discriminant, one per class, with
    their composition table.  A group is its (disc, classes): the index of
    each form and the table are derived from them."""

    __slots__ = ("disc", "classes", "_index", "_table")

    def __init__(self, disc: int, classes: tuple[QuadForm, ...]):
        object.__setattr__(self, "disc", disc)
        object.__setattr__(self, "classes", classes)
        object.__setattr__(self, "_index", {f: k for k, f in enumerate(classes)})

    @property
    def table(self) -> tuple[tuple[int, ...], ...]:
        """Cayley table by index, built by h^2 compositions on first use."""
        if hasattr(self, "_table"):
            return self._table
        index = self._index
        table = tuple(
            tuple(index[compose(x, y)] for y in self.classes) for x in self.classes
        )
        for i in range(len(self.classes)):
            assert table[0][i] == i and table[i][0] == i
            assert sorted(table[i]) == list(range(len(self.classes)))
        object.__setattr__(self, "_table", table)
        return table

    @property
    def class_number(self) -> int:
        return len(self.classes)

    def inverse_idx(self, i: int) -> int:
        # the inverse of a reduced (a, b, c) is (a, -b, c), itself reduced
        # unless the class is ambiguous, and then the class is its own inverse
        return self._index.get(self.classes[i].inverse(), i)


def enumerate_class_group(d: int) -> ClassGroup:
    """Enumerate reduced primitive forms of discriminant d and their group."""
    if type(d) is not int:
        (d,) = _integers((d,), "discriminants")
    if d >= 0 or d % 4 not in (0, 1):
        raise DomainError(f"{d} is not a negative discriminant")
    forms = []
    amax = isqrt(-d // 3)
    for a in range(1, amax + 1):
        # b^2 = d mod 4 forces b = d mod 2
        for b in range(-a + 1 + ((a + 1 + d) & 1), a + 1, 2):
            num = b * b - d
            if num % (4 * a):
                continue
            c = num // (4 * a)
            if c < a:
                continue
            if a == c and b < 0:
                continue
            form = QuadForm(a, b, c)
            if form.is_primitive():
                forms.append(form)
    forms.sort(key=lambda f: (f.a, abs(f.b), 0 if f.b >= 0 else 1))
    assert forms[0] == principal_form(d)
    return ClassGroup(d, tuple(forms))

