"""Positive definite binary quadratic forms and their class groups.

Covers Gauss reduction with transformation tracking, SL2(Z)-equivalence,
composition of ideal classes by the united-forms method, and brute-force
class group enumeration (the Cayley table is composed only when first read).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import gcd, isqrt

from .errors import DomainError, SearchFailureError

__all__ = [
    "SL2Matrix",
    "QuadForm",
    "IdealClass",
    "ClassGroup",
    "reduce_form",
    "equivalent",
    "compose",
    "enumerate_class_group",
]


@dataclass(frozen=True)
class SL2Matrix:
    """Unimodular integer matrix [[p, q], [r, s]] with determinant 1."""

    p: int
    q: int
    r: int
    s: int

    def __post_init__(self):
        if self.p * self.s - self.q * self.r != 1:
            raise DomainError(f"matrix {self} has determinant != 1")

    def __mul__(self, other: SL2Matrix) -> SL2Matrix:
        return SL2Matrix(
            self.p * other.p + self.q * other.r,
            self.p * other.q + self.q * other.s,
            self.r * other.p + self.s * other.r,
            self.r * other.q + self.s * other.s,
        )

    def inverse(self) -> SL2Matrix:
        return SL2Matrix(self.s, -self.q, -self.r, self.p)

    @classmethod
    def identity(cls) -> SL2Matrix:
        return cls(1, 0, 0, 1)

    @classmethod
    def translation(cls, k: int) -> SL2Matrix:
        return cls(1, k, 0, 1)

    @classmethod
    def flip(cls) -> SL2Matrix:
        """The substitution (x, y) -> (-y, x)."""
        return cls(0, -1, 1, 0)


@dataclass(frozen=True)
class QuadForm:
    """a*x^2 + b*x*y + c*y^2 with integer coefficients."""

    a: int
    b: int
    c: int

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

    def __call__(self, x: int, y: int) -> int:
        return self.a * x * x + self.b * x * y + self.c * y * y

    def transform(self, u: SL2Matrix) -> QuadForm:
        """The form F(px + qy, rx + sy)."""
        a = self(u.p, u.r)
        c = self(u.q, u.s)
        b = (
            2 * self.a * u.p * u.q
            + self.b * (u.p * u.s + u.q * u.r)
            + 2 * self.c * u.r * u.s
        )
        return QuadForm(a, b, c)

    def inverse(self) -> QuadForm:
        return QuadForm(self.a, -self.b, self.c)

    def is_reduced(self) -> bool:
        a, b, c = self.a, self.b, self.c
        if not (-a < b <= a <= c):
            return False
        if (a == c or a == abs(b)) and b < 0:
            return False
        return True

    def text(self) -> str:
        return f"{self.a},{self.b},{self.c}"



def _check_pos_def(f: QuadForm) -> None:
    if not f.is_positive_definite():
        raise DomainError(f"form {f} is not positive definite")


def reduce_form(f: QuadForm) -> tuple[QuadForm, SL2Matrix]:
    """Gauss-reduce f; returns (g, u) with f.transform(u) == g and g reduced."""
    _check_pos_def(f)
    u = SL2Matrix.identity()
    a, b, c = f.a, f.b, f.c
    while True:
        if not (-a < b <= a):
            k = (a - b) // (2 * a)
            c = a * k * k + b * k + c
            b = b + 2 * a * k
            u = u * SL2Matrix.translation(k)
        if a > c:
            a, b, c = c, -b, a
            u = u * SL2Matrix.flip()
            continue
        break
    if a == c and b < 0:
        b = -b
        u = u * SL2Matrix.flip()
    g = QuadForm(a, b, c)
    assert g.is_reduced() and f.transform(u) == g
    return g, u


def equivalent(f: QuadForm, g: QuadForm) -> SL2Matrix | None:
    """A matrix u with f.transform(u) == g, or None if inequivalent."""
    _check_pos_def(f)
    _check_pos_def(g)
    rf, uf = reduce_form(f)
    rg, ug = reduce_form(g)
    if rf != rg:
        return None
    u = uf * ug.inverse()
    assert f.transform(u) == g
    return u


@dataclass(frozen=True)
class IdealClass:
    """An ideal class, represented by its unique reduced primitive form."""

    rep: QuadForm

    def __init__(self, form: QuadForm):
        _check_pos_def(form)
        if not form.is_primitive():
            raise DomainError(f"form {form} is imprimitive (content {form.content})")
        object.__setattr__(self, "rep", reduce_form(form)[0])

    @property
    def disc(self) -> int:
        return self.rep.disc

    def inverse(self) -> IdealClass:
        return IdealClass(self.rep.inverse())


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


# Coprime (x, y) with |x|, |y| <= 16, nearest the origin first, each with
# (u, v) such that u*x + v*y = 1.
_COPRIME_PAIRS = tuple(
    (x, y) + _extgcd(x, y)[1:]
    for x, y in sorted(
        ((x, y) for x in range(-16, 17) for y in range(-16, 17)),
        key=lambda p: (max(abs(p[0]), abs(p[1])), abs(p[0]) + abs(p[1])),
    )
    if gcd(x, y) == 1
)


def _coprime_value_transform(f: QuadForm, modulus: int) -> SL2Matrix:
    """Unimodular u with gcd(f.transform(u).a, modulus) == 1.

    The (x, y) search is bounded by 16 in each coordinate, which is ample for
    the discriminants this package handles.
    """
    for x, y, u, v in _COPRIME_PAIRS:
        if gcd(f(x, y), modulus) == 1:
            return SL2Matrix(x, -v, y, u)
    raise SearchFailureError(
        f"no value of {f} coprime to {modulus} with coordinates up to 16"
    )


def compose(f: IdealClass, g: IdealClass) -> IdealClass:
    """Product of two ideal classes by united-forms composition."""
    if f.disc != g.disc:
        raise DomainError(f"discriminant mismatch: {f.disc} vs {g.disc}")
    d = f.disc
    f1 = f.rep
    # move g to a representative whose leading coefficient is coprime to a1
    u = _coprime_value_transform(g.rep, f1.a)
    f2 = g.rep.transform(u)
    a1, b1 = f1.a, f1.b
    a2, b2 = f2.a, f2.b
    assert gcd(a1, a2) == 1
    # B = b1 mod 2a1, B = b2 mod 2a2; the parities agree since both match d
    t = ((b2 - b1) // 2 * pow(a1, -1, a2)) % a2
    bb = b1 + 2 * a1 * t
    a3 = a1 * a2
    num = bb * bb - d
    assert num % (4 * a3) == 0
    return IdealClass(QuadForm(a3, bb, num // (4 * a3)))


@dataclass(frozen=True)
class ClassGroup:
    """All ideal classes of one discriminant with their composition table."""

    disc: int
    classes: tuple[IdealClass, ...]

    @cached_property
    def _index(self) -> dict[QuadForm, int]:
        return {cls.rep: k for k, cls in enumerate(self.classes)}

    @cached_property
    def table(self) -> tuple[tuple[int, ...], ...]:
        """Cayley table by index, built by h^2 compositions on first use."""
        index = self._index
        table = tuple(
            tuple(index[compose(x, y).rep] for y in self.classes) for x in self.classes
        )
        for i in range(len(self.classes)):
            assert table[0][i] == i and table[i][0] == i
            assert sorted(table[i]) == list(range(len(self.classes)))
        return table

    @property
    def class_number(self) -> int:
        return len(self.classes)

    def index_of(self, cls: IdealClass) -> int:
        return self.classes.index(cls)

    def compose_idx(self, i: int, j: int) -> int:
        return self.table[i][j]

    def inverse_idx(self, i: int) -> int:
        # the inverse of a reduced (a, b, c) is (a, -b, c), itself reduced
        # unless the class is ambiguous, and then the class is its own inverse
        return self._index.get(self.classes[i].rep.inverse(), i)


def enumerate_class_group(d: int) -> ClassGroup:
    """Enumerate reduced primitive forms of discriminant d and their group."""
    if d >= 0 or d % 4 not in (0, 1):
        raise DomainError(f"{d} is not a negative discriminant")
    forms = []
    amax = isqrt(-d // 3)
    for a in range(1, amax + 1):
        for b in range(-a + 1, a + 1):
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
    return ClassGroup(d, tuple(IdealClass(f) for f in forms))

