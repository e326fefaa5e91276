"""Value-record semantics shared by the package's 12 immutable value types:
frozen fields, equality by type and fields, the hash of the field tuple,
the `Name(field=value, ...)` repr, and pickle and copy round trips."""

import copy
import pickle
from functools import cache

import pytest

from cfq import (
    ClassGroup,
    ClassPolyResult,
    CMPoint,
    EllipticElement,
    EtaQuotientHaupt,
    EtaQuotientSpec,
    IntPoly,
    LaurentExpr,
    PrecisionPolicy,
    QuadForm,
    SingularValueSet,
    ThetaQuotientHaupt,
    catalog_lookup,
    enumerate_class_group,
    ring_class_polynomial,
)
from cfq.numerics import MIN_PREC_BITS


@cache
def _result() -> ClassPolyResult:
    return ring_class_polynomial(71, "fricke", -284)


def _group_with_table() -> ClassGroup:
    cg = enumerate_class_group(-284)
    assert len(cg.table) == 7
    return cg


# (type, a factory for one instance, its fields in order)
RECORDS = [
    (QuadForm, lambda: QuadForm(2, 1, 9), ("a", "b", "c")),
    (ClassGroup, lambda: enumerate_class_group(-71), ("disc", "classes")),
    (ClassGroup, _group_with_table, ("disc", "classes")),
    (EllipticElement, lambda: EllipticElement(71, 0, -1, 1), ("n", "A", "B", "C")),
    (CMPoint, lambda: CMPoint(71, 1, 568, 71), ("u", "v", "w", "n")),
    (EtaQuotientSpec, lambda: EtaQuotientSpec(((1, 24), (2, -24))), ("terms",)),
    (IntPoly, lambda: IntPoly([1, 0, 1]), ("coeffs",)),
    (LaurentExpr, lambda: LaurentExpr({1: 1, 0: 24, -1: 5}), ("terms",)),
    (EtaQuotientHaupt, lambda: catalog_lookup(2, "gamma0"), ("level", "spec", "laurent")),
    (ThetaQuotientHaupt, lambda: catalog_lookup(71, "fricke"), ("level", "forms")),
    (PrecisionPolicy, PrecisionPolicy, ("start_bits",)),
    (SingularValueSet, lambda: _result().points,
     ("n", "group", "disc", "entries", "class_group")),
    (ClassPolyResult, _result, ("poly", "residual", "prec_bits", "points", "r_max")),
]

IDS = [kind.__name__ for kind, _, _ in RECORDS]
IDS[2] = "ClassGroup-table-read"


def _fields(record, names):
    return tuple(getattr(record, name) for name in names)


def test_every_value_type_is_covered():
    assert len({kind for kind, _, _ in RECORDS}) == 12


@pytest.mark.parametrize("kind,make,names", RECORDS, ids=IDS)
class TestRecord:
    def test_fields_are_frozen(self, kind, make, names):
        record = make()
        before = _fields(record, names)
        for name in (*names, "extra"):
            with pytest.raises(AttributeError):
                setattr(record, name, 0)
            with pytest.raises(AttributeError):
                delattr(record, name)
        assert _fields(record, names) == before

    def test_equality_by_type_and_fields(self, kind, make, names):
        record = make()
        assert type(record) is kind
        assert record == make() and not record != make()
        assert record != _fields(record, names)
        assert _fields(record, names) != record

    def test_hash_is_the_field_tuple_hash(self, kind, make, names):
        record = make()
        assert hash(record) == hash(_fields(record, names)) == hash(make())

    def test_repr(self, kind, make, names):
        record = make()
        shown = ", ".join(f"{name}={value!r}" for name, value in zip(names, _fields(record, names)))
        assert repr(record) == f"{kind.__name__}({shown})"

    @pytest.mark.parametrize("roundtrip", [
        *(lambda r, p=p: pickle.loads(pickle.dumps(r, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)),
        copy.copy,
        copy.deepcopy,
    ], ids=[*(f"pickle{p}" for p in range(pickle.HIGHEST_PROTOCOL + 1)), "copy", "deepcopy"])
    def test_pickle_and_copy_roundtrip(self, kind, make, names, roundtrip):
        record = make()
        back = roundtrip(record)
        assert type(back) is kind
        assert back == record and hash(back) == hash(record)
        assert repr(back) == repr(record)
        with pytest.raises(AttributeError):
            setattr(back, names[0], 0)


def test_other_type_with_the_same_numbers_is_not_equal():
    spec, laurent = EtaQuotientSpec(((1, 24), (2, -24))), LaurentExpr({1: 24, 2: -24})
    assert spec.terms == laurent.terms
    assert spec != laurent and laurent != spec
    assert QuadForm(2, 1, 9) != (2, 1, 9)


def test_reprs_pinned():
    assert repr(QuadForm(2, 1, 9)) == "QuadForm(a=2, b=1, c=9)"
    assert repr(enumerate_class_group(-3)) == "ClassGroup(disc=-3, classes=(QuadForm(a=1, b=1, c=1),))"
    assert repr(EllipticElement(71, 0, -1, 1)) == "EllipticElement(n=71, A=0, B=-1, C=1)"
    assert repr(CMPoint(71, 1, 568, 71)) == "CMPoint(u=71, v=1, w=568, n=71)"
    assert repr(IntPoly([1, 0, 1])) == "IntPoly(coeffs=(1, 0, 1))"
    assert repr(catalog_lookup(2, "gamma0")) == (
        "EtaQuotientHaupt(level=2, spec=EtaQuotientSpec(terms=((1, 24), (2, -24))), "
        "laurent=LaurentExpr(terms=((0, 24), (1, 1))))")
    assert repr(catalog_lookup(71, "fricke")) == (
        "ThetaQuotientHaupt(level=71, forms=(((2, 1, 9), 1), ((3, 1, 6), -1)))")
    assert repr(PrecisionPolicy()) == f"PrecisionPolicy(start_bits={MIN_PREC_BITS})"


def test_table_and_index_survive_a_roundtrip():
    cg = _group_with_table()
    for back in (pickle.loads(pickle.dumps(cg)), copy.deepcopy(cg)):
        assert back.table == cg.table
        assert [back.inverse_idx(i) for i in range(7)] == [cg.inverse_idx(i) for i in range(7)]


def test_precision_policy_default_and_keyword():
    assert PrecisionPolicy().start_bits == MIN_PREC_BITS
    assert PrecisionPolicy() == PrecisionPolicy(MIN_PREC_BITS)
    assert PrecisionPolicy(start_bits=1024).start_bits == 1024
    assert PrecisionPolicy(start_bits=1024) != PrecisionPolicy()
