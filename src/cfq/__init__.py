"""Ring class field polynomials from principal moduli at elliptic fixed points.

The package computes, in arbitrary precision with exact integer rounding,
the class polynomials generated by values of genus-zero principal moduli
(Laurent polynomials in eta quotients, and ingested q-series such as the
level-71 series) at order-2 elliptic points of Fricke groups, together
with the binary-quadratic-form machinery behind them.
"""

from .classfield import (
    ClassPolyResult,
    SingularValueSet,
    galois_permutation,
    ring_class_polynomial,
    singular_values,
)
from .elliptic import (
    CMPoint,
    EllipticElement,
    OrderDesc,
    conjugate_in_fricke,
    enumerate_representatives,
    fixed_point,
    from_form,
    order_of,
)
from .errors import (
    CfqError,
    ConvergenceError,
    DataFileMissingError,
    DomainError,
    EscalationFailureError,
    InsufficientDataError,
    InvalidModulusError,
    NonInvertibleError,
    NotGenusZeroError,
    QSeriesFormatError,
    RoundingFailureError,
    SearchFailureError,
)
from .eta import EtaQuotientSpec, dedekind_sum, eta, eta_quotient
from .exactpoly import (
    IntPoly,
    LaurentExpr,
    RatPoly,
    polymod_invert,
    polymod_reduce,
    verify_root_relation,
)
from .hauptmodul import (
    FRICKE_LEVELS,
    GAMMA0_LEVELS,
    EtaQuotientHaupt,
    QSeriesHaupt,
    catalog_entries,
    catalog_lookup,
    evaluate,
    fricke_reduce,
    load_qseries,
)
from .numerics import PrecisionPolicy, find_roots, poly_from_roots, round_to_int_poly
from .quadforms import (
    ClassGroup,
    Discriminant,
    IdealClass,
    QuadForm,
    SL2Matrix,
    compose,
    enumerate_class_group,
    equivalent,
    reduce_form,
    to_fricke_shape,
)

__version__ = "0.1.0"
