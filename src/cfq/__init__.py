"""Ring class field polynomials from principal moduli at elliptic fixed points.

The package computes, in arbitrary precision with exact integer rounding,
the class polynomials generated by values of genus-zero principal moduli
(Laurent polynomials in eta quotients, and quotients of binary theta series
by eta(tau) eta(N tau) such as the level-71 one) at order-2 elliptic points
of Fricke groups: the class group of binary quadratic forms, one minimal-C
elliptic representative per class, certified rounding of the product of the
values, and an exact check of algebraic relations between the resulting
polynomials.  No part of it reads a data file.
"""

from .classfield import (
    ClassPolyResult,
    SingularValueSet,
    ring_class_polynomial,
    singular_values,
)
from .elliptic import (
    CMPoint,
    EllipticElement,
    enumerate_representatives,
    fixed_point,
)
from .errors import (
    CfqError,
    ConvergenceError,
    DomainError,
    InvalidModulusError,
    NoConstructionError,
    NonInvertibleError,
    NotGenusZeroError,
    RoundingFailureError,
)
from .eta import EtaQuotientSpec, eta_quotient
from .exactpoly import (
    IntPoly,
    LaurentExpr,
    verify_root_relation,
)
from .hauptmodul import (
    FRICKE_LEVELS,
    GAMMA0_LEVELS,
    EtaQuotientHaupt,
    ThetaQuotientHaupt,
    catalog_entries,
    catalog_lookup,
    evaluate,
)
from .numerics import PrecisionPolicy
from .quadforms import (
    ClassGroup,
    QuadForm,
    compose,
    enumerate_class_group,
    reduce_form,
)

__version__ = "0.1.0"
