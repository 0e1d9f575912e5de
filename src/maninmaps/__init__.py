"""Exact descent and tangency computations on elliptic surfaces over k(t).

The library computes, over rational function fields with exact arithmetic:
the additive descent map E(K)/pE(K) -> K in characteristic p > 3 together
with the semistable tangency bound it yields, and the corrected algebraic
Manin map in characteristic 0 with its exceptional set and contact-order
bound.  Everything reduces to valuations of explicitly computed rational
functions, so all results are exact and reproducible bit for bit.
"""

from .elliptic import (
    CurveFunction,
    CurvePoint,
    KodairaType,
    WeierstrassModel,
    add,
    bad_places,
    deg_omega,
    intersection_with_zero,
    kodaira_type,
    negate,
    parse_curve_function,
    scalar_mul,
    value_at_O,
)
from .errors import (
    ConsistencyError,
    Error,
    HypothesisError,
    InputError,
    NotFoundError,
    ParseError,
)
from .funcfield import (
    CoverMap,
    Differential,
    FieldElement,
    FunctionField,
    Place,
    RatX,
    XPoly,
    derive,
    divisor_of_differential,
    divisor_of_function,
    ord_at,
    ord_differential,
    parse,
    parse_element,
    pullback,
)
from .maninmap import (
    ExceptionalSet,
    PFOperator,
    TangencyReport,
    exceptional_set,
    find_pf,
    manin_section,
    manin_value,
    pullback_pf,
    tangency_report,
    verify_pf,
)
from .pdescent import (
    DescentDivisor,
    HasseData,
    component_order,
    descent_bound_report,
    descent_divisor,
    hasse_data,
    hasse_invariant_section,
    in_identity_component,
    kodaira_spencer_section,
    p_descent_section,
    p_descent_value,
    reduction_table_report,
    tangency_scan,
)
from .polynomials import Poly, PrimeField, QQ, Rationals, factor
from .sections import DivisorReport, GradedSection, divisor, ord_section

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
