"""Test-only oracle: divisors of sections and differentials, place by place.

This is how ``sections.divisor`` and ``funcfield.divisor_of_differential``
worked before they read their orders off ``divisor_of_function``: list the
candidate places (the curve places and the support of the value), then find
each order again by trial division with ``ord_section`` or
``ord_differential``.  The tests compare the kernel's divisors against it.
"""

from maninmaps.elliptic import _fibers
from maninmaps.funcfield import _local_orders, ord_differential
from maninmaps.sections import ord_section


def _sorted(pairs):
    return sorted(((v, o) for v, o in pairs if o), key=lambda vo: vo[0].sort_key())


def section_divisor(S) -> list:
    """[(Place, ord)] of a nonzero graded section, sorted, zeros left out."""
    places = {v for v, *_ in _fibers(S.model)} | set(_local_orders(S.value))
    return _sorted((v, ord_section(S, v)) for v in places)


def differential_divisor(omega) -> list:
    """[(Place, ord)] of a nonzero differential, sorted, zeros left out."""
    return _sorted((v, ord_differential(omega, v)) for v in _local_orders(omega.coefficient))
