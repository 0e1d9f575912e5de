"""Test-only oracle: divisors of graded sections, place by place.

This is how ``sections.divisor`` worked before it read its orders off
``divisor_of_function``: list the candidate places (the curve places and
the support of the value), then find each order again by trial division
with ``ord_section``.  A differential f d(var) is the section of weight 0
and differential degree 1, so the oracle covers differentials too.  The
tests compare the kernel's divisors against it.
"""

from maninmaps.elliptic import _fibers
from maninmaps.funcfield import _local_orders
from maninmaps.sections import ord_section


def section_divisor(S) -> list:
    """[(Place, ord)] of a nonzero graded section, sorted, zeros left out."""
    places = {v for v, *_ in _fibers(S.model)} | set(_local_orders(S.value))
    pairs = ((v, ord_section(S, v)) for v in places)
    return sorted(((v, o) for v, o in pairs if o), key=lambda vo: vo[0].sort_key())
