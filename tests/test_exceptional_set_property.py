"""The exceptional set on random short curves y^2 = x^3 + a4 x + a6 over Q(t).

``exceptional_set`` takes its candidate places from ``_fibers`` and the
numerator of dj only, and decides j = 0 and j = 1728 from the orders of a4
and a6.  Two properties make that sound: every zero of j and of j - 1728 is
a place of ``_fibers``, and the set equals the one built by factoring
j, j - 1728 and dj outright.
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from maninmaps import FunctionField, QQ, WeierstrassModel, exceptional_set
from maninmaps.elliptic import _fibers, kodaira_type
from maninmaps.funcfield import ord_at, places_of_poly
from maninmaps.maninmap import REASON_BAD, REASON_DJ, REASON_J0, REASON_J1728

K = FunctionField(QQ, "t")

poly = st.lists(st.integers(-4, 4), min_size=1, max_size=3).map(K.poly)
element = st.builds(lambda n, d: K.element(n, d), poly, poly.filter(lambda d: not d.is_zero()))


def short_curve(a4, a6):
    assume(not a4.is_zero() and not a6.is_zero())
    assume(not (a4 ** 3 * 4 + a6 ** 2 * 27).is_zero())
    E = WeierstrassModel.short(K, a4, a6)
    assume(not E.is_isotrivial())
    return E


def factored_exceptional_set(E):
    """The set with candidates from the factors of j, j - 1728 and dj."""
    j = E.j_invariant()
    jp, j1728 = j.derive(), j - 1728
    candidates = {v for v, *_ in _fibers(E)}
    for q in (j.num, j1728.num, jp.num):
        candidates.update(v for v, _ in places_of_poly(q, K))
    out = set()
    for v in candidates:
        o_dj = ord_at(jp, v) - (2 if v.is_infinity else 0)
        if not kodaira_type(E, v).is_good:
            out.add((v, REASON_BAD))
        elif ord_at(j, v) > 0:
            if o_dj > 2:
                out.add((v, REASON_J0))
        elif ord_at(j1728, v) > 0:
            if o_dj > 1:
                out.add((v, REASON_J1728))
        elif o_dj > 0:
            out.add((v, REASON_DJ))
    return out


@settings(max_examples=30, deadline=None)
@given(element, element)
def test_zeros_of_j_and_j_minus_1728_lie_in_curve_places(a4, a6):
    E = short_curve(a4, a6)
    j = E.j_invariant()
    places = {v for v, *_ in _fibers(E)}
    for q in (j.num, (j - 1728).num):
        assert {v for v, _ in places_of_poly(q, K)} <= places


@settings(max_examples=30, deadline=None)
@given(element, element)
def test_exceptional_set_matches_factored_candidates(a4, a6):
    E = short_curve(a4, a6)
    assert set(exceptional_set(E).entries) == factored_exceptional_set(E)
