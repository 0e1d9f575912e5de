"""The tangency scan's early exit on random short curves over F_5 to F_13.

``tangency_scan`` closes each special place at its first contact.  That is
exact because the multiples nP (p not dividing n) in the kernel of
reduction are the multiples of the rank of apparition r_v, on all of which
the contact is the same.  The curves are drawn as the fp-descent benchmark
draws them, y^2 = x^3 + A x + (h^2 - g^3 - A g) through (g, h), and kept
when the descent bound's hypothesis holds: semistable reduction with p
prime to every component group order.  The point scanned is kP for a drawn
k in {1, 2, 3}: for k > 1 it has t-denominators, and clearing them makes
k_v < 0 at their places, where the scan takes every valuation.  Against
the per-n oracle, the scan
reports the same contacts and torsion order, and the oracle's contacts obey
the theorem the early exit rests on.
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from maninmaps import tangency_scan
from maninmaps.elliptic import bad_places, scalar_mul
from maninmaps.errors import HypothesisError
from maninmaps.pdescent import _short_with_point

from test_scan_oracle import _short_through_point, _watch, reference_contacts


def _coeffs(p, deg):
    """Ascending coefficient lists of exact degree deg over F_p."""
    return st.tuples(
        st.lists(st.integers(0, p - 1), min_size=deg, max_size=deg),
        st.integers(1, p - 1),
    ).map(lambda cl: cl[0] + [cl[1]])


@st.composite
def screened_curve(draw):
    p = draw(st.sampled_from([5, 7, 11, 13]))
    g = draw(_coeffs(p, 1))
    h = draw(_coeffs(p, 3))
    A = draw(_coeffs(p, draw(st.sampled_from([0, 1]))))
    try:
        E, P = _short_through_point(p, g, h, A)
    except HypothesisError:  # singular model: no curve was drawn
        assume(False)
    assume(all(kt.is_semistable and not (kt.m and kt.m % p == 0)
               for _, kt in bad_places(E)))
    P = scalar_mul(draw(st.sampled_from([1, 1, 2, 3])), P)
    assume(not P.is_zero)
    return _short_with_point(E, P)


@settings(max_examples=40, deadline=None)
@given(screened_curve(), st.integers(6, 20))
def test_first_contact_is_the_contact_on_every_multiple(curve, n_max):
    E, P = curve
    try:
        watch = _watch(E)
    except HypothesisError:  # no twisted differential: watch nothing extra
        watch = set()
    scan = tangency_scan(E, P, n_max, watch_places=watch)
    contacts, iotas, torsion_order = reference_contacts(E, P, n_max, watch)
    assert scan.torsion_order == torsion_order
    for v, by_n in contacts.items():
        hits = [n for n in sorted(by_n) if by_n[n]]
        if not hits:
            continue
        n0 = hits[0]
        for n, contact in by_n.items():
            assert contact == (by_n[n0] if n % n0 == 0 else 0), (v, n, n0)
        iotas[v] = by_n[n0]
    assert scan.iotas == iotas
