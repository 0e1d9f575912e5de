"""The division-free division values against the textbook recurrence.

``pdescent._division_values`` runs Ward's identities on f_n, where psi_n is
f_n for odd n and 2 y0 f_n for even n, with no division; the oracle in
``scan_oracle`` divides every even value by 2 y0.  Points are drawn on
y^2 = x^3 + A x + (h^2 - g^3 - A g) through (g, h) over F_p(u),
p in {5, 7, 11, 13}, up to n = 40, and over Q(u) up to n = 20, with g and
h sometimes over a power of a linear d (cleared as the scan clears them)
and sometimes h = 0 (y0 = 0).  The same recurrence run mod pi is what
``tangency_scan`` reads at its k_v = 0 places: its values must be those of
f_n mod pi, and with G = 16 y0^4 it must say pi | psi_n exactly when that
holds.
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from maninmaps import CurvePoint, FieldElement, FunctionField, PrimeField, QQ, WeierstrassModel
from maninmaps.errors import HypothesisError, InputError
from maninmaps.funcfield import places_of_poly
from maninmaps.pdescent import _division_values, _ward, _ward_start

from scan_oracle import division_values_oracle
from test_scan_oracle import cleared_model

FP = [FunctionField(PrimeField(p), "u") for p in (5, 7, 11, 13)]
QU = FunctionField(QQ, "u")


@st.composite
def cleared_point(draw, fields, deg_g=2, deg_h=3):
    """(a4, a6, x0, y0) in k[u] of a drawn point on the cleared short model."""
    K = draw(st.sampled_from(fields))
    p = K.constants.char
    coeff = st.integers(-3, 3) if p == 0 else st.integers(0, p - 1)

    def elt(deg):
        return FieldElement(K, K.poly(draw(st.lists(coeff, min_size=1, max_size=deg + 1))))

    g, h, A = elt(deg_g), elt(deg_h), elt(1)
    if draw(st.integers(0, 4)) == 0:
        h = K.zero  # a 2-torsion point: y0 = 0
    if draw(st.booleans()):  # a point with a pole at d
        d = FieldElement(K, K.poly([draw(coeff), 1]))
        g, h = g / d ** 2, h / d ** 3
    try:
        E = WeierstrassModel.short(K, A, h * h - g ** 3 - A * g)
    except (HypothesisError, InputError):  # singular: no curve was drawn
        assume(False)
    Escan, x0, y0, _ = cleared_model(E, CurvePoint(E, g, h))
    return Escan.a4.num, Escan.a6.num, x0.num, y0.num


@settings(max_examples=40, deadline=None)
@given(cleared_point(FP))
def test_division_values_match_the_textbook_recurrence_over_fp(pt):
    assert _division_values(*pt, 40) == division_values_oracle(*pt, 40)


@settings(max_examples=20, deadline=None)
@given(cleared_point([QU], deg_g=1, deg_h=2))
def test_division_values_match_the_textbook_recurrence_over_q(pt):
    # heights grow like n^2 over Q: psi_40 of a degree-1 point takes seconds
    assert _division_values(*pt, 20) == division_values_oracle(*pt, 20)


@settings(max_examples=25, deadline=None)
@given(cleared_point(FP), st.integers(0, 12))
def test_residues_mod_a_place_decide_divisibility(pt, r):
    a, b, x0, y0 = pt
    psi = division_values_oracle(a, b, x0, y0, 30)
    start, G = _ward_start(a, b, x0, y0)
    f_all = _ward(list(start), G, 30)
    K = FunctionField(a.field, "u")
    # u - r and the places of y0, psi_3 and psi_4, where residues vanish
    places = {K.poly([-r % a.field.p, 1])}
    for q in (y0, psi[3], psi[4]):
        if not q.is_zero():
            places.update(v.pi for v, _ in places_of_poly(q, K))
    for pi in places:
        f, Gv = _ward([q % pi for q in start], G % pi, 30, lambda q: q % pi), G % pi
        for n in range(31):
            assert f[n] == f_all[n] % pi, (pi, n)
            unit = not f[n].is_zero() and (n % 2 == 1 or not Gv.is_zero())
            assert unit == (not (psi[n] % pi).is_zero()), (pi, n)
