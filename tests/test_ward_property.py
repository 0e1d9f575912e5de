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


def _oracle_f(psi, y0):
    """f_n = psi_n for odd n, psi_n / (2 y0) for even n; None where y0 = 0."""
    two_y = y0.scale(2)
    return [q if n % 2 else (None if y0.is_zero() else q // two_y)
            for n, q in enumerate(psi)]


@settings(max_examples=40, deadline=None)
@given(cleared_point(FP))
def test_even_values_split_as_f_half_times_the_bracket(pt):
    # f_n = f_(n/2) K_(n/2), with the squares in K taken from the cache
    start, G = _ward_start(*pt)
    brackets = {}
    f = _ward(list(start), G, 30, brackets=brackets)
    assert sorted(brackets) == list(range(6, 31, 2))
    for n, bracket in brackets.items():
        assert f[n // 2] * bracket == f[n], n


def new_repeated_factors(pt, n_top):
    """[(n, place)] over even n <= n_top: the repeated factors of psi_n at
    places of good reduction that divide no psi_d, d a proper divisor of n,
    each asserted to have the same order in the part of psi_n the scan tests.

    Such a place has rank n, so it divides neither psi_(n/2) nor y0."""
    a, b, x0, y0 = pt
    new_part = {2: y0, 4: _ward_start(*pt)[0][4]}  # as tangency_scan keeps them
    psi = _division_values(a, b, x0, y0, n_top, new_part)
    K = FunctionField(a.field, "u")
    disc = (a * a * a).scale(4) + (b * b).scale(27)
    found = []
    for n in range(2, n_top + 1, 2):
        if psi[n].is_zero():
            continue
        w = psi[n].gcd(psi[n].derivative())
        for q, _ in places_of_poly(w, K) if not w.is_constant() else ():
            if (disc % q.pi).is_zero() or any(
                    (psi[d] % q.pi).is_zero() for d in range(2, n) if n % d == 0):
                continue
            assert new_part[n].multiplicity_of(q.pi) == psi[n].multiplicity_of(q.pi) >= 2
            found.append((n, q))
    return found


@settings(max_examples=30, deadline=None)
@given(cleared_point(FP))
def test_new_repeated_factors_of_even_values_lie_in_the_tested_part(pt):
    new_repeated_factors(pt, 30)


def _points_of_even_order(p):
    """[(a, b, x, y, n)]: F_p-points of even order n >= 6 on y^2 = x^3 + a x + b."""
    def add(P, Q, a):
        if P is None or Q is None:
            return Q if P is None else P
        (x1, y1), (x2, y2) = P, Q
        if x1 == x2 and (y1 + y2) % p == 0:
            return None
        if P == Q:
            lam = (3 * x1 * x1 + a) * pow(2 * y1, -1, p) % p
        else:
            lam = (y2 - y1) * pow(x2 - x1, -1, p) % p
        x3 = (lam * lam - x1 - x2) % p
        return x3, (lam * (x1 - x3) - y1) % p

    out = []
    for a in range(p):
        for b in range(p):
            if (4 * a ** 3 + 27 * b * b) % p == 0:
                continue
            for x in range(p):
                ys = [y for y in range(1, p) if (y * y - x ** 3 - a * x - b) % p == 0]
                if not ys:
                    continue
                y = ys[0]
                n, Q = 1, (x, y)
                while Q is not None:
                    n, Q = n + 1, add(Q, (x, y), a)
                if n % 2 == 0 and n >= 6:
                    out.append((a, b, x, y, n))
    return out


EVEN_ORDER = {K: _points_of_even_order(K.constants.p) for K in FP}


@st.composite
def tangent_point(draw):
    """(cleared point, n): a point P with n P meeting O to order >= 2 at u.

    On a constant curve with an F_p-point T of order n, a point and a model
    that agree with T and the curve modulo u^2 have n P = n T = O modulo u^2."""
    K = draw(st.sampled_from(FP))
    a, b, x, y, n = draw(st.sampled_from(EVEN_ORDER[K]))
    u2 = K.poly([0, 0, 1])

    def lift(c, lowest=0):
        digit = st.integers(0, K.constants.p - 1)
        tail = [draw(st.integers(lowest, K.constants.p - 1))] + draw(st.lists(digit, max_size=2))
        return K.poly([c]) + u2 * K.poly(tail)

    x0, y0, a4 = lift(x, 1), lift(y), lift(a)  # x0 is not constant
    return (a4, y0 * y0 - x0 * x0 * x0 - a4 * x0, x0, y0), n


@settings(max_examples=20, deadline=None)
@given(tangent_point())
def test_built_tangencies_lie_in_the_tested_part(drawn):
    pt, n = drawn
    found = new_repeated_factors(pt, n)
    assert any(m == n and q.pi.degree == 1 and q.pi[0] == 0 for m, q in found)


@settings(max_examples=30, deadline=None)
@given(cleared_point(FP), st.integers(0, 12))
def test_ward_plain_and_mod_pi_match_the_oracle(pt, r):
    # in one call and one step per call (as the scan extends its residues),
    # values and brackets are those of the textbook recurrence, reduced mod pi
    a, b, x0, y0 = pt
    want = _oracle_f(division_values_oracle(a, b, x0, y0, 30), y0)
    start, G = _ward_start(a, b, x0, y0)
    f = _ward(list(start), G, 30)
    assert all(w is None or w == got for w, got in zip(want, f))
    K = FunctionField(a.field, "u")
    places = {K.poly([-r % a.field.p, 1])}
    for q in (y0, start[3]):
        if not q.is_zero():
            places.update(v.pi for v, _ in places_of_poly(q, K))
    for pi in places:
        reduce = lambda q: q % pi  # noqa: E731
        whole, brackets = {}, {}
        f_pi = _ward([q % pi for q in start], G % pi, 30, reduce, whole)
        steps = [q % pi for q in start]
        for n in range(5, 31):
            _ward(steps, G % pi, n, reduce, brackets)
        assert steps == f_pi
        assert brackets == whole
        for n in range(31):
            if want[n] is not None:
                assert f_pi[n] == want[n] % pi, (pi, n)
            half = want[n // 2]
            if n in brackets and None not in (want[n], half) and not half.is_zero():
                assert brackets[n] % pi == (want[n] // half) % pi, (pi, n)
