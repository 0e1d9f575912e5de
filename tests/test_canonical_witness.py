"""Witnesses built canonical by construction, with no gcd in K[x].

``find_pf`` writes y N/f^2 as y (N/g^2)/(f/g)^2 for g = gcd(f, f_t), the
product of the x - e over the roots e of f constant in t, and
``pullback_pf`` maps the canonical fractions of F coefficientwise.  Both
must equal what the normalising constructor ``RatX(K, num, den)`` builds,
and neither may run the gcd it saves: ``find_pf`` runs one gcd, of the cubic
with f_t, and a pullback with its tangency report runs none.
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import maninmaps.maninmap as mm
from maninmaps import (
    QQ,
    FieldElement,
    FunctionField,
    RatX,
    WeierstrassModel,
    XPoly,
    find_pf,
    pullback_pf,
    tangency_report,
)
from maninmaps.errors import HypothesisError, NotFoundError

import xpoly_oracle
from conftest import legendre, legendre_cover_2, legendre_operator

K = FunctionField(QQ, "t")

constant = st.fractions(min_value=-4, max_value=4, max_denominator=3).map(
    lambda c: K.from_fraction(c.numerator, c.denominator)
)
poly = st.lists(st.integers(-3, 3), min_size=1, max_size=3).map(K.poly)
den = st.lists(st.integers(-2, 2), min_size=1, max_size=2).map(K.poly).filter(
    lambda d: not d.is_zero()
)
element = st.builds(K.element, poly, den)
moving = element.filter(lambda c: not c.is_constant())


def x_minus(e):
    return XPoly(K, [-e, K.one])


@st.composite
def cubics(draw):
    """(f, k): a monic cubic over Q(t) and its number of roots constant in t,
    None for a generic draw (which may have some by chance)."""
    kind = draw(st.sampled_from((0, 1, 2)))
    if kind == 0:
        return XPoly(K, [draw(element), draw(element), draw(element), K.one]), None
    a, c = draw(constant), draw(moving)
    if kind == 1:  # (x - a)(x^2 + b x + c(t)): a root of the quadratic is constant only if c is
        return x_minus(a) * XPoly(K, [c, draw(constant), K.one]), 1
    return x_minus(a) * x_minus(draw(constant)) * x_minus(c), 2


def model(f):
    try:
        return WeierstrassModel.from_cubic(f)
    except HypothesisError:  # singular
        assume(False)


@settings(max_examples=40, deadline=None)
@given(cubics())
def test_find_pf_witness_is_the_normalised_fraction(fk):
    f, k = fk
    E = model(f)
    try:
        L = find_pf(E, pole_bound=10 ** 6)
    except NotFoundError:  # isotrivial
        assume(False)
    N, ok = mm._witness(E, L.A, L.B, L.C)
    assert ok
    assert L.F.ry == RatX(K, N, f * f)
    g = xpoly_oracle.prs_gcd(f, f.map_coeffs(FieldElement.derive))
    assert xpoly_oracle.prs_gcd(N, f * f) == g * g
    if k is not None:
        assert g.degree == k


def gcd_spy(monkeypatch):
    """The operand degrees of every ``XPoly.gcd`` call from now on."""
    calls = []
    inner = XPoly.gcd

    def spy(a, b):
        calls.append((a.degree, b.degree))
        return inner(a, b)

    monkeypatch.setattr(XPoly, "gcd", spy)
    return calls


def test_pullback_and_tangency_report_run_no_gcd_in_x(monkeypatch):
    _, L = legendre_operator(K)
    Es, P, phi = legendre_cover_2(QQ)
    calls = gcd_spy(monkeypatch)
    Ls = pullback_pf(L, phi)
    report = tangency_report(Es, Ls, P)
    assert not report.zero_section
    assert calls == []


def test_find_pf_on_legendre_runs_one_gcd_of_the_cubic_with_its_t_derivative(monkeypatch):
    E = legendre(K)
    calls = gcd_spy(monkeypatch)
    L = find_pf(E)
    assert len(calls) == 1
    assert calls[0][0] == 3 and calls[0][1] <= 2
    # g = x(x - 1): the two roots of x(x - 1)(x - t) that are constant in t
    assert L.F.ry.den == x_minus(K.gen) ** 2
