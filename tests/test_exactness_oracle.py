"""``verify_pf`` against the two exactness oracles.

``verify_pf`` decides L(dx/y) = dF by the witness solve of
``maninmap._witness``; ``xpoly_oracle.exactness_holds`` cross-multiplies
x-polynomials over K(t), and ``xpoly_oracle.cleared_exactness_holds`` runs the
same identity fraction-free in k[t][x].  All three must agree on every
operator the library meets: the bundled characteristic-0 manifests, the
Legendre operator pulled back along covers, operators solved by ``find_pf``
(verified afresh, since ``find_pf`` returns them verified), and operators on
isotrivial curves, which ``find_pf`` refuses; perturbed operators must be
rejected by all three.
"""

from pathlib import Path

import pytest

import maninmaps.maninmap as mm
from maninmaps import (
    CurveFunction,
    FunctionField,
    PFOperator,
    QQ,
    RatX,
    WeierstrassModel,
    XPoly,
    find_pf,
    parse_curve_function,
    pullback_pf,
    verify_pf,
)
from maninmaps.cli import Manifest

import xpoly_oracle
from conftest import (
    fresh,
    legendre,
    legendre_biquadratic,
    legendre_cover_2,
    legendre_cover_a,
    legendre_operator,
    perturbed_operators,
    tx_t_cover,
)

MANIFESTS = Path(__file__).resolve().parent.parent / "manifests"


def _bundled():
    out = []
    for name in ("legendre", "legendre-p2", "legendre-pa3", "legendre-biquadratic"):
        man = Manifest(str(MANIFESTS / (name + ".cfg")))
        out.append(("manifest " + name, man.model, man.operator))
    return out


def _pulled_back():
    _, L0 = legendre_operator(FunctionField(QQ, "t"))
    out = []
    for a in (-3, 2, 5):
        E, _, phi = legendre_cover_a(QQ, a)
        out.append(("cover a=%d" % a, E, pullback_pf(L0, phi)))
    E, _, phi = legendre_cover_2(QQ)
    out.append(("cover t = 2 - s^2/2", E, pullback_pf(L0, phi)))
    E, _, _, phi = legendre_biquadratic(QQ)
    out.append(("biquadratic cover", E, pullback_pf(L0, phi)))
    return out


def _solved():
    Kt = FunctionField(QQ, "t")
    t = Kt.gen
    curves = [
        ("find_pf legendre", legendre(Kt), 2),
        ("find_pf x^3 + t x + t", WeierstrassModel.short(Kt, t, t), 4),
        ("find_pf x^3 + t x + t^2 - 1", WeierstrassModel.short(Kt, t, t ** 2 - 1), 12),
        ("find_pf tx_t cover", tx_t_cover(QQ)[0], 12),
        ("find_pf depressed cover", legendre_cover_2(QQ)[0].depress()[0], 12),
    ]
    return [(label, E, fresh(find_pf(E, pole_bound=bound))) for label, E, bound in curves]


@pytest.fixture(scope="module")
def corpus():
    return _bundled() + _pulled_back() + _solved()


def _decisions(E, L):
    """(verify_pf, K(t) oracle, k[t][x] oracle) on a fresh copy of L."""
    return (
        verify_pf(E, fresh(L)),
        xpoly_oracle.exactness_holds(E, L),
        xpoly_oracle.cleared_exactness_holds(E, L),
    )


def test_exactness_matches_oracle_on_operators(corpus):
    assert len(corpus) == 14
    for label, E, L in corpus:
        assert _decisions(E, L) == (True, True, True), label
        # an rx free of x (here with a t-denominator) leaves dF untouched
        t = E.field.gen
        shifted = CurveFunction(E, L.F.rx + RatX.const(t / (t + 3)), L.F.ry)
        assert _decisions(E, PFOperator(L.A, L.B, L.C, shifted)) == (True, True, True), label


def test_exactness_rejects_perturbed_operators(corpus):
    for label, E, L in corpus:
        for kind, bad in perturbed_operators(E, L):
            assert _decisions(E, bad) == (False, False, False), (label, kind)


def test_residual_rejects_the_solved_witness_of_a_perturbed_operator(corpus):
    # with F = y N/f^2 for the N that _witness solves, only its residual test
    # (the x^1 and x^0 equations) can reject the operator
    for label, E, L in corpus:
        K, f = E.field, E.cubic()
        for kind, bad in perturbed_operators(E, L):
            if kind not in ("A + t", "B + 1", "2C"):
                continue
            N, ok = mm._witness(E, bad.A, bad.B, bad.C)
            F = CurveFunction(E, RatX(K, XPoly.zero(K)), RatX(K, N, f * f))
            assert not ok, (label, kind)
            op = PFOperator(bad.A, bad.B, bad.C, F)
            assert _decisions(E, op) == (False, False, False), (label, kind)


def _isotrivial():
    """(label, E, exact operator, inexact operator) on curves find_pf refuses.

    On y^2 = x^3 + x + 1 the periods are constant, so d^2 kills dx/y with
    witness 0 while d^2 + 1 does not.  The twist y^2 = x^3 + t^2 x + t^3 has
    periods in t^(-1/2), killed by t d^2 + (3/2) d; its witness
    y (t x^2 + 3t^2 x/2)/f^2 is the one N' f - (3/2) N f' = R gives, and
    both oracles check it on their own.
    """
    K = FunctionField(QQ, "t")
    t, one, zero = K.gen, K.one, K.zero
    E = WeierstrassModel.short(K, one, one)
    Et = WeierstrassModel.short(K, t ** 2, t ** 3)
    Ft = parse_curve_function("y*(t*x^2 + 3/2*t^2*x)/(x^3 + t^2*x + t^3)^2", Et)
    three_halves = K.from_fraction(3, 2)
    return [
        ("constant", E, PFOperator(one, zero, zero, CurveFunction.zero(E)),
         PFOperator(one, zero, one, CurveFunction.zero(E))),
        ("twist by t", Et, PFOperator(t, three_halves, zero, Ft),
         PFOperator(t, three_halves, one, Ft)),
    ]


@pytest.mark.parametrize("case", _isotrivial(), ids=lambda c: c[0])
def test_verify_pf_on_isotrivial_curves(case):
    label, E, good, bad = case
    assert E.is_isotrivial()
    assert _decisions(E, good) == (True, True, True)
    assert _decisions(E, bad) == (False, False, False)
    # d^2 and d kill dx/y on the constant curve, so some perturbations stay exact
    for kind, other in perturbed_operators(E, good):
        assert len(set(_decisions(E, other))) == 1, kind


def test_cleared_round_trip(corpus):
    for label, E, L in corpus:
        K = E.field
        for p in (E.cubic(), L.F.ry.num, L.F.ry.den):
            P, den = p.cleared()
            assert den.leading == K.constants.one
            assert XPoly(K, [K.element(c, den) for c in P.coeffs]) == p, label
