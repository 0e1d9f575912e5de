"""The fraction-free exactness identity against its K(t)-coefficient oracle.

``_exactness_holds`` tests L(dx/y) = dF on numerators cleared into k[t][x];
``xpoly_oracle.exactness_holds`` is the cross-multiplication over K(t) it
replaced.  They must agree on every operator the library meets: the bundled
characteristic-0 manifests, the Legendre operator pulled back along covers,
and operators solved by ``find_pf``; perturbed operators must be rejected by
both.
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
    pullback_pf,
)
from maninmaps.cli import Manifest

import xpoly_oracle
from conftest import (
    legendre,
    legendre_biquadratic,
    legendre_cover_2,
    legendre_cover_a,
    legendre_operator,
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
    return [(label, E, find_pf(E, pole_bound=bound)) for label, E, bound in curves]


@pytest.fixture(scope="module")
def corpus():
    return _bundled() + _pulled_back() + _solved()


def _perturbations(E, L):
    K = E.field
    x_part = L.F.rx + RatX.from_xpoly(XPoly.x(K))
    return [
        ("B + 1", PFOperator(L.A, L.B + 1, L.C, L.F)),
        ("2C", PFOperator(L.A, L.B, L.C * 2, L.F)),
        ("rx + x", PFOperator(L.A, L.B, L.C, CurveFunction(E, x_part, L.F.ry))),
    ]


def test_exactness_matches_oracle_on_operators(corpus):
    assert len(corpus) == 14
    for label, E, L in corpus:
        assert xpoly_oracle.exactness_holds(E, L), label
        assert mm._exactness_holds(E, L), label
        # an rx free of x (here with a t-denominator) leaves dF untouched
        t = E.field.gen
        shifted = CurveFunction(E, L.F.rx + RatX.const(t / (t + 3)), L.F.ry)
        assert mm._exactness_holds(E, PFOperator(L.A, L.B, L.C, shifted)), label


def test_exactness_rejects_perturbed_operators(corpus):
    for label, E, L in corpus:
        for kind, bad in _perturbations(E, L):
            assert not xpoly_oracle.exactness_holds(E, bad), (label, kind)
            assert not mm._exactness_holds(E, bad), (label, kind)


def test_cleared_round_trip(corpus):
    for label, E, L in corpus:
        K = E.field
        for p in (E.cubic(), L.F.ry.num, L.F.ry.den):
            P, den = p.cleared()
            assert den.leading == K.constants.one
            assert XPoly(K, [K.element(c, den) for c in P.coeffs]) == p, label
