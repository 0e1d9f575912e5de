"""``verify_pf`` on pulled-back operators against the witness solved on the cover.

``pullback_pf`` records the operator it transports, and ``verify_pf`` on the
result returns that operator's answer instead of solving the witness over
the cover's coefficients.  ``pf_oracle.witness_exact`` solves it there
anyway.  Over random non-constant covers t = r(u), r of degree at most 2 on
top and bottom, the two must agree on the Legendre operator (exact), on a
perturbation C + c with c != 0 (not exact), and on pullbacks of pullbacks.

``pullback_pf`` builds the pulled-back witness without a gcd, as the
pullback is an injective ring map sending 1 to 1; it must equal the witness
that the normalising constructor ``RatX(K, num, den)`` rebuilds from the
mapped numerators and denominators.
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from maninmaps import (
    CoverMap,
    CurveFunction,
    FunctionField,
    PFOperator,
    QQ,
    RatX,
    pullback_pf,
    verify_pf,
)

import pf_oracle
from conftest import legendre_operator

Kt = FunctionField(QQ, "t")
Ku = FunctionField(QQ, "u")
Kv = FunctionField(QQ, "v")

quadratic = st.lists(st.integers(-3, 3), min_size=1, max_size=3)
shift = st.fractions(min_value=-3, max_value=3).filter(lambda c: c != 0)


def cover(K, base, num, den):
    """t = num(u)/den(u) from K to base, refused unless non-constant."""
    n, d = K.poly(num), K.poly(den)
    assume(not d.is_zero())
    r = K.element(n, d)
    assume(not r.derive().is_zero())
    return CoverMap(K, base, r)


def normalised_pullback(F, phi, model):
    """F with coefficients pulled back along phi, each fraction through ``RatX``'s gcd."""
    K = model.field

    def image(r):
        return RatX(K, r.num.map_coeffs(phi.pullback, K), r.den.map_coeffs(phi.pullback, K))

    return CurveFunction(model, image(F.rx), image(F.ry))


@settings(max_examples=20, deadline=None)
@given(quadratic, quadratic, quadratic, quadratic, shift)
def test_transported_answer_matches_the_witness_on_the_cover(num, den, num2, den2, c):
    _, L = legendre_operator(Kt)
    bad = PFOperator(L.A, L.B, L.C + Kt.from_fraction(c.numerator, c.denominator), L.F)
    phi = cover(Ku, Kt, num, den)
    psi = cover(Kv, Ku, num2, den2)
    for source, want in ((L, True), (bad, False)):
        Lu = pullback_pf(source, phi)
        Lv = pullback_pf(Lu, psi)
        assert Lu.F == normalised_pullback(source.F, phi, Lu.F.model)
        assert Lv.F == normalised_pullback(Lu.F, psi, Lv.F.model)
        # the pullback of a pullback first, so its answer comes through Lu unverified
        for Lc in (Lv, Lu):
            Ec = Lc.F.model
            assert pf_oracle.witness_exact(Ec, Lc) == want
            assert verify_pf(Ec, Lc) == want
