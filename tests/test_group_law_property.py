"""Group-law properties on the Legendre surface y^2 = x(x-1)(x-t), by hypothesis.

Over Q(t) the Legendre model has only its 2-torsion; its pullback to the
biquadratic cover over Q(u) also carries P2 = (2, s2) and P3 = (3, s3).
Points are drawn as a*P2 + b*P3 + T with T one of O and the three points
with y = 0, so sums meet every branch of ``add``: distinct x, doubling,
an inverse pair, a 2-torsion summand and O.

- associativity: (P + Q) + R == P + (Q + R), and every sum lies on the curve;
- torsion: 2T = O and T1 + T2 = T3 for the 2-torsion, and nP - nP = O,
  with nP - P = (n-1)P tying ``scalar_mul`` to ``add``.
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from maninmaps import QQ, CurvePoint, FunctionField

from conftest import legendre, legendre_biquadratic

E, P2, P3, _ = legendre_biquadratic(QQ)


def two_torsion(model):
    """O and the points (0, 0), (1, 0), (t, 0) of y^2 = x(x-1)(x-t)."""
    K = model.field
    t = -model.c2 - K.one
    return [CurvePoint.zero(model)] + [CurvePoint(model, x, K.zero) for x in (K.zero, K.one, t)]


TORSION = two_torsion(E)


def on_curve(P):
    return P.is_zero or P.y * P.y == P.model.cubic().evaluate(P.x)


point = st.builds(
    lambda a, b, i: a * P2 + b * P3 + TORSION[i],
    st.integers(-1, 1), st.integers(-1, 1), st.integers(0, 3),
)


@settings(max_examples=30, deadline=None)
@given(point, point, point)
def test_addition_is_associative(P, Q, R):
    left = (P + Q) + R
    assert left == P + (Q + R)
    assert on_curve(P + Q) and on_curve(left)
    assert P + Q == Q + P


@pytest.mark.parametrize("model", [legendre(FunctionField(QQ, "t")), E],
                         ids=["Q(t)", "biquadratic cover"])
def test_two_torsion(model):
    O, T1, T2, T3 = two_torsion(model)
    for T in (T1, T2, T3):
        assert T + O == T and (T + T).is_zero and (2 * T).is_zero and -T == T
    assert T1 + T2 == T3 and T2 + T3 == T1 and T1 + T3 == T2


# x(nP) has degree about 4n^2 in u, so n stays small
@settings(max_examples=30, deadline=None)
@given(point, st.integers(1, 4))
def test_multiple_minus_itself_is_zero(P, n):
    nP = n * P
    assert (nP - nP).is_zero
    assert on_curve(nP)
    assert nP - P == (n - 1) * P
