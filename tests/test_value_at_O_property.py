"""The closed-form value at the origin against the series oracle.

Random g = rx(x) + y ry(x) on the Legendre model over Q(t) and F_7(t):
``value_at_O`` and the Laurent-series value in ``series_oracle`` must agree,
on the value and on raising ``HypothesisError`` for a pole.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from maninmaps import (
    CurveFunction,
    FunctionField,
    HypothesisError,
    PrimeField,
    QQ,
    RatX,
    XPoly,
    value_at_O,
)

from conftest import legendre
from series_oracle import series_value_at_O

FIELDS = {"Q": FunctionField(QQ, "t"), "F7": FunctionField(PrimeField(7), "t")}

# a coefficient (a + b t) / (t + c)^e, e in {0, 1}
coefficient = st.tuples(
    st.integers(-3, 3), st.integers(-2, 2), st.integers(-2, 2), st.booleans()
)
xpoly = st.lists(coefficient, max_size=3)


def _element(K, data):
    a, b, c, divide = data
    e = K.from_int(a) + K.from_int(b) * K.gen
    return e / (K.gen + K.from_int(c)) if divide else e


def _ratx(K, num, den):
    n = XPoly(K, [_element(K, d) for d in num])
    d = XPoly(K, [_element(K, d) for d in den])
    assume(not d.is_zero())
    return RatX(K, n, d)


def _value_or_pole(fn, g):
    try:
        return fn(g)
    except HypothesisError:
        return "pole"


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(sorted(FIELDS)),
    rx_num=xpoly,
    rx_den=xpoly,
    ry_num=xpoly,
    ry_den=xpoly,
)
def test_value_at_O_matches_series(name, rx_num, rx_den, ry_num, ry_den):
    K = FIELDS[name]
    E = legendre(K)
    g = CurveFunction(E, _ratx(K, rx_num, rx_den), _ratx(K, ry_num, ry_den))
    assert _value_or_pole(value_at_O, g) == _value_or_pole(series_value_at_O, g)
