"""Canonical-fraction arithmetic of ``_Quotient`` against the full normalisation.

``FieldElement`` and ``RatX`` build the results of + - * / ** and of
``derive`` with Henrici's gcd splitting, taking gcds only where a common
factor can remain.  Each result must equal the fully normalising constructor
applied to the naive cross products, over Q(t), F_5(t) and F_7(t) and, for
``RatX``, over Q(t)[x]; operands are drawn with shared factors so that every
cancellation the splitting relies on occurs.  Spies check the work the
splitting saves: a product of two polynomials takes no gcd, and ``ord_at``
asks the denominator only when the numerator does not vanish.
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from maninmaps import FieldElement, FunctionField, PrimeField, QQ, RatX, XPoly, ord_at
from maninmaps.polynomials import Poly

FIELDS = {
    "Q": FunctionField(QQ, "t"),
    "F5": FunctionField(PrimeField(5), "t"),
    "F7": FunctionField(PrimeField(7), "t"),
}


def poly(K, max_degree):
    return st.lists(st.integers(-9, 9), max_size=max_degree + 1).map(K.poly)


def nonzero(strategy):
    return strategy.filter(lambda p: not p.is_zero())


def pair(K):
    """Two elements n1/(d1*g) and (n2*g)/d2 whose product and sum cancel g."""
    def build(n1, d1, n2, d2, g, k):
        return K.element(n1, d1 * g) / k, K.element(n2 * g, d2)
    scale = st.integers(1, 4).filter(lambda k: K.char == 0 or k % K.char)
    den = nonzero(poly(K, 2))
    return st.builds(build, poly(K, 2), den, poly(K, 2), den, den, scale)


def naive(K, num, den):
    return FieldElement(K, num, den)


field_name = st.sampled_from(sorted(FIELDS))


@settings(max_examples=120, deadline=None)
@given(st.data(), field_name)
def test_field_operations_equal_full_normalisation(data, name):
    K = FIELDS[name]
    a, b = data.draw(pair(K))
    if data.draw(st.booleans()):
        a, b = b, a
    an, ad, bn, bd = a.num, a.den, b.num, b.den
    assert a + b == naive(K, an * bd + bn * ad, ad * bd)
    assert a - b == naive(K, an * bd - bn * ad, ad * bd)
    assert a * b == naive(K, an * bn, ad * bd)
    assert -a == naive(K, -an, ad)
    if not b.is_zero():
        assert a / b == naive(K, an * bd, ad * bn)
    n = data.draw(st.integers(-3, 3))
    if n >= 0:
        assert a ** n == naive(K, an ** n, ad ** n)
    elif not a.is_zero():
        assert a ** n == naive(K, ad ** -n, an ** -n)
    for r in (a + b, a - b, a * b):
        assert r.den.leading == K.constants.one
        assert r.num.gcd(r.den).is_one()
        assert not r.is_zero() or r.den.is_one()


@settings(max_examples=80, deadline=None)
@given(st.data(), field_name)
def test_derive_equals_quotient_rule(data, name):
    K = FIELDS[name]
    a, b = data.draw(pair(K))
    for f in (a, b, a * b, a + b):
        n, d = f.num, f.den
        assert f.derive() == naive(K, n.derivative() * d - n * d.derivative(), d * d)


def test_derive_with_vanishing_denominator_derivative():
    K = FIELDS["F5"]
    t = K.gen
    f = (t ** 6 + 1) / t ** 5  # d' = 5 t^4 = 0 over F_5
    assert f.derive() == K.one


def xpoly(K, max_degree):
    coeffs = st.lists(st.builds(lambda n, k: K.from_int(n) / k + K.gen * n, st.integers(-4, 4),
                                st.integers(1, 3)), max_size=max_degree + 1)
    return coeffs.map(lambda cs: XPoly(K, cs))


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_ratx_operations_equal_full_normalisation(data):
    K = FIELDS["Q"]
    g = data.draw(nonzero(xpoly(K, 1)))
    u, w = data.draw(xpoly(K, 1)), data.draw(nonzero(xpoly(K, 1)))
    y, z = data.draw(xpoly(K, 1)), data.draw(nonzero(xpoly(K, 1)))
    a, b = RatX(K, u, w * g), RatX(K, y * g, z)
    an, ad, bn, bd = a.num, a.den, b.num, b.den
    assert a + b == RatX(K, an * bd + bn * ad, ad * bd)
    assert a - b == RatX(K, an * bd - bn * ad, ad * bd)
    assert a * b == RatX(K, an * bn, ad * bd)
    if not b.is_zero():
        assert a / b == RatX(K, an * bd, ad * bn)
    if not a.is_zero():
        assert a ** -2 == RatX(K, ad * ad, an * an)


def _count_calls(monkeypatch, name):
    calls = []
    inner = getattr(Poly, name)

    def spy(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(Poly, name, spy)
    return calls


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_product_of_polynomials_takes_no_gcd(monkeypatch, name):
    K = FIELDS[name]
    t = K.gen
    a, b = t ** 2 + 3, 2 * t - 1
    calls = _count_calls(monkeypatch, "gcd")
    assert a * b == K.element(K.poly([-3, 6, -1, 2]))
    assert calls == []


def test_ord_at_asks_the_numerator_only_when_it_vanishes(monkeypatch):
    K = FIELDS["Q"]
    t = K.gen
    calls = _count_calls(monkeypatch, "multiplicity_of")
    assert ord_at(t ** 3 / (t + 1), K.place(t.num)) == 3
    assert len(calls) == 1
    assert ord_at(t ** 3 / (t + 1), K.place((t + 1).num)) == -1
    assert ord_at(t ** 3 / (t + 1), K.place((t + 2).num)) == 0
