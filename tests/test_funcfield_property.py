"""Properties of K = k(t) and K[x] over k = Q and k = F_7, drawn by hypothesis.

- ``FieldElement`` obeys the field axioms, and its canonical form makes
  structural equality mathematical equality;
- ``RatX`` obeys the field axioms of K(x), and its canonical form has a
  denominator monic in x and forgets a common factor of numerator and
  denominator;
- ``parse`` reads back what ``str`` prints, for field elements and for
  x-polynomials;
- ``XPoly.gcd`` (a primitive remainder sequence on cleared numerators in
  k[t][x]) equals Euclid's algorithm over K from ``xpoly_oracle`` on drawn
  ``g*u`` and ``g*w``, and feeds only primitive polynomials to each
  pseudo-division.
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

import maninmaps.funcfield as ff
from maninmaps import FunctionField, PrimeField, QQ, RatX, XPoly, parse

import xpoly_oracle

FIELDS = {"Q": FunctionField(QQ, "t"), "F7": FunctionField(PrimeField(7), "t")}


def poly(K, max_degree):
    return st.lists(st.integers(-9, 9), max_size=max_degree + 1).map(K.poly)


def element(K, max_degree=2):
    """num/(den * k) with small integer num and den and a constant k."""
    den = poly(K, max_degree).filter(lambda d: not d.is_zero())
    scale = st.integers(1, 4).filter(lambda k: K.char == 0 or k % K.char)
    return st.builds(lambda n, d, k: K.element(n, d) / k, poly(K, max_degree), den, scale)


def xpoly(K, max_degree, coefficient_degree=1):
    coeffs = st.lists(element(K, coefficient_degree), min_size=1, max_size=max_degree + 1)
    return coeffs.map(lambda cs: XPoly(K, cs))


def nonzero_xpoly(K, max_degree):
    return xpoly(K, max_degree).filter(lambda p: not p.is_zero())


def ratx(K, max_degree=1):
    return st.builds(lambda u, w: RatX(K, u, w), xpoly(K, max_degree), nonzero_xpoly(K, max_degree))


field_name = st.sampled_from(sorted(FIELDS))


@settings(max_examples=40, deadline=None)
@given(st.data(), field_name)
def test_field_axioms(data, name):
    K = FIELDS[name]
    a, b, c = (data.draw(element(K)) for _ in range(3))
    assert (a + b) + c == a + (b + c) and a + b == b + a
    assert (a * b) * c == a * (b * c) and a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + K.zero == a and a * K.one == a and a + (-a) == K.zero
    assert a - b == a + (-b)
    if not a.is_zero():
        assert a * (K.one / a) == K.one
        assert (b / a) * a == b
    assert hash(a * b) == hash(b * a)


@settings(max_examples=25, deadline=None)
@given(st.data(), field_name)
def test_ratx_field_axioms(data, name):
    K = FIELDS[name]
    a, b, c = (data.draw(ratx(K)) for _ in range(3))
    zero, one = RatX.const(K.zero), RatX.const(K.one)
    assert (a + b) + c == a + (b + c) and a + b == b + a
    assert (a * b) * c == a * (b * c) and a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + zero == a and a * one == a and a + (-a) == zero
    assert a - b == a + (-b)
    if not a.is_zero():
        assert a * (one / a) == one
        assert (b / a) * a == b
        assert a ** -2 == one / (a * a)
    assert hash(a * b) == hash(b * a)


@settings(max_examples=25, deadline=None)
@given(st.data(), field_name)
def test_ratx_canonical_form(data, name):
    K = FIELDS[name]
    u = data.draw(xpoly(K, 2))
    w, g = data.draw(nonzero_xpoly(K, 2)), data.draw(nonzero_xpoly(K, 1))
    r = RatX(K, u, w)
    assert r.den.leading == K.one
    assert r.num.gcd(r.den).degree == 0
    assert RatX(K, u * g, w * g) == r


@settings(max_examples=40, deadline=None)
@given(st.data(), field_name)
def test_parse_reads_back_printed_forms(data, name):
    K = FIELDS[name]
    a = data.draw(element(K, 3))
    assert parse(str(a), K) == a
    p = data.draw(xpoly(K, 3).filter(lambda q: q.degree > 0))
    assert parse(str(p), K) == p


def _is_primitive(p):
    if p.is_zero():
        return True
    content = p.leading
    for c in p.coeffs:
        content = content.gcd(c)
    return content.is_one() and p.leading.leading == p.field.constants.one


@settings(max_examples=40, deadline=None)
@given(st.data(), field_name)
def test_xpoly_gcd_matches_euclid(data, name):
    K = FIELDS[name]
    g = data.draw(xpoly(K, 2))
    u, w = data.draw(xpoly(K, 2)), data.draw(xpoly(K, 3))
    a, b = g * u, g * w
    want = xpoly_oracle.euclid_gcd(a, b)
    divisions = []
    inner = ff._prem
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ff, "_prem", lambda x, y: divisions.append((x, y)) or inner(x, y))
        assert a.gcd(b) == want and b.gcd(a) == want
    # every pseudo-division gets primitive operands: the t-content is removed
    assert all(_is_primitive(x) and _is_primitive(y) for x, y in divisions)
    if not g.is_zero() and not (u.is_zero() and w.is_zero()):
        assert (a % want).is_zero() and (b % want).is_zero()
        assert want.degree >= g.degree and want.leading == K.one
