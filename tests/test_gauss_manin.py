"""The Gauss-Manin pair (Delta, delta) against the formulas it replaced.

``elliptic._gauss_manin`` gives Delta = 4 a4^3 + 27 a6^2 and
delta = 3 a6 a4' - 2 a4 a6'; the twisted differential, the descent argument,
the exceptional set and ``find_pf`` read everything off that pair, so none
of them builds j.  ``twisted_oracle`` keeps the j-based formulas.  The
drawn curves include a4 = 0, a6 = 0, constant-j twists (a4, a6) = (c g^2,
d g^3) and, in characteristic p, coefficients in k(u^p), where j is a p-th
power.
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import twisted_oracle
from conftest import legendre, legendre_cover_2
from maninmaps import (
    QQ,
    CurvePoint,
    FunctionField,
    PrimeField,
    WeierstrassModel,
    exceptional_set,
    find_pf,
    hasse_data,
    kodaira_spencer_section,
    p_descent_value,
)
from maninmaps.elliptic import _gauss_manin
from maninmaps.errors import HypothesisError, NotFoundError

FIELDS = {p: FunctionField(PrimeField(p), "u") for p in (5, 7, 11)}
QT = FunctionField(QQ, "t")
SHAPES = ("generic",) * 4 + ("a4=0", "a6=0", "twist", "frobenius")
REFUSAL = "the twisted differential vanishes"


def _poly(data, K, size, frobenius=False):
    ints = data.draw(st.lists(st.integers(-3, 3), min_size=1, max_size=size))
    if frobenius:  # a polynomial in u^p
        ints = [c for i in ints for c in [i] + [0] * (K.char - 1)]
    return K.element(K.poly(ints))


def _element(data, K, frobenius=False):
    num = _poly(data, K, 4, frobenius)
    den = _poly(data, K, 2, frobenius)
    assume(not den.is_zero())
    return num / den


def draw_short(data, K):
    """A nonsingular short model of a drawn shape."""
    shape = data.draw(st.sampled_from(SHAPES))
    frob = shape == "frobenius" and K.char > 0
    a4, a6 = _element(data, K, frob), _element(data, K, frob)
    if shape == "a4=0":
        a4 = K.zero
    elif shape == "a6=0":
        a6 = K.zero
    elif shape == "twist":
        g = _element(data, K)
        c, d = (data.draw(st.integers(-3, 3).filter(bool)) for _ in "cd")
        a4, a6 = g * g * c, g ** 3 * d
    assume(not (a4 ** 3 * 4 + a6 ** 2 * 27).is_zero())
    return WeierstrassModel.short(K, a4, a6)


def degenerate(E):
    """Whether a4 a6 j' = 0, where the j-based formula refuses."""
    return (E.a4 * E.a6).is_zero() or E.j_invariant().derive().is_zero()


fields = st.sampled_from(sorted(FIELDS)).map(FIELDS.get)


@settings(max_examples=60, deadline=None)
@given(st.one_of(fields, st.just(QT)), st.data())
def test_delta_vanishes_exactly_when_the_j_formula_degenerates(K, data):
    E = draw_short(data, K)
    disc, delta = _gauss_manin(E)
    assert disc == E.a4 ** 3 * 4 + E.a6 ** 2 * 27
    assert delta.is_zero() == degenerate(E)
    if not delta.is_zero():
        assert delta * 3 / (disc * 2) == twisted_oracle.twisted_differential(E)


@settings(max_examples=60, deadline=None)
@given(fields, st.data())
def test_twisted_differential_matches_oracle(K, data):
    E = draw_short(data, K)
    if degenerate(E):
        with pytest.raises(HypothesisError, match=REFUSAL):
            kodaira_spencer_section(E)
        return
    lam = kodaira_spencer_section(E)
    assert lam.value == twisted_oracle.twisted_differential(E)
    assert (lam.weight, lam.diff_degree) == (-2, 1)


@settings(max_examples=40, deadline=None)
@given(fields, st.data())
def test_p_descent_value_matches_oracle_through_a_polynomial_point(K, data):
    g, h = _poly(data, K, 2), _poly(data, K, 4)
    c2 = data.draw(st.sampled_from((K.zero, K.zero, _poly(data, K, 2))))
    c1 = _poly(data, K, 2)
    c0 = h * h - g ** 3 - c2 * g * g - c1 * g
    try:
        E = WeierstrassModel(K, c2, c1, c0)
    except HypothesisError:
        assume(False)
    P = CurvePoint(E, g, h)
    try:
        expected = twisted_oracle.p_descent_value(E, P)
    except HypothesisError:
        with pytest.raises(HypothesisError, match=REFUSAL):
            p_descent_value(E, P)
        return
    assert p_descent_value(E, P) == expected


@settings(max_examples=40, deadline=None)
@given(fields, st.data())
def test_hasse_split_matches_the_power_over_K(K, data):
    E = draw_short(data, K)
    split = hasse_data(E)
    assert (split.A, split.M) == twisted_oracle.hasse_split(E)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_char0_refusals_follow_isotriviality(data):
    E = draw_short(data, QT)
    if E.is_isotrivial():
        with pytest.raises(HypothesisError, match="isotrivial"):
            exceptional_set(E)
        with pytest.raises(NotFoundError, match="isotrivial"):
            find_pf(E)
    else:
        exceptional_set(E)


def test_a4_and_a6_zero_get_the_same_refusal():
    K = FIELDS[5]
    u = K.gen
    texts = set()
    for a4, a6 in ((K.zero, u), (u, K.zero), (K.from_int(-3), 2 + u ** 5)):
        with pytest.raises(HypothesisError) as info:
            kodaira_spencer_section(WeierstrassModel.short(K, a4, a6))
        texts.add(str(info.value))
    assert len(texts) == 1 and REFUSAL in texts.pop()


def test_gauss_manin_callers_never_build_j(monkeypatch):
    def refuse(self):
        raise AssertionError("j_invariant called")

    monkeypatch.setattr(WeierstrassModel, "j_invariant", refuse)
    E5, P5, _ = legendre_cover_2(PrimeField(5))
    kodaira_spencer_section(E5)
    p_descent_value(E5, P5)
    for E in (legendre(QT), legendre_cover_2(QQ)[0]):
        exceptional_set(E)
        find_pf(E, pole_bound=12)
