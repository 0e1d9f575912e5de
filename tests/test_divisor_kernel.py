"""``divisor_of_function`` as the one divisor kernel.

- On drawn sections over Q(t) and F_7(t) (a drawn value on a drawn short
  model, weight in {-2, -1, 0, 1, 4, p - 1}, differential degree in
  {0, 1, 2}), ``sections.divisor`` and ``divisor_of_differential`` equal
  the place-by-place divisors of ``divisor_oracle``.
- ``sections.divisor``, ``divisor_of_differential`` and ``exceptional_set``
  take no single-place valuation, and ``exceptional_set`` classifies no
  fiber: spies on ``ord_at``, ``Poly.multiplicity_of`` and ``kodaira_type``
  stay silent while they run.
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import divisor_oracle
from conftest import legendre
from maninmaps import (
    Differential,
    FunctionField,
    GradedSection,
    PrimeField,
    QQ,
    WeierstrassModel,
    divisor,
    divisor_of_differential,
    exceptional_set,
)
from maninmaps import elliptic, funcfield, maninmap, sections
from maninmaps.polynomials import Poly

FIELDS = {"Q": FunctionField(QQ, "t"), "F7": FunctionField(PrimeField(7), "t")}


@st.composite
def elements(draw, K):
    def poly():
        return K.poly(draw(st.lists(st.integers(-4, 4), min_size=1, max_size=4)))

    num, den = poly(), poly()
    assume(not den.is_zero())
    return K.element(num, den)


@st.composite
def sections_over(draw, name):
    K = FIELDS[name]
    a4, a6, value = draw(elements(K)), draw(elements(K)), draw(elements(K))
    assume(not value.is_zero() and not (a4.is_zero() and a6.is_zero()))
    assume(not (a4 ** 3 * 4 + a6 ** 2 * 27).is_zero())
    weights = (-2, -1, 0, 1, 4, K.char - 1)
    E = WeierstrassModel.short(K, a4, a6)
    return GradedSection(value, draw(st.sampled_from(weights)), draw(st.integers(0, 2)), E)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(FIELDS)).flatmap(sections_over))
def test_section_and_differential_divisors_match_the_place_by_place_oracle(S):
    assert divisor(S).entries == divisor_oracle.section_divisor(S)
    omega = Differential(S.value)
    assert divisor_of_differential(omega) == divisor_oracle.differential_divisor(omega)


def _forbid(monkeypatch, owner, name):
    def spy(*args, **kwargs):
        raise AssertionError("%s called" % name)

    monkeypatch.setattr(owner, name, spy)


def test_divisor_readers_take_no_single_place_valuation(monkeypatch):
    K = FIELDS["Q"]
    t = K.gen
    E = WeierstrassModel.short(K, (t + 1) * (t - 2) ** 3, t ** 5 / (t - 3) ** 2)
    S = GradedSection((t ** 2 + 1) / (t * (t - 2)), -1, 2, E)
    omega = Differential(S.value)
    expected_divisor = divisor_oracle.section_divisor(S)
    expected_differential = divisor_oracle.differential_divisor(omega)
    expected_set = exceptional_set(legendre(K)).entries
    # the degree check stays an independent computation by trial division
    d = elliptic.deg_omega(E)
    monkeypatch.setattr(sections, "deg_omega", lambda _: d)
    for module in (funcfield, elliptic, sections):
        _forbid(monkeypatch, module, "ord_at")
    _forbid(monkeypatch, Poly, "multiplicity_of")
    _forbid(monkeypatch, elliptic, "kodaira_type")
    assert not hasattr(maninmap, "ord_at") and not hasattr(maninmap, "kodaira_type")
    assert divisor(S).entries == expected_divisor
    assert divisor_of_differential(omega) == expected_differential
    assert exceptional_set(legendre(K)).entries == expected_set
