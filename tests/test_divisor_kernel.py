"""``divisor_of_function`` as the one divisor kernel.

- On drawn sections over Q(t) and F_7(t) (a drawn value on a drawn short
  model, weight in {-2, -1, 0, 1, 4, p - 1}, differential degree in
  {0, 1, 2}; a differential f d(var) is weight 0, differential degree 1),
  ``sections.divisor`` equals the place-by-place divisor of
  ``divisor_oracle``.
- ``sections.divisor`` and ``exceptional_set`` take no single-place
  valuation, and ``exceptional_set`` classifies no fiber: spies on
  ``ord_at``, ``Poly.multiplicity_of`` and ``kodaira_type`` stay silent
  while they run.
- The fiber pass ``elliptic._fibers`` agrees with trial division: on drawn
  short models over Q(t) and F_7(t), ``bad_places`` equals ``kodaira_type``
  at each curve place, and 12 deg omega is the sum of minimal discriminant
  orders.  Its readers (``bad_places``, the order table and the tangency
  scan) call none of ``ord_at``, ``kodaira_type`` and ``twist_exponent``.
  deg omega alone reads k_v by trial division at the pass's places
  (``elliptic._deg_omega``), so these tests fix it beforehand.
- Each reader of the local data makes one ``_fibers`` pass: ``divisor``,
  ``reduction_table_report`` and ``descent_divisor`` (counting spies); the
  exceptional set's pass serves the whole tangency report
  (``test_maninmap.py``).
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import divisor_oracle
from conftest import count_calls, legendre, legendre_cover_2, place
from maninmaps import (
    FunctionField,
    GradedSection,
    PrimeField,
    QQ,
    WeierstrassModel,
    descent_bound_report,
    descent_divisor,
    divisor,
    exceptional_set,
    kodaira_spencer_section,
    reduction_table_report,
    tangency_scan,
)
from maninmaps import elliptic, funcfield, maninmap, pdescent, sections
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
def short_models(draw, name):
    K = FIELDS[name]
    a4, a6 = draw(elements(K)), draw(elements(K))
    assume(not (a4 ** 3 * 4 + a6 ** 2 * 27).is_zero())
    return WeierstrassModel.short(K, a4, a6)


@st.composite
def sections_over(draw, name):
    E = draw(short_models(name))
    K, value = E.field, draw(elements(E.field))
    assume(not value.is_zero())
    weights = (-2, -1, 0, 1, 4, K.char - 1)
    return GradedSection(value, draw(st.sampled_from(weights)), draw(st.integers(0, 2)), E)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(FIELDS)).flatmap(sections_over))
def test_section_and_differential_divisors_match_the_place_by_place_oracle(S):
    assert divisor(S).entries == divisor_oracle.section_divisor(S)
    dt = GradedSection(S.value, 0, 1, S.model)
    assert divisor(dt).entries == divisor_oracle.section_divisor(dt)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(FIELDS)).flatmap(short_models))
def test_fiber_pass_matches_trial_division(E):
    places = [v for v, *_ in elliptic._fibers(E)]
    types = [(v, elliptic.kodaira_type(E, v)) for v in places]
    assert elliptic.bad_places(E) == [(v, kt) for v, kt in types if not kt.is_good]
    disc = E.discriminant()
    total = sum(v.degree * (funcfield.ord_at(disc, v) + 12 * elliptic.twist_exponent(E, v))
                for v in places)
    assert 12 * elliptic.deg_omega(E) == total


def _forbid(monkeypatch, owner, name):
    def spy(*args, **kwargs):
        raise AssertionError("%s called" % name)

    monkeypatch.setattr(owner, name, spy)


def test_divisor_readers_take_no_single_place_valuation(monkeypatch):
    K = FIELDS["Q"]
    t = K.gen
    E = WeierstrassModel.short(K, (t + 1) * (t - 2) ** 3, t ** 5 / (t - 3) ** 2)
    S = GradedSection((t ** 2 + 1) / (t * (t - 2)), -1, 2, E)
    dt = GradedSection(S.value, 0, 1, E)
    expected_divisor = divisor_oracle.section_divisor(S)
    expected_differential = divisor_oracle.section_divisor(dt)
    expected_set = exceptional_set(legendre(K)).entries
    # the degree check stays an independent computation by trial division
    d = elliptic.deg_omega(E)
    monkeypatch.setattr(sections, "_deg_omega", lambda *_: d)
    for module in (funcfield, elliptic, sections):
        _forbid(monkeypatch, module, "ord_at")
    _forbid(monkeypatch, Poly, "multiplicity_of")
    _forbid(monkeypatch, elliptic, "kodaira_type")
    assert not hasattr(maninmap, "ord_at") and not hasattr(maninmap, "kodaira_type")
    assert divisor(S).entries == expected_divisor
    assert divisor(dt).entries == expected_differential
    assert exceptional_set(legendre(K)).entries == expected_set


def test_fiber_readers_take_no_single_place_valuation(monkeypatch):
    E, P, _ = legendre_cover_2(PrimeField(5))
    # s^2 + s + 1 is prime over F_5 and no curve place, so its k_v is the default 0
    watch = [place(E.field, [1, 1, 1]), *divisor(kodaira_spencer_section(E)).support()]
    expected_places = [v for v, *_ in elliptic._fibers(E)]
    expected_bad = elliptic.bad_places(E)
    expected_rows = [(r.place, r.ktype, r.ell, r.ok) for r in reduction_table_report(E)]
    expected_iotas = tangency_scan(E, P, 12, watch_places=watch).iotas
    assert watch[0] not in expected_places
    d = elliptic.deg_omega(E)
    for module in (sections, pdescent):
        monkeypatch.setattr(module, "_deg_omega", lambda *_: d)
    for module in (funcfield, elliptic, sections, pdescent, maninmap):
        for name in ("ord_at", "kodaira_type", "twist_exponent"):
            if hasattr(module, name):
                _forbid(monkeypatch, module, name)
    assert [v for v, *_ in elliptic._fibers(E)] == expected_places
    assert elliptic.bad_places(E) == expected_bad
    rows = [(r.place, r.ktype, r.ell, r.ok) for r in reduction_table_report(E)]
    assert rows == expected_rows
    assert tangency_scan(E, P, 12, watch_places=watch).iotas == expected_iotas


READERS = {
    "divisor": lambda E, P: divisor(kodaira_spencer_section(E)),
    "reduction_table_report": lambda E, P: reduction_table_report(E),
    "descent_divisor": descent_divisor,
}


@pytest.mark.parametrize("reader", sorted(READERS))
def test_each_reader_makes_one_fiber_pass(monkeypatch, reader):
    E, P, _ = legendre_cover_2(PrimeField(5))
    calls = count_calls(monkeypatch, ("_fibers", "_local_orders"))
    READERS[reader](E, P)
    assert calls == {"_fibers": 1, "_local_orders": 1}


def test_descent_bound_report_passes(monkeypatch):
    # one pass per divisor (of lambda, nu and A), one each for the bad places,
    # deg omega and the scan; deg omega is read in each divisor and once more
    E, P, _ = legendre_cover_2(PrimeField(5))
    calls = count_calls(monkeypatch, ("_deg_omega", "_fibers", "_local_orders", "ord_at"))
    descent_bound_report(E, P, 30)
    assert calls == {"_deg_omega": 4, "_fibers": 6, "_local_orders": 6, "ord_at": 72}
