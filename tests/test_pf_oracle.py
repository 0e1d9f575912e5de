"""``find_pf`` from the Gauss-Manin closed form against the linear-solve oracle.

The closed form reads (A, B, C) off the depressed model and solves the
witness by back-substitution; ``pf_oracle.find_pf`` row-reduces the 7 x 8
undetermined-coefficient system over K.  Both must print the same operator,
or raise the same error with the same text, on every input.
"""

from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import xpoly_oracle
from conftest import (
    fresh,
    legendre_biquadratic,
    legendre_cover_2,
    legendre_cover_a,
    perturbed_operators,
    tx_t_cover,
)
from maninmaps import QQ, FunctionField, WeierstrassModel, XPoly, find_pf, verify_pf
from maninmaps.cli import Manifest
from maninmaps.errors import ConsistencyError, HypothesisError, NotFoundError
from pf_oracle import find_pf as oracle_find_pf

MANIFESTS = sorted((Path(__file__).resolve().parent.parent / "manifests").glob("*.cfg"))
K = FunctionField(QQ, "t")


def outcome(fn, E, bound):
    try:
        return "ok", str(fn(E, bound))
    except Exception as exc:  # the error type and text are part of the output
        return type(exc).__name__, str(exc)


def assert_matches_oracle(E, bound):
    got = outcome(find_pf, E, bound)
    assert got == outcome(oracle_find_pf, E, bound)
    return got


@pytest.mark.parametrize("path", MANIFESTS, ids=lambda p: p.stem)
def test_find_pf_matches_oracle_on_manifest_base_models(path):
    # the char-p manifests check that both refuse with the same text
    assert_matches_oracle(Manifest(str(path)).base_model, 4)


@pytest.mark.parametrize(
    "make",
    [
        lambda: legendre_cover_2(QQ)[0],
        lambda: legendre_cover_2(QQ)[0].depress()[0],
        lambda: legendre_cover_a(QQ, 3)[0],
        lambda: legendre_biquadratic(QQ)[0],
        lambda: tx_t_cover(QQ)[0],
    ],
    ids=["cover-2", "cover-2-depressed", "cover-a3", "biquadratic", "tx-t"],
)
def test_find_pf_matches_oracle_on_pullback_bases(make):
    kind, _ = assert_matches_oracle(make(), 40)
    assert kind == "ok"


def test_low_pole_bound_raises_the_same_not_found():
    E = legendre_cover_2(QQ)[0]
    assert assert_matches_oracle(E, 4) == (
        "NotFoundError", "operator degrees exceed pole bound 4; raise it"
    )
    assert assert_matches_oracle(E, 12)[0] == "ok"


def test_isotrivial_raises_the_same_not_found():
    t = K.gen
    x_minus_t = XPoly(K, [-t, K.one])
    shifted = WeierstrassModel.from_cubic(x_minus_t ** 3 + x_minus_t + XPoly.const(K, K.one))
    for E in (WeierstrassModel.short(K, K.one, K.one), shifted):
        assert E.is_isotrivial()
        kind, text = assert_matches_oracle(E, 4)
        assert kind == "NotFoundError" and "isotrivial" in text


poly = st.lists(st.integers(-3, 3), min_size=1, max_size=3).map(K.poly)
den = st.lists(st.integers(-2, 2), min_size=1, max_size=2).map(K.poly).filter(
    lambda d: not d.is_zero()
)
element = st.builds(K.element, poly, den)
bound = st.integers(0, 8)


def model(c2, c1, c0):
    try:
        return WeierstrassModel(K, c2, c1, c0)
    except HypothesisError:
        assume(False)


@settings(max_examples=25, deadline=None)
@given(element, element, bound)
def test_find_pf_matches_oracle_on_short_curves(a4, a6, b):
    assert_matches_oracle(model(K.zero, a4, a6), b)


@settings(max_examples=20, deadline=None)
@given(element, element, element, bound)
def test_find_pf_matches_oracle_on_monic_cubics(c2, c1, c0, b):
    assert_matches_oracle(model(c2, c1, c0), b)


@settings(max_examples=30, deadline=None)
@given(element, element, element, bound)
def test_closed_form_never_fails_inside_on_non_isotrivial_curves(c2, c1, c0, b):
    E = model(c2, c1, c0)
    assume(not E.is_isotrivial())
    try:
        L = find_pf(E, b)
    except NotFoundError as exc:
        assert "pole bound" in str(exc)
        L = find_pf(E, 1000)  # the checks below hold at any degree
    except (ConsistencyError, ZeroDivisionError) as exc:
        pytest.fail("find_pf failed inside on %s: %r" % (E, exc))
    # find_pf returns L verified, so a fresh copy runs verify_pf itself
    assert verify_pf(E, fresh(L))
    for kind, other in perturbed_operators(E, L):
        want = xpoly_oracle.exactness_holds(E, other)
        assert verify_pf(E, other) == want, (E, kind)
