import random

import pytest

from maninmaps import (
    CurvePoint,
    FunctionField,
    HypothesisError,
    InputError,
    PrimeField,
    QQ,
    WeierstrassModel,
    add,
    bad_places,
    deg_omega,
    kodaira_type,
    ord_at,
    parse_curve_function,
    parse_element,
    scalar_mul,
    value_at_O,
)

from local_oracle import intersection_with_zero, minimal_model_at
from conftest import (
    legendre,
    legendre_biquadratic,
    legendre_cover_2,
    place,
    reduction_corpus,
)
from series_oracle import expand_at_infinity, series_value_at_O


@pytest.fixture
def Kt():
    return FunctionField(QQ, "t")


# -- invariants


def test_discriminant_short_constant(Kt):
    E = WeierstrassModel.short(Kt, Kt.zero, Kt.one)
    assert E.discriminant() == Kt.from_int(-432)


def test_discriminant_legendre_vs_root_product(Kt):
    E = legendre(Kt)
    t = Kt.gen
    # oracle: disc of the cubic is the squared product of root differences
    roots = [Kt.zero, Kt.one, t]
    disc = Kt.one
    for i in range(3):
        for j in range(i + 1, 3):
            disc = disc * (roots[i] - roots[j]) ** 2
    assert E.discriminant() == 16 * disc
    assert E.discriminant() == 16 * t ** 2 * (t - 1) ** 2


def test_j_invariant_1728(Kt):
    E = WeierstrassModel.short(Kt, Kt.gen, Kt.zero)
    assert E.j_invariant() == Kt.from_int(1728)


def test_singular_model_rejected(Kt):
    with pytest.raises(HypothesisError):
        WeierstrassModel.short(Kt, Kt.zero, Kt.zero)


def test_j_invariant_under_rescaling(Kt):
    E = legendre(Kt)
    for c in (Kt.gen, (Kt.gen - 1) ** 2, Kt.from_int(3)):
        assert E.rescale(c).j_invariant() == E.j_invariant()


# -- group law


def test_two_torsion_doubles_to_zero(Kt):
    E = legendre(Kt)
    T = CurvePoint(E, Kt.gen, Kt.zero)
    assert add(T, T).is_zero


def test_add_zero_is_identity(Kt):
    E = legendre(Kt)
    T = CurvePoint(E, Kt.one, Kt.zero)
    assert add(T, CurvePoint.zero(E)) == T


def test_biquadratic_combination_is_on_curve():
    E, P2, P3, _ = legendre_biquadratic(QQ)
    Q = scalar_mul(3, P3) - P2
    assert not Q.is_zero
    # constructor re-checks the curve equation
    CurvePoint(E, Q.x, Q.y)


def test_off_curve_point_rejected(Kt):
    E = legendre(Kt)
    with pytest.raises(InputError):
        CurvePoint(E, Kt.from_int(5), Kt.one)


def pullback_t(E):
    """The pulled-back coordinate t as an element of the cover field."""
    return -E.c2 - 1  # c2 = -(1+t)


def test_group_laws_on_sampled_triples():
    # >= 50 triples, built from parameterized points (a, s) with s^2 = f(a)
    rng = random.Random(91)
    triples = 0
    from conftest import legendre_cover_a

    for constants, avals in ((QQ, (3, 5, -1)), (PrimeField(7), (3, 5)),
                             (PrimeField(11), (4,))):
        for a in avals:
            E, P, _ = legendre_cover_a(constants, a)
            K = P.x.field
            tK = pullback_t(E)
            T0 = CurvePoint(E, K.zero, K.zero)
            Tt = CurvePoint(E, tK, K.zero)
            pts = [P, -P, scalar_mul(2, P), add(P, T0), T0, Tt,
                   CurvePoint.zero(E)]
            zero = CurvePoint.zero(E)
            for _ in range(9):
                A, B, C = (rng.choice(pts) for _ in range(3))
                assert add(A, B) == add(B, A)
                assert add(add(A, B), C) == add(A, add(B, C))
                assert add(A, -A).is_zero
                assert add(A, zero) == A
                triples += 1
    assert triples >= 50


def test_scalar_mul_matches_repeated_addition():
    E, P2, P3, _ = legendre_biquadratic(QQ)
    acc = CurvePoint.zero(E)
    for n in range(1, 5):
        acc = add(acc, P3)
        assert scalar_mul(n, P3) == acc
    assert scalar_mul(-2, P3) == -scalar_mul(2, P3)


# -- minimal models


def test_minimal_model_twelfth_power(Kt):
    t = Kt.gen
    E = WeierstrassModel.short(Kt, t ** 4, t ** 6)
    Emin, k = minimal_model_at(E, place(Kt, [0, 1]))
    assert k == -1
    assert Emin.a4 == Kt.one and Emin.a6 == Kt.one


def test_minimal_model_already_minimal(Kt):
    t = Kt.gen
    E = WeierstrassModel.short(Kt, t, t)
    assert minimal_model_at(E, place(Kt, [0, 1]))[1] == 0


def test_depressed_legendre_minimal_at_infinity(Kt):
    E, _ = legendre(Kt).depress()
    inf = Kt.infinity()
    Emin, k = minimal_model_at(E, inf)
    assert ord_at(Emin.a4, inf) == 2
    assert ord_at(Emin.a6, inf) == 3


# -- Kodaira types


def test_kodaira_legendre(Kt):
    E = legendre(Kt)
    assert kodaira_type(E, place(Kt, [0, 1])).symbol() == "I2"
    assert kodaira_type(E, place(Kt, [-1, 1])).symbol() == "I2"
    assert kodaira_type(E, Kt.infinity()).symbol() == "I2*"


def test_kodaira_additive_small(Kt):
    t = Kt.gen
    E = WeierstrassModel.short(Kt, Kt.zero, t)
    assert kodaira_type(E, place(Kt, [0, 1])).symbol() == "II"


def test_kodaira_good_generic_place(Kt):
    E = legendre(Kt)
    assert kodaira_type(E, place(Kt, [-7, 1])).symbol() == "I0"


def test_bad_places_when_small_primes_divide_leading_coefficient(Kt):
    # the discriminant's leading coefficient 27 N^2 is divisible by every
    # prime 5..43, so factoring must draw its modular primes beyond them
    t = Kt.gen
    N = 5 * 7 * 11 * 13 * 17 * 19 * 23 * 29 * 31 * 37 * 41 * 43
    E = WeierstrassModel.short(Kt, Kt.one, N * t ** 2 - 1)
    quartic = Kt.place(Kt.poly([31, 0, -54 * N, 0, 27 * N * N]))
    got = {v: kt.symbol() for v, kt in bad_places(E)}
    assert got == {quartic: "I1", Kt.infinity(): "IV*"}


def test_kodaira_corpus_types():
    expected = {
        "legendre/F5": {"t": "I2", "t + 4": "I2", "infinity": "I2*"},
        "x^3+tx+t/F5": {"t": "II", "infinity": "III*"},
        "IV at 0/F5": {"t": "IV", "infinity": "I0*"},
        "IV* at 0/F5": {"t": "IV*", "infinity": "III"},
        "II* at 0/F5": {"t": "II*", "infinity": "I0"},
        "I5 at 0/F5": {"t": "I5", "t + 1": "I1", "infinity": "I0"},
        "I5* at 0/F5": {"t": "I5*", "infinity": "I0*"},
        "I1* at 0/F7": {"t": "I1*", "infinity": "IV"},
        "legendre cover/F5(s)": {"s + 2": "I2", "s + 3": "I2", "s^2 + 3": "I2",
                                 "infinity": "I4"},
    }
    corpus = dict(reduction_corpus())
    for label, types in expected.items():
        E = corpus[label]
        got = {str(v): kt.symbol() for v, kt in bad_places(E)}
        for pl, symbol in types.items():
            assert got.get(pl, "I0") == symbol, (label, pl, got)


def test_kodaira_invariant_under_rescaling(Kt):
    E = legendre(Kt)
    pt = place(Kt, [0, 1])
    for c in (Kt.gen, (Kt.gen - 1) ** 2, Kt.from_int(2)):
        Ec = E.rescale(c)
        for v in (pt, place(Kt, [-1, 1]), Kt.infinity()):
            assert kodaira_type(Ec, v) == kodaira_type(E, v)


# -- intersections with the zero section, by the group-law oracle of the
# tangency scan (tests/local_oracle.py)


def test_intersection_zero_when_regular(Kt):
    E, P, _ = legendre_cover_2(QQ)
    v = place(P.x.field, [1, 1])
    assert intersection_with_zero(E, P, v) == 0


def test_intersection_at_infinity_on_cover():
    # oracle: the minimal-model valuation of x, by hand
    E, P, _ = legendre_cover_2(QQ)
    K = P.x.field
    Es, shift = E.depress()
    from maninmaps.elliptic import twist_exponent

    for Q in (P, scalar_mul(2, P), scalar_mul(3, P)):
        k = twist_exponent(Es, K.infinity())
        ox = ord_at(Q.x + shift, K.infinity()) + 2 * k
        assert intersection_with_zero(E, Q, K.infinity()) == max(0, -(ox // 2))


def test_intersection_refuses_additive_f5():
    K = FunctionField(PrimeField(5), "t")
    t = K.gen
    E = WeierstrassModel.short(K, t, t)
    P = CurvePoint(E, K.from_int(-1), K.from_int(2))  # (-1)^3 - t + t = -1 = 2^2
    with pytest.raises(HypothesisError):
        intersection_with_zero(E, P, place(K, [0, 1]))
    # multiplicative place is fine: 4t + 27 = 4t + 2 vanishes at t = 2
    assert intersection_with_zero(E, P, place(K, [-2, 1])) == 0


def test_intersection_simple_contact_at_finite_place():
    # 2P meets the zero section over s = 0: x has pole order 2, y order 3
    E, P, _ = legendre_cover_2(QQ)
    K = P.x.field
    Q = scalar_mul(2, P)
    v = place(K, [0, 1])
    Es, shift = E.depress()
    assert ord_at(Q.x + shift, v) == -2
    assert ord_at(Q.y, v) == -3
    assert intersection_with_zero(E, Q, v) == 1


def test_intersection_invariant_under_rescaling():
    E, P, _ = legendre_cover_2(QQ)
    K = P.x.field
    Q = scalar_mul(2, P)
    Es, shift = E.depress()
    Qs = CurvePoint(Es, Q.x + shift, Q.y)
    places = [place(K, [0, 1]), place(K, [1, 1]), K.infinity()]
    for c in (K.gen, K.gen - 1, K.from_int(2)):
        Ec = Es.rescale(c)
        Qc = CurvePoint(Ec, Qs.x * c ** 2, Qs.y * c ** 3)
        for v in places:
            assert intersection_with_zero(Ec, Qc, v) == intersection_with_zero(Es, Qs, v)


# -- expansion at the origin


def test_expand_x_series(Kt):
    E = legendre(Kt)
    g = parse_curve_function("x", E)
    s = expand_at_infinity(g, 3)
    assert s.valuation() == -2
    assert s.coefficient(-2) == Kt.one
    assert s.coefficient(-1).is_zero() and s.coefficient(0).is_zero()


def test_value_at_O_examples(Kt):
    E = legendre(Kt)
    F = parse_curve_function("y/(2*(x-t)^2)", E)
    assert value_at_O(F).is_zero()
    g = parse_curve_function("x^3/y^2", E)
    assert value_at_O(g) == Kt.one


def test_value_at_O_pole(Kt):
    E = legendre(Kt)
    g = parse_curve_function("x", E)
    with pytest.raises(HypothesisError):
        value_at_O(g)


@pytest.mark.parametrize(
    "text, expected",
    [
        ("y/x", None),  # y-part of order -1: a pole
        ("y/x^2", "0"),  # y-part of order +1: vanishes
        ("(2*x + t)/(x - 1)", "2"),  # x-part of order 0: the leading ratio
        ("x", None),  # x-part of order -2: a pole
        ("0", "0"),
        ("t/x + y/x^3", "0"),
        ("(t*x^2 + 1)/(3*x^2 - x) + y/(x^2 + t)", "t/3"),
    ],
)
def test_value_at_O_branches_match_series(Kt, text, expected):
    E = legendre(Kt)
    g = parse_curve_function(text, E)
    if expected is None:
        with pytest.raises(HypothesisError):
            value_at_O(g)
        with pytest.raises(HypothesisError):
            series_value_at_O(g)
    else:
        want = parse_element(expected, Kt)
        assert value_at_O(g) == want
        assert series_value_at_O(g) == want


def test_evaluate_refuses_the_origin(Kt):
    E = legendre(Kt)
    g = parse_curve_function("y/x^2", E)
    with pytest.raises(InputError, match="value_at_O"):
        g.evaluate(CurvePoint.zero(E))


def test_series_multiplicativity(Kt):
    E = legendre(Kt)
    g = parse_curve_function("y/(x - t)", E)
    h = parse_curve_function("x + t", E)
    order = 6
    sg = expand_at_infinity(g, order)
    sh = expand_at_infinity(h, order)
    sgh = expand_at_infinity(g * h, order)
    prod = sg * sh
    for n in range(min(sgh.valuation(), prod.valuation()), order):
        assert prod.coefficient(n) == sgh.coefficient(n)


# -- global invariants


def test_bad_places_and_deg_omega_legendre(Kt):
    E = legendre(Kt)
    bad = {str(v): kt.symbol() for v, kt in bad_places(E)}
    assert bad == {"t": "I2", "t - 1": "I2", "infinity": "I2*"}
    assert deg_omega(E) == 1


def test_deg_omega_constant_curve(Kt):
    E = WeierstrassModel.short(Kt, Kt.zero, Kt.one)
    assert deg_omega(E) == 0
    assert bad_places(E) == []


def test_twelve_deg_omega_is_discriminant_sum(Kt):
    from maninmaps.elliptic import _fibers, twist_exponent

    for E in (legendre(Kt), WeierstrassModel.short(Kt, Kt.gen, Kt.gen)):
        Es, _ = E.depress() if not E.is_short else (E, None)
        disc = Es.discriminant()
        total = sum(
            v.degree * (ord_at(disc, v) + 12 * twist_exponent(Es, v))
            for v, *_ in _fibers(Es)
        )
        assert total == 12 * deg_omega(E)


@pytest.mark.parametrize("n, products", [(2, 1), (3, 2), (4, 2), (6, 3)])
def test_curve_function_power_squares_no_further_than_the_top_bit(Kt, monkeypatch, n, products):
    from maninmaps import CurveFunction

    E = legendre(Kt)
    g = parse_curve_function("x + y", E)
    expected = g
    for _ in range(n - 1):
        expected = expected * g
    calls = []
    mul = CurveFunction.__mul__

    def counting(a, b):
        calls.append(1)
        return mul(a, b)

    monkeypatch.setattr(CurveFunction, "__mul__", counting)
    assert g ** n == expected
    assert len(calls) == products
    calls.clear()
    assert parse_curve_function("(x + y)^%d" % n, E) == expected
    assert len(calls) == products


@pytest.mark.parametrize("n, adds", [(1, 0), (2, 1), (3, 2), (4, 2), (6, 3), (-4, 2)])
def test_scalar_mul_doubles_no_further_than_the_top_bit(monkeypatch, n, adds):
    from maninmaps import elliptic

    E, P, _ = legendre_cover_2(PrimeField(5))
    expected = CurvePoint.zero(E)
    for _ in range(abs(n)):
        expected = add(expected, P if n > 0 else -P)
    calls = []

    def counting(a, b):
        calls.append(1)
        return add(a, b)

    monkeypatch.setattr(elliptic, "add", counting)
    assert scalar_mul(n, P) == expected
    assert len(calls) == adds
    assert scalar_mul(0, P) == CurvePoint.zero(E)
