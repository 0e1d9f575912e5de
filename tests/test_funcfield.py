import os
import random
import subprocess
import sys

import pytest

import maninmaps

from maninmaps import (
    CoverMap,
    FunctionField,
    GradedSection,
    ParseError,
    PrimeField,
    QQ,
    XPoly,
    divisor,
    divisor_of_function,
    ord_at,
    ord_section,
    parse,
    parse_element,
)
from maninmaps.funcfield import INF, Place, _local_orders

from conftest import legendre, place


@pytest.fixture
def Kt():
    return FunctionField(QQ, "t")


@pytest.fixture
def Ks():
    return FunctionField(QQ, "s")


def rand_element(K, rng, deg=3):
    num = K.poly([rng.randrange(-5, 6) for _ in range(rng.randrange(1, deg + 2))])
    den = K.poly([rng.randrange(-5, 6) for _ in range(rng.randrange(1, deg + 2))])
    if num.is_zero() or den.is_zero():
        return K.one
    return K.element(num, den)


# -- ord_at


def test_ord_at_paper_pole(Ks):
    s = Ks.gen
    f = Ks.from_int(-8) / (s * (s ** 2 - 4) * (s ** 2 - 2))
    assert ord_at(f, place(Ks, [0, 1])) == -1
    assert ord_at(f, place(Ks, [-2, 0, 1])) == -1


def test_ord_at_infinity_degree_count(Kt):
    t = Kt.gen
    assert ord_at(t ** 2 + 1, Kt.infinity()) == -2


def test_ord_of_zero_is_infinite(Kt):
    assert ord_at(Kt.zero, Kt.infinity()) == INF
    assert ord_at(Kt.zero, place(Kt, [0, 1])) == INF


def test_ord_sum_weighted_is_zero(Kt):
    rng = random.Random(21)
    for _ in range(25):
        f = rand_element(Kt, rng)
        if f.is_zero() or f.is_constant():
            continue
        div = divisor_of_function(f)
        assert sum(p.degree * m for p, m in div) == 0


# -- derive


def test_derive_examples(Kt):
    t = Kt.gen
    assert (t ** 2).derive() == 2 * t
    assert (Kt.one / (t - 1)).derive() == -((t - 1) ** -2)
    K5 = FunctionField(PrimeField(5), "t")
    assert (K5.gen ** 5).derive().is_zero()


def test_derive_leibniz_on_random_pairs():
    rng = random.Random(31)
    for constants in (QQ, PrimeField(7)):
        K = FunctionField(constants, "t")
        for _ in range(50):
            f, g = rand_element(K, rng), rand_element(K, rng)
            assert (f * g).derive() == f * g.derive() + g * f.derive()
            assert (f + g).derive() == f.derive() + g.derive()


# -- differentials: f d(var) is the graded section of weight 0 and
# differential degree 1


def test_ord_differential_examples(Kt):
    t = Kt.gen
    E = legendre(Kt)
    dt = GradedSection(Kt.one, 0, 1, E)
    assert ord_section(dt, Kt.infinity()) == -2
    assert ord_section(dt, place(Kt, [0, 1])) == 0
    dt2 = GradedSection((t ** 2).derive(), 0, 1, E)
    assert ord_section(dt2, place(Kt, [0, 1])) == 1


def test_differential_degree_minus_two(Kt):
    rng = random.Random(41)
    E = legendre(Kt)
    for _ in range(20):
        f = rand_element(Kt, rng)
        if f.is_zero():
            continue
        assert divisor(GradedSection(f, 0, 1, E)).degree == -2


# -- pullback


def test_pullback_examples(Kt, Ks):
    t, s = Kt.gen, Ks.gen
    phi = CoverMap(Ks, Kt, Ks.from_int(2) - s ** 2 / 2)
    assert phi.pullback(t - 2) == -(s ** 2) / 2
    assert phi.pullback(t - 1) == (2 - s ** 2) / 2
    ident = CoverMap(Kt, Kt, t ** 2)
    f = (t ** 3 - 1) / (t + 5)
    assert CoverMap(Kt, Kt, t).pullback(f) == f


def test_pullback_is_homomorphism(Kt, Ks):
    rng = random.Random(51)
    s = Ks.gen
    phi = CoverMap(Ks, Kt, (s ** 3 + 1) / (s - 2))
    for _ in range(20):
        f, g = rand_element(Kt, rng), rand_element(Kt, rng)
        assert phi.pullback(f + g) == phi.pullback(f) + phi.pullback(g)
        assert phi.pullback(f * g) == phi.pullback(f) * phi.pullback(g)


def test_pullback_chain_rule(Kt, Ks):
    rng = random.Random(61)
    s = Ks.gen
    r = Ks.from_int(2) - s ** 2 / 2
    phi = CoverMap(Ks, Kt, r)
    for _ in range(20):
        f = rand_element(Kt, rng)
        assert phi.pullback(f).derive() == phi.pullback(f.derive()) * r.derive()


def test_cover_composition(Kt, Ks):
    Ku = FunctionField(QQ, "u")
    u = Ku.gen
    s = Ks.gen
    phi1 = CoverMap(Ks, Kt, Ks.from_int(2) - s ** 2 / 2)
    phi2 = CoverMap(Ku, Ks, (u ** 2 - 3) / (u + 1))
    chain = phi1.then(phi2)
    f = Kt.gen ** 2 - 5
    assert chain.pullback(f) == phi2.pullback(phi1.pullback(f))


# -- parser


def test_parse_cubic(Kt):
    cubic = parse("x^3 - (1+t)*x^2 + t*x", Kt)
    assert isinstance(cubic, XPoly)
    assert cubic.degree == 3
    assert cubic[2] == -(Kt.one + Kt.gen)
    assert cubic[1] == Kt.gen
    assert cubic[0].is_zero()


def test_parse_exact_fraction(Kt):
    v = parse("1/4", Kt)
    assert v == Kt.from_fraction(1, 4)


def test_parse_syntax_error_position(Kt):
    with pytest.raises(ParseError) as err:
        parse("x^^2", Kt)
    assert err.value.position == 2


def test_parse_rejects_unknown_variable(Kt):
    with pytest.raises(ParseError):
        parse("x + w", Kt)


def test_parse_rejects_x_in_denominator(Kt):
    with pytest.raises(Exception):
        parse("1/(x - t)", Kt)


def test_parse_division_by_zero_constant(Kt):
    with pytest.raises(ParseError):
        parse("1/(2 - 2)", Kt)


def test_parse_print_roundtrip(Kt):
    rng = random.Random(71)
    for _ in range(40):
        f = rand_element(Kt, rng)
        assert parse_element(str(f), Kt) == f
    K5 = FunctionField(PrimeField(5), "t")
    for _ in range(20):
        f = rand_element(K5, rng)
        assert parse_element(str(f), K5) == f


def test_support_places_includes_infinity(Ks):
    s = Ks.gen
    f = Ks.one / (s ** 2 - 2)
    sup = set(_local_orders(f))
    assert Ks.infinity() in sup
    # several functions: the union of their supports, each place once
    g = (s - 1) ** 2 / (s ** 2 - 2)
    both = set(_local_orders(f, g))
    assert both == {Ks.infinity(), Ks.place(Ks.poly([-1, 1])), Ks.place(Ks.poly([-2, 0, 1]))}
    assert both == set(_local_orders(f)) | set(_local_orders(g))


@pytest.mark.parametrize("constants", [PrimeField(5), QQ], ids=["F5", "Q"])
def test_places_of_poly_trusts_the_factors(monkeypatch, constants):
    # factor returns its factors monic and irreducible, so the places built
    # from them are not checked again
    calls = []
    monkeypatch.setattr(maninmaps.funcfield, "is_irreducible",
                        lambda f: calls.append(f) or True)
    K = FunctionField(constants, "t")
    q = K.poly([3, 0, 1]) * K.poly([2, 0, 0, 1]) * K.poly([-1, 1]) ** 2
    got = maninmaps.funcfield.places_of_poly(q, K)
    assert calls == []
    assert any(v.pi.degree > 1 for v, _ in got)
    for v, m in got:
        assert v == Place(K, v.pi) and q.multiplicity_of(v.pi) == m


def test_place_rejects_reducible_polynomial(Kt):
    with pytest.raises(Exception):
        Kt.place(Kt.poly([-4, 0, 1]))  # (t-2)(t+2)
    # irreducible of degree 2 is fine
    Kt.place(Kt.poly([-2, 0, 1]))


@pytest.mark.parametrize("text", ["x^\u00b2", "\u0663*t"],
                         ids=["superscript-two", "arabic-indic-three"])
def test_parse_rejects_non_ascii_integers(Kt, text):
    # str.isdigit accepts both, and int() reads the second as 3
    with pytest.raises(ParseError):
        parse(text, Kt)


@pytest.mark.parametrize("digits", [5000, 20000])
def test_parse_reads_integers_of_any_length(Kt, digits):
    # past CPython's default limit of 4,300 digits for int(str)
    assert parse("1" * digits + "*t", Kt) == (10 ** digits - 1) // 9 * Kt.gen


def test_parse_rejects_negative_exponent(Kt):
    with pytest.raises(ParseError):
        parse("t^-2", Kt)


def test_negative_power_of_xpoly_raises():
    # run apart under a timeout: a power loop that never checks the sign of
    # the exponent shifts -1 right forever and would hang the suite
    code = (
        "from maninmaps import FunctionField, QQ, XPoly\n"
        "try:\n"
        "    XPoly.x(FunctionField(QQ, 't')) ** -1\n"
        "except ValueError as exc:\n"
        "    print(exc)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(maninmaps.__file__)))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=20)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "negative power of a polynomial\n"
