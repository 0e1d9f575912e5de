"""Properties of division, multiplicity, gcd and factorization over Q.

sympy is the oracle.  ``divmod`` over Q (pseudo-division on the integer
kernel) must equal sympy's ``div``, for non-monic divisors and dividends of
lower degree too; ``multiplicity_of`` must find k in ``b**k * g`` for a
non-monic ``b`` coprime to ``g``; ``Poly.gcd`` over Q (modular gcds combined
by CRT) must equal sympy's monic gcd on drawn ``g*u`` and ``g*w``;
``factor`` over Q (modular factors lifted by Hensel splits and recombined
by subsets) must equal ``factor_list``; and over Q and F_7 the factors must
multiply back to the monic input.
"""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
sympy = pytest.importorskip("sympy")
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import maninmaps.polynomials as polys
from maninmaps.polynomials import Poly, PrimeField, QQ, factor

from test_modular_kernels import sympy_factors

X = sympy.Symbol("x")
F7 = PrimeField(7)

rational = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))


def qq_poly(max_degree):
    coeffs = st.lists(rational, min_size=2, max_size=max_degree + 1)
    return coeffs.map(lambda cs: Poly(QQ, cs)).filter(lambda f: not f.is_constant())


def to_sympy(f):
    return sum(sympy.Rational(c.numerator, c.denominator) * X ** i for i, c in enumerate(f.coeffs))


def from_sympy(expr):
    cs = reversed(sympy.Poly(expr, X, domain="QQ").all_coeffs())
    return Poly(QQ, [Fraction(int(c.p), int(c.q)) for c in cs])


def product(pairs, field):
    out = Poly.one(field)
    for g, m in pairs:
        out = out * g ** m
    return out


@settings(max_examples=60, deadline=None)
@given(st.lists(rational, min_size=1, max_size=7), qq_poly(4))
def test_divmod_over_q_matches_sympy(a_coeffs, b):
    a = Poly(QQ, a_coeffs)
    q, r = divmod(a, b)
    wq, wr = sympy.div(to_sympy(a), to_sympy(b), X, domain="QQ")
    assert (q, r) == (from_sympy(wq), from_sympy(wr))
    assert q * b + r == a and r.degree < b.degree


@settings(max_examples=60, deadline=None)
@given(qq_poly(2), qq_poly(3), st.integers(0, 4),
       st.sampled_from([Fraction(-3, 2), Fraction(5, 7), Fraction(6)]))
def test_multiplicity_over_q_counts_powers(b, g, k, unit):
    b = b.scale(unit)  # rescaled, so generally not monic
    assume(b.gcd(g).is_one())
    assert (b ** k * g).multiplicity_of(b) == k
    assert (b ** k * g).multiplicity_of(b.monic()) == k


@settings(max_examples=60, deadline=None)
@given(qq_poly(3), qq_poly(4), qq_poly(4))
def test_gcd_over_q_matches_sympy(g, u, w):
    a, b = g * u, g * w
    want = from_sympy(sympy.gcd(to_sympy(a), to_sympy(b))).monic()
    assert a.gcd(b) == want
    assert b.gcd(a) == want


@settings(max_examples=40, deadline=None)
@given(st.lists(qq_poly(3), min_size=1, max_size=3), st.integers(1, 2))
def test_factor_over_q_matches_sympy(parts, power):
    f = product([(parts[0], power)] + [(h, 1) for h in parts[1:]], QQ)
    polys._FACTOR_CACHE.clear()
    got = factor(f)
    assert {(str(g), m) for g, m in got} == sympy_factors(f)
    assert product(got, QQ) == f.monic()


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(st.integers(0, 6), min_size=2, max_size=5), min_size=1, max_size=3))
def test_factor_over_f7_multiplies_back(parts):
    f = product([(Poly(F7, cs), 1) for cs in parts], F7)
    if f.is_zero():
        return
    got = factor(f)
    assert all(g.leading == 1 and m > 0 for g, m in got)
    assert product(got, F7) == f.monic()


@settings(max_examples=80, deadline=None)
@given(st.one_of(st.integers(-10 ** 6, 10 ** 6),
                 st.builds(Fraction, st.integers(-50, 50), st.integers(1, 50))))
def test_constants_are_built_in_canonical_form(c):
    # const, zero and one skip the normalising constructor; the result must
    # be the polynomial that constructor builds, field for field
    for got, c in ((Poly.const(QQ, c), c), (Poly.zero(QQ), 0), (Poly.one(QQ), 1)):
        want = Poly(QQ, [Fraction(c)])
        assert got == want and hash(got) == hash(want)
        assert got.terms == want.terms and got.content == want.content
