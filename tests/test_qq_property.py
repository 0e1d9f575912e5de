"""Properties of division, multiplicity, gcd and factorization over Q.

sympy is the oracle.  ``divmod`` over Q (pseudo-division on the integer
kernel) must equal sympy's ``div``, for non-monic divisors and dividends of
lower degree too; ``multiplicity_of`` must find k in ``b**k * g`` for a
non-monic ``b`` coprime to ``g``; ``Poly.gcd`` over Q (the heuristic gcd:
integer gcds of values at powers of 2, read back as digits) must equal
sympy's monic gcd on drawn ``g*u`` and ``g*w``, and on fixed pairs that
reject a first candidate or carry coefficients near 10^60;
``factor`` over Q (modular factors lifted by Hensel splits and recombined
by subsets) must equal ``factor_list``, also on x^i g(x^e) and on products
of quadratics, which the x split, deflation and the discriminant take before
Zassenhaus, so that Hensel lifting never sees a deflatable input; and over Q
and F_7 the factors must multiply back to the monic input.  ``cofactors``
(the gcd with both quotients, read off the heuristic gcd's acceptance test
over Q) must equal sympy's ``cofactors`` over Q, F_5, F_13 and F_(2^31 - 1).
"""

import math
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
sympy = pytest.importorskip("sympy")
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import maninmaps.polynomials as polys
from maninmaps.errors import InputError
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


def check_factor(f):
    polys._FACTOR_CACHE.clear()
    got = factor(f)
    assert {(str(g), m) for g, m in got} == sympy_factors(f)
    assert product(got, QQ) == f.monic()


@settings(max_examples=40, deadline=None)
@given(st.lists(qq_poly(3), min_size=1, max_size=3), st.integers(1, 2))
def test_factor_over_q_matches_sympy(parts, power):
    check_factor(product([(parts[0], power)] + [(h, 1) for h in parts[1:]], QQ))


def inflate(g, e):
    """g(x^e)."""
    cs = [Fraction(0)] * (e * g.degree + 1)
    cs[::e] = g.coeffs
    return Poly(QQ, cs)


def zpoly(ints):
    return Poly(QQ, [Fraction(c) for c in ints])


small = st.integers(-6, 6)
nonzero = small.filter(bool)
# a square discriminant: a product of two linear factors; else any quadratic
quadratic = st.one_of(
    st.tuples(small, nonzero, small, nonzero).map(lambda t: zpoly(t[:2]) * zpoly(t[2:])),
    st.tuples(small, small, nonzero).map(zpoly),
)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 1), st.sampled_from([1, 2, 3, 4]),
       st.lists(st.one_of(quadratic, qq_poly(3)), min_size=1, max_size=3), st.integers(1, 2))
def test_factor_over_q_deflates_and_reads_quadratics(i, e, parts, power):
    g = product([(parts[0], power)] + [(h, 1) for h in parts[1:]], QQ)
    check_factor(Poly(QQ, [Fraction(0)] * i + [Fraction(1)]) * inflate(g, e))


# the places of Legendre covers t = c - s^2/k in the tangency benchmark, and
# one input whose rest after the x split needs Hensel lifting
FIXED = [[1872, 0, -84, 0, 1], [-60480, 0, 4968, 0, -126, 0, 1], [0, 1728, 0, -84, 0, 1],
         [-36, 0, 1], [-48, 0, 1], [0, 96, 96, -2, -50, 48, 1, -49, 0, 1]]


def test_hensel_lifts_only_what_deflation_leaves(monkeypatch):
    seen = []
    lift = polys._hensel_lift
    monkeypatch.setattr(polys, "_hensel_lift", lambda f, *a: seen.append(list(f)) or lift(f, *a))
    for cs in FIXED:
        check_factor(zpoly(cs))
    assert seen
    for f in seen:
        assert len(f) >= 4 and f[0] and math.gcd(*[k for k, c in enumerate(f) if c]) == 1, f


# x^2 | f, a discriminant 0, a deflated g with one, and (x + 1)^2 (x + 2),
# which only the search for a usable Zassenhaus prime refuses
@pytest.mark.parametrize("ints", [[0, 0, 1], [1, 2, 1], [1, 0, 2, 0, 1], [2, 5, 4, 1]])
def test_factor_zz_refuses_non_squarefree_shapes(ints):
    with pytest.raises(InputError, match="not squarefree"):
        polys._factor_zz_squarefree(ints)


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


COFACTOR_FIELDS = [QQ, PrimeField(5), PrimeField(13), PrimeField(2 ** 31 - 1)]


def field_poly(F, cs):
    """cs (Fractions with denominators prime to p) as a polynomial over F."""
    if not F.char:
        return Poly(F, cs)
    return Poly(F, [F.from_int(c.numerator * F.inv(F.from_int(c.denominator))) for c in cs])


def sympy_cofactors(F, a, b):
    dom = {"modulus": F.char} if F.char else {"domain": "QQ"}
    hs = sympy.Poly(to_sympy(a), X, **dom).cofactors(sympy.Poly(to_sympy(b), X, **dom))
    return tuple(field_poly(F, [Fraction(int(c.p), int(c.q)) for c in reversed(h.all_coeffs())])
                 for h in hs)


def check_cofactors(F, a, b):
    g, qa, qb = got = a.cofactors(b)
    assert got == sympy_cofactors(F, a, b)
    assert g * qa == a and g * qb == b
    if not (a.is_zero() and b.is_zero()):
        assert g.leading == F.one
        assert qa.gcd(qb).is_one()
    return got


@pytest.mark.parametrize("F", COFACTOR_FIELDS, ids=str)
@pytest.mark.parametrize("shape", ["zero", "constant", "coprime", "shared"])
def test_cofactors_on_each_shape(F, shape):
    r = lambda *cs: field_poly(F, [Fraction(c) for c in cs])
    g = r(3, -2, 5) if shape == "shared" else r(1)
    u = {"zero": r(), "constant": r(-4)}.get(shape, r(1, 1, 2))
    w = r(-1, 0, 0, 7)
    for a, b in ((g * u, g * w), (g * w, g * u)):
        check_cofactors(F, a, b)
    check_cofactors(F, r(), r())


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(COFACTOR_FIELDS),
       *[st.lists(rational, max_size=n) for n in (3, 4, 4)])
def test_cofactors_match_sympy(F, g, u, w):
    g, u, w = (field_poly(F, cs) for cs in (g, u, w))
    check_cofactors(F, g * u, g * w)


BIG = 10 ** 60


@pytest.mark.parametrize("a, b, rejects", [
    # coprime, but the first candidate (x - 13 at x = 2^5) is rejected: k doubles
    (3 * X ** 2 - X, 2 * X ** 2 + 2 * X - 3, True),
    # the first candidate is b = x + 2 itself, which leaves the remainder 18
    # on a: a candidate must divide both inputs, in either order
    (3 * X ** 2 - 4 * X - 2, X + 2, True),
    # gcd Phi_105, whose coefficient -2 exceeds the sup norm of x^105 - 1
    (X ** 105 - 1, sympy.cyclotomic_poly(105, X) * (X + 2), True),
    # a shared quadratic under coefficients near 10^60
    ((3 * X ** 2 - 2 * X + 5) * (BIG * X + BIG - 7),
     (3 * X ** 2 - 2 * X + 5) * ((BIG + 1) * X ** 2 + 17 * X - BIG - 13), False),
], ids=["doubling", "divides-one", "phi105", "height-1e60"])
def test_heuristic_gcd_on_fixed_pairs(monkeypatch, a, b, rejects):
    tried = []
    divide = polys._divmod_int_poly
    monkeypatch.setattr(polys, "_divmod_int_poly", lambda f, g: tried.append(g) or divide(f, g))
    a, b = from_sympy(a), from_sympy(b)
    g, _, _ = check_cofactors(QQ, a, b)
    assert any(list(t) != list(g.terms) for t in tried) == rejects
    check_cofactors(QQ, b, a)
