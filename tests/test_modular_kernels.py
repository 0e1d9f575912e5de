"""Differential tests for the Z/mZ list kernels and the code built on them.

``_divmod_mod`` is checked against sympy's GF(p) division and, with
``_mul_mod``, against plain integer loops modulo prime powers; ``_mul_mod``
also on both sides of each of its packing widths, and on deflatable operands
x^i h(x^e) against sympy's GF(p) product and plain loops mod p^k.  ``Poly.xgcd``
is checked by its Bezout identity over Q and F_p and through residue-field
inverses; ``factor`` over Q, whose Hensel lifting and recombination run on
these kernels modulo p^k, is checked against sympy's ``factor_list``, and
its subset recombination against its cap.  The gcd over Q is checked on an
input whose gcd has a coefficient of 1,427 bits.
"""

import math
import random
from fractions import Fraction

import pytest

import maninmaps.polynomials as polys
from maninmaps.errors import NotFoundError
from maninmaps.polynomials import (
    Poly,
    PrimeField,
    QQ,
    _divmod_mod,
    _mul_mod,
    factor,
)

from conftest import inflate

SYMPY_PRIMES = (5, 7, 11, 2 ** 31 - 1)
PRIME_POWERS = (5 ** 3, 7 ** 5, 11 ** 9, 3 ** 40)


def _trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def plain_mul(a, b, m):
    out = [0] * max(0, len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return _trim([c % m for c in out])


def plain_divmod(a, b, m):
    """Schoolbook division mod m, one leading term at a time."""
    a = _trim([c % m for c in a])
    inv = pow(b[-1], -1, m)
    q = [0] * max(0, len(a) - len(b) + 1)
    while len(a) >= len(b):
        c = a[-1] * inv % m
        shift = len(a) - len(b)
        q[shift] = c
        for j in range(len(b)):
            a[shift + j] = (a[shift + j] - c * b[j]) % m
        _trim(a)
    return _trim(q), a


def random_list(rng, m, length):
    return [rng.randrange(m) for _ in range(length)]


def random_divisor(rng, m, p, length):
    b = random_list(rng, m, length)
    while b[-1] % p == 0:
        b[-1] = rng.randrange(m)
    return b


def sympy_div(a, b, p):
    galoistools = pytest.importorskip("sympy.polys.galoistools")
    from sympy.polys.domains import ZZ

    da = galoistools.gf_strip([ZZ(c) for c in reversed(a)])
    db = galoistools.gf_strip([ZZ(c) for c in reversed(b)])
    q, r = galoistools.gf_div(da, db, p, ZZ)
    return [int(c) for c in reversed(q)], [int(c) for c in reversed(r)]


@pytest.mark.parametrize("p", SYMPY_PRIMES)
def test_divmod_mod_matches_sympy(p):
    rng = random.Random(p)
    for _ in range(60):
        b = random_divisor(rng, p, p, rng.randrange(2, 12))
        a = _trim(random_list(rng, p, rng.randrange(0, 30)))
        q, r = _divmod_mod(a, b, p)
        assert (q, r) == sympy_div(a, b, p)


@pytest.mark.parametrize("p", SYMPY_PRIMES)
def test_divmod_mod_exact_quotient(p):
    rng = random.Random(p + 1)
    for _ in range(20):
        b = random_divisor(rng, p, p, rng.randrange(2, 9))
        q0 = random_divisor(rng, p, p, rng.randrange(1, 15))
        q, r = _divmod_mod(_mul_mod(q0, b, p), b, p)
        assert q == q0 and r == []


@pytest.mark.parametrize("m", PRIME_POWERS)
def test_mul_mod_matches_integer_loop(m):
    rng = random.Random(m % 1000)
    for _ in range(40):
        a = random_list(rng, m, rng.randrange(0, 20))
        b = random_list(rng, m, rng.randrange(0, 20))
        assert _trim(_mul_mod(a, b, m)) == plain_mul(a, b, m)


# (m, n, bits, below): with a shorter operand of length n, the largest
# product coefficient n·(m−1)² lies just below or just above 2^bits, the
# edge of a 2-, 4- or 8-byte packing word (past 8 bytes, the byte join)
WIDTH_EDGES = [
    (5 ** 3, 4, 16, True),
    (5 ** 3, 5, 16, False),
    (257, 1, 16, False),
    (3 ** 10, 1, 32, True),
    (3 ** 10, 2, 32, False),
    (65537, 1, 32, False),
    (7 ** 11, 4, 64, True),
    (7 ** 11, 5, 64, False),
    (2 ** 31 - 1, 4, 64, True),
    (2 ** 31 - 1, 5, 64, False),
]


@pytest.mark.parametrize("m, n, bits, below", WIDTH_EDGES)
def test_mul_mod_at_packing_width_edges(m, n, bits, below):
    assert (n * (m - 1) ** 2 < 2 ** bits) == below
    rng = random.Random(m + n)
    top = [m - 1] * n  # all-(m−1) operands reach the coefficient bound
    pairs = [(top, top), (top, [m - 1] * (n + 7)), (top, [1])]
    pairs += [(random_list(rng, m, n), random_list(rng, m, rng.randrange(n, n + 10)))
              for _ in range(20)]
    for a, b in pairs:
        assert _trim(_mul_mod(a, b, m)) == plain_mul(a, b, m)
        assert _trim(_mul_mod(b, a, m)) == plain_mul(b, a, m)


@pytest.mark.parametrize("m", sorted(set(PRIME_POWERS) | {m for m, *_ in WIDTH_EDGES}))
def test_mul_mod_empty_operands(m):
    assert _mul_mod([], [], m) == []
    assert _mul_mod([], [1, 2, 3], m) == []
    assert _mul_mod([4, 5], [], m) == []
    assert _mul_mod([m - 1], [m - 1], m) == [1]


def test_mul_mod_keeps_zero_divisor_products():
    # 5 * 25 = 0 mod 125: the product may end in zeros, which callers trim
    assert _trim(_mul_mod([1, 5], [2, 25], 125)) == [2, 35]


# -- deflated products
#
# x^i h(x^e) times x^j k(x^e) is x^(i+j) (h k)(x^e); `_mul_mod` multiplies h k
# once the operands have more than `_DEFLATE_MIN` terms in all, so each case
# runs with the default and with every product deflated.

DEFLATE_PRIMES = (5, 7, 11, 13, 17, 101, 2 ** 31 - 1)


def deflatable_pairs(rng, m, top):
    """Pairs x^i h(x^e), x^j k(x^f) for e in 1..6, with f = e and f drawn, a
    monomial and an empty operand; h and k end in top(), their other
    coefficients drawn mod m."""
    def poly(e, i):
        return inflate(random_list(rng, m, rng.randrange(0, 40)) + [top()], i, e)

    for e in range(1, 7):
        for i in range(4):
            a = poly(e, i)
            yield a, poly(e, rng.randrange(4))
            yield a, poly(rng.randrange(1, 7), rng.randrange(4))
            yield a, [0] * rng.randrange(4) + [top()]
            yield a, []
    yield [0, 0, top()], [0, top()]


def sympy_mul(a, b, p):
    galoistools = pytest.importorskip("sympy.polys.galoistools")
    from sympy.polys.domains import ZZ

    da = galoistools.gf_strip([ZZ(c) for c in reversed(a)])
    db = galoistools.gf_strip([ZZ(c) for c in reversed(b)])
    return [int(c) for c in reversed(galoistools.gf_mul(da, db, p, ZZ))]


@pytest.mark.parametrize("deflate_min", (polys._DEFLATE_MIN, 0))
@pytest.mark.parametrize("p", DEFLATE_PRIMES)
def test_mul_mod_deflated_matches_sympy(p, deflate_min, monkeypatch):
    monkeypatch.setattr(polys, "_DEFLATE_MIN", deflate_min)
    rng = random.Random(p)
    for a, b in deflatable_pairs(rng, p, lambda: rng.randrange(1, p)):
        assert _mul_mod(a, b, p) == _mul_mod(b, a, p) == sympy_mul(a, b, p)


@pytest.mark.parametrize("deflate_min", (polys._DEFLATE_MIN, 0))
@pytest.mark.parametrize("m", PRIME_POWERS)
def test_mul_mod_deflated_keeps_trailing_zeros(m, deflate_min, monkeypatch):
    # leading coefficients p^a u and p^b v with a + b >= k make the product
    # end in zeros mod m = p^k; the kernel keeps len(a) + len(b) - 1 entries
    monkeypatch.setattr(polys, "_DEFLATE_MIN", deflate_min)
    p = next(q for q in (3, 5, 7, 11) if m % q == 0)
    k = round(math.log(m, p))
    rng = random.Random(m % 991)
    top = lambda: p ** rng.randrange(k // 2, k) * rng.randrange(1, p)  # noqa: E731
    for a, b in deflatable_pairs(rng, m, top):
        for x, y in ((a, b), (b, a), (a + [0, 0], b)):
            got = _mul_mod(x, y, m)
            assert len(got) == (len(x) + len(y) - 1 if x and y else 0)
            assert _trim(got) == plain_mul(x, y, m)


@pytest.mark.parametrize("m", PRIME_POWERS)
def test_divmod_mod_matches_integer_loop(m):
    p = next(q for q in (3, 5, 7, 11) if m % q == 0)
    rng = random.Random(m % 997)
    for _ in range(40):
        b = random_divisor(rng, m, p, rng.randrange(1, 8))
        a = _trim(random_list(rng, m, rng.randrange(0, 20)))
        q, r = _divmod_mod(a, b, m)
        assert (q, r) == plain_divmod(a, b, m)
        assert _trim(_mul_mod(q, b, m)) == plain_mul(q, b, m)


@pytest.mark.parametrize("m", PRIME_POWERS)
def test_divmod_mod_empty_and_short_dividends(m):
    assert _divmod_mod([], [1, 1], m) == ([], [])
    assert _divmod_mod([3], [1, 0, 2], m) == ([], [3])
    assert _divmod_mod([3, 0, 0], [1, 0, 1], m) == ([], [3])


def qpoly(*cs):
    return Poly(QQ, [Fraction(c) for c in cs])


def random_poly(rng, field, length):
    if field.char:
        return Poly(field, [rng.randrange(field.p) for _ in range(length)])
    return Poly(field, [Fraction(rng.randrange(-9, 10), rng.randrange(1, 5)) for _ in range(length)])


@pytest.mark.parametrize("field", (QQ, PrimeField(7), PrimeField(2 ** 31 - 1)), ids=repr)
def test_xgcd_bezout_identity(field):
    rng = random.Random(31)
    for _ in range(40):
        common = random_poly(rng, field, rng.randrange(1, 4))
        a = random_poly(rng, field, rng.randrange(0, 7)) * common
        b = random_poly(rng, field, rng.randrange(0, 7)) * common
        if a.is_zero() and b.is_zero():
            continue
        g, s, t = a.xgcd(b)
        assert s * a + t * b == g
        assert g == a.gcd(b)
        assert g.leading == field.one


def test_xgcd_rejects_two_zeros():
    zero = Poly.zero(QQ)
    with pytest.raises(ZeroDivisionError):
        zero.xgcd(zero)


RESIDUE_MODULI = (
    (QQ, ([-2, 0, 1], [1, 1], [-2, 0, 0, 1])),
    (PrimeField(5), ([2, 0, 1], [1, 1], [1, 1, 0, 1])),
    (PrimeField(11), ([1, 0, 1], [4, 1], [1, 4, 0, 1])),
)


@pytest.mark.parametrize("constants,moduli", RESIDUE_MODULI, ids=[repr(c) for c, _ in RESIDUE_MODULI])
def test_residue_inverse_round_trip(constants, moduli):
    # the inverse of a in k[t]/(pi) is the Euclid cofactor of pi.xgcd(a)
    rng = random.Random(5)
    for ints in moduli:
        pi = Poly.from_int_coeffs(constants, ints)
        for _ in range(15):
            a = random_poly(rng, constants, pi.degree)
            if a.is_zero():
                continue
            g, _, inv = pi.xgcd(a)
            assert g.is_one()
            assert inv.degree < pi.degree
            assert (a * inv) % pi == Poly.one(constants)
            assert pi.xgcd(inv)[2] == a
        for a in (Poly.zero(constants), pi % pi, pi * pi % pi):
            assert not pi.xgcd(a)[0].is_one()


SD4 = qpoly(1, 0, -10, 0, 1)  # minimal polynomial of sqrt 2 + sqrt 3
PHI24 = qpoly(1, 0, 0, 0, -1, 0, 0, 0, 1)
SD8 = qpoly(576, 0, -960, 0, 352, 0, -40, 0, 1)  # sqrt 2 + sqrt 3 + sqrt 5
CYCLOTOMIC = qpoly(1, 1, 1) * qpoly(1, 0, 1) * qpoly(1, 0, 0, 0, 1) * qpoly(1, 0, -1, 0, 1)

MANY_MODULAR_FACTORS = (
    ("phi24", PHI24),
    ("sd8", SD8),
    ("phi3*phi4*phi8*phi12", CYCLOTOMIC),
    ("sd4*phi24", SD4 * PHI24),
    ("sd4*phi24*phi12", SD4 * PHI24 * qpoly(1, 0, -1, 0, 1)),
    ("(3x^2-5)^2*sd8*(2x+7)", qpoly(-5, 0, 3) ** 2 * SD8 * qpoly(7, 2)),
)


def sympy_factors(f):
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    expr = sum(sympy.Rational(c.numerator, c.denominator) * x ** i for i, c in enumerate(f.coeffs))
    _, pairs = sympy.factor_list(expr)
    out = set()
    for g, mult in pairs:
        cs = [Fraction(int(c.p), int(c.q)) for c in reversed(sympy.Poly(g, x).all_coeffs())]
        out.add((str(Poly(QQ, cs).monic()), mult))
    return out


def test_factor_over_q_matches_sympy_on_sd4():
    polys._FACTOR_CACHE.clear()
    assert {(str(g), m) for g, m in factor(SD4)} == sympy_factors(SD4)


@pytest.mark.parametrize("name,f", MANY_MODULAR_FACTORS, ids=[n for n, _ in MANY_MODULAR_FACTORS])
def test_factor_over_q_matches_sympy_with_many_modular_factors(name, f, monkeypatch):
    sizes = []
    recombine = polys._recombine

    def spy(g, lifted, m):
        sizes.append(len(lifted))
        return recombine(g, lifted, m)

    monkeypatch.setattr(polys, "_recombine", spy)
    polys._FACTOR_CACHE.clear()
    got = {(str(g), m) for g, m in factor(f)}
    assert got == sympy_factors(f)
    assert max(sizes) >= 4  # the Hensel lift and subset search really ran


def test_gcd_over_q_with_a_1427_bit_coefficient():
    # the heuristic gcd evaluates at a power of 2 past 2N and reads x + N
    # back as two digits
    N = 3 ** 900 + 7
    assert N.bit_length() == 1427
    a = qpoly(N, 1) * qpoly(1, 1)
    b = qpoly(N, 1) * qpoly(2, 1)
    assert a.gcd(b) == qpoly(N, 1)
    assert b.gcd(a) == qpoly(N, 1)


def test_recombine_cap_raises_not_found(monkeypatch):
    # SD8 splits into at least four factors modulo every prime, so an
    # irreducibility proof by subsets tries more than three of them
    monkeypatch.setattr(polys, "_RECOMBINE_MAX", 3)
    polys._FACTOR_CACHE.clear()
    with pytest.raises(NotFoundError, match=r"recombining \d+ modular factors needs more than 3 subset"):
        factor(SD8)
    monkeypatch.undo()
    assert {(str(g), m) for g, m in factor(SD8)} == sympy_factors(SD8)
    polys._FACTOR_CACHE.clear()


def test_factor_cache_stays_bounded(monkeypatch):
    rng = random.Random(17)
    inputs = [
        qpoly(*[rng.randrange(-5, 6) for _ in range(rng.randrange(2, 7))] + [1])
        for _ in range(40)
    ]
    F7 = PrimeField(7)
    inputs += [Poly(F7, [rng.randrange(7) for _ in range(rng.randrange(2, 9))] + [1]) for _ in range(40)]
    polys._FACTOR_CACHE.clear()
    expected = [factor(f) for f in inputs]
    monkeypatch.setattr(polys, "_FACTOR_CACHE_MAX", 6)
    polys._FACTOR_CACHE.clear()
    for _ in range(2):
        for f, want in zip(inputs, expected):
            assert factor(f) == want
            assert len(polys._FACTOR_CACHE) <= 6
    polys._FACTOR_CACHE.clear()
