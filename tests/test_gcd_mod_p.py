"""Differential tests for the F_p gcd kernel on both sides of the p < 16 switch.

Primes below 16 run the byte-packed Euclid, the others a Euclid whose
remainders come from the shared `_divmod_mod` kernel.
Each case is checked against sympy's GF(p) gcd and a plain Euclid written
here.
"""

import random
from pathlib import Path

import pytest

from maninmaps.cli import Manifest
from maninmaps.pdescent import _division_values, _short_with_point
from maninmaps.polynomials import _gcd_mod_p

MANIFESTS = Path(__file__).resolve().parent.parent / "manifests"

BYTE_PRIMES = (5, 7, 11, 13)
LIST_PRIMES = (17, 2 ** 31 - 1)
PRIMES = BYTE_PRIMES + LIST_PRIMES


def _trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def plain_remainder(a, b, p):
    a = list(a)
    inv = pow(b[-1], -1, p)
    while len(a) >= len(b):
        c = a[-1] * inv % p
        shift = len(a) - len(b)
        for j in range(len(b)):
            a[shift + j] = (a[shift + j] - c * b[j]) % p
        _trim(a)
    return a


def plain_euclid(fa, fb, p):
    """Monic gcd by the textbook remainder sequence, ascending int lists."""
    a = _trim([c % p for c in fa])
    b = _trim([c % p for c in fb])
    while b:
        a, b = b, plain_remainder(a, b, p)
    if not a:
        return []
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def sympy_gcd(fa, fb, p):
    galoistools = pytest.importorskip("sympy.polys.galoistools")
    from sympy.polys.domains import ZZ

    da = [ZZ(c % p) for c in reversed(fa)]
    db = [ZZ(c % p) for c in reversed(fb)]
    g = galoistools.gf_gcd(galoistools.gf_strip(da), galoistools.gf_strip(db), p, ZZ)
    return [int(c) for c in reversed(g)]


def check(fa, fb, p):
    got = _gcd_mod_p(list(fa), list(fb), p)
    assert got == plain_euclid(fa, fb, p)
    assert got == sympy_gcd(fa, fb, p)
    return got


def mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return [c % p for c in out]


def rand_poly(rng, p, deg, monic=False):
    cs = [rng.randrange(p) for _ in range(deg)]
    return cs + [1 if monic else rng.randrange(1, p)]


@pytest.mark.parametrize("p", PRIMES)
def test_coprime_inputs(p):
    rng = random.Random(p)
    assert check([0, 1], [1, 1], p) == [1]
    coprime = 0
    for _ in range(40):
        a = rand_poly(rng, p, rng.randrange(1, 12))
        b = rand_poly(rng, p, rng.randrange(1, 12))
        coprime += check(a, b, p) == [1]
    assert coprime >= 20  # random pairs are mostly coprime


@pytest.mark.parametrize("p", PRIMES)
def test_known_common_factor(p):
    rng = random.Random(1000 + p)
    for _ in range(40):
        g = rand_poly(rng, p, rng.randrange(1, 6), monic=True)
        a = mul(g, rand_poly(rng, p, rng.randrange(0, 8)), p)
        b = mul(g, rand_poly(rng, p, rng.randrange(0, 8)), p)
        got = check(a, b, p)
        assert len(got) >= len(g)
        assert not any(plain_remainder(got, g, p))


@pytest.mark.parametrize("p", PRIMES)
def test_constant_and_zero_operands(p):
    rng = random.Random(2000 + p)
    a = rand_poly(rng, p, 7)
    assert check(a, [3], p) == [1]
    assert check([p - 1], a, p) == [1]
    monic_a = check(a, [], p)
    assert monic_a[-1] == 1 and len(monic_a) == len(a)
    assert check([0, 0], a, p) == monic_a
    assert check([p, 2 * p], a, p) == monic_a  # zero after reduction


@pytest.mark.parametrize("p", PRIMES)
def test_unreduced_inputs(p):
    rng = random.Random(3000 + p)
    for _ in range(30):
        g = rand_poly(rng, p, rng.randrange(1, 4), monic=True)
        a = mul(g, rand_poly(rng, p, rng.randrange(0, 6)), p)
        b = mul(g, rand_poly(rng, p, rng.randrange(0, 6)), p)
        # lift every coefficient to a random representative, negatives included,
        # and pad with multiples of p that vanish after reduction
        ua = [c + p * rng.randrange(-50, 50) for c in a] + [p * rng.randrange(1, 9)]
        ub = [c - p * rng.randrange(0, 10 ** 6) for c in b]
        assert check(ua, ub, p) == _gcd_mod_p(a, b, p)


@pytest.fixture(scope="module")
def psi_44():
    man = Manifest(str(MANIFESTS / "legendre-f5.cfg"))
    E, P = _short_with_point(man.model, man.pick_point())
    for val in (E.a4, E.a6, P.x, P.y):
        assert val.den.is_one()
    psi = _division_values(E.a4.num, E.a6.num, P.x.num, P.y.num, 44)[44]
    assert psi.degree >= 900
    return list(psi.coeffs)


@pytest.mark.parametrize("p", (5, 17))
def test_division_value_of_degree_900(psi_44, p):
    # squarefree test of psi_44 of legendre-f5 over F_5, and the same integer
    # list read over F_17 for the `_divmod_mod` Euclid at this size
    dpsi = [i * c for i, c in enumerate(psi_44)][1:]
    check(psi_44, dpsi, p)
