"""Differential tests for the F_p gcd kernel on both sides of the p < 16 switch.

Primes below 16 run the byte-packed Euclid, the others a Euclid whose
remainders come from the shared `_divmod_mod` kernel.  `_gcd_fp` takes
reduced, trimmed lists; `gcd_mod_p` here reduces integer lists mod p first.
Each case is checked against sympy's GF(p) gcd and a plain Euclid written
here, deflatable inputs x^i h(x^e) included.
"""

import random
from pathlib import Path

import pytest

from maninmaps import PrimeField, descent_bound_report, pdescent
from maninmaps.cli import Manifest
from maninmaps.pdescent import _division_values, _short_with_point
import maninmaps.polynomials as polys
from maninmaps.polynomials import _gcd_fp

from conftest import inflate, legendre_cover_a

MANIFESTS = Path(__file__).resolve().parent.parent / "manifests"

BYTE_PRIMES = (5, 7, 11, 13)
LIST_PRIMES = (17, 2 ** 31 - 1)
PRIMES = BYTE_PRIMES + LIST_PRIMES


def _trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def gcd_mod_p(fa, fb, p):
    """Monic gcd of the reductions mod p, by the kernel under test."""
    return _gcd_fp(_trim([c % p for c in fa]), _trim([c % p for c in fb]), p)


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
    got = gcd_mod_p(list(fa), list(fb), p)
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
        assert check(ua, ub, p) == gcd_mod_p(a, b, p)


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


# -- deflated inputs
#
# x^i h(x^e) and x^j k(x^f) share the gcd x^min(i, j) gcd(h, k)(x^e) when
# e = f, and `_gcd_fp` computes it on h and k once the operands have more
# than `_DEFLATE_MIN` terms in all; unequal exponents meet at gcd(e, f), and a
# monomial deflates with any e.  Each case runs with the default threshold
# and with every gcd deflated.

DEFLATE_PRIMES = (5, 7, 11, 13, 17, 101, 2 ** 31 - 1)


def derivative(a, p):
    return _trim([k * c % p for k, c in enumerate(a)][1:])


@pytest.mark.parametrize("deflate_min", (polys._DEFLATE_MIN, 0))
@pytest.mark.parametrize("p", DEFLATE_PRIMES)
def test_deflated_pairs(p, deflate_min, monkeypatch):
    monkeypatch.setattr(polys, "_DEFLATE_MIN", deflate_min)
    rng = random.Random(8000 + p)
    for e in range(1, 7):
        for i in range(4):
            g = rand_poly(rng, p, rng.randrange(0, 4), monic=True)
            h = mul(g, rand_poly(rng, p, rng.randrange(0, 8)), p)
            k = mul(g, rand_poly(rng, p, rng.randrange(0, 8)), p)
            a = inflate(h, i, e)
            got = check(a, inflate(k, rng.randrange(4), e), p)
            assert not any(plain_remainder(got, inflate(g, 0, e), p))
            check(a, inflate(k, rng.randrange(4), rng.randrange(1, 7)), p)
            check(a, derivative(a, p), p)  # the scan's squarefree test


@pytest.mark.parametrize("deflate_min", (polys._DEFLATE_MIN, 0))
@pytest.mark.parametrize("p", DEFLATE_PRIMES)
def test_deflated_monomial_and_empty_operands(p, deflate_min, monkeypatch):
    monkeypatch.setattr(polys, "_DEFLATE_MIN", deflate_min)
    rng = random.Random(9000 + p)
    for e in range(1, 7):
        for i in range(4):
            a = inflate([1] + rand_poly(rng, p, rng.randrange(0, 5)), i, e)
            for j in range(4):
                assert check(a, [0] * j + [rng.randrange(1, p)], p) == [0] * min(i, j) + [1]
            assert check(a, [], p) == check([], a, p) == check(a, a, p)
    assert check([0, 0, 3], [0, 0, 0, 0, 5], p) == [0, 0, 1]


@pytest.mark.parametrize("deflate_min", (polys._DEFLATE_MIN, 0))
@pytest.mark.parametrize("p", (5, 7, 11, 13, 17, 101))
def test_deflated_by_a_multiple_of_p(p, deflate_min, monkeypatch):
    # a = x^i h(x^p) has derivative i x^(i-1) h(x^p): zero at i = 0, so the
    # squarefree test's gcd is a itself
    monkeypatch.setattr(polys, "_DEFLATE_MIN", deflate_min)
    rng = random.Random(10000 + p)
    for i in range(4):
        a = inflate(rand_poly(rng, p, rng.randrange(1, 5)), i, p)
        assert check(a, derivative(a, p), p) == check(a, [0] * max(0, i - 1) + a[i:], p)


def squarefree_operands(monkeypatch, E, P, n_max):
    """(lengths of f and f', lengths of the operands reaching the byte Euclid)
    for each squarefree test gcd(f, f') of the scan in ``descent_bound_report``."""
    seen, scanning, testing = [], [], []
    gcd, gcd_bytes, scan = polys.Poly.gcd, polys._gcd_bytes, pdescent.tangency_scan

    def spy_scan(*args, **kwargs):
        scanning.append(True)
        try:
            return scan(*args, **kwargs)
        finally:
            scanning.pop()

    def spy_gcd(self, other):
        testing.append((self, other) if scanning and other == self.derivative() else None)
        try:
            return gcd(self, other)
        finally:
            testing.pop()

    def spy_bytes(a, b, p):
        if testing and testing[-1] is not None:
            f, df = testing[-1]
            seen.append((len(f.terms), len(df.terms), len(a), len(b)))
        return gcd_bytes(a, b, p)

    monkeypatch.setattr(polys.Poly, "gcd", spy_gcd)
    monkeypatch.setattr(polys, "_gcd_bytes", spy_bytes)
    monkeypatch.setattr(pdescent, "tangency_scan", spy_scan)
    polys._FACTOR_CACHE.clear()
    descent_bound_report(E, P, n_max=n_max)
    monkeypatch.undo()
    return seen


def test_squarefree_test_runs_at_half_length_on_a_legendre_cover(monkeypatch):
    # on the cover every psi_n is s^i h(s^2), so each scan gcd(f, f') past the
    # deflation threshold runs on (h, 2h'); the bundled charp-3x curve has no
    # such structure, and its operands keep their full length
    E, P, _ = legendre_cover_a(PrimeField(7), 3)
    seen = [s for s in squarefree_operands(monkeypatch, E, P, 30)
            if s[0] + s[1] > polys._DEFLATE_MIN]
    assert len(seen) >= 10 and max(n for n, *_ in seen) > 300
    assert all(max(la, lb) <= n // 2 + 1 for n, _, la, lb in seen)
    man = Manifest(str(MANIFESTS / "charp-3x.cfg"))
    seen = squarefree_operands(monkeypatch, man.model, man.pick_point(), 30)
    assert len([s for s in seen if s[0] + s[1] > polys._DEFLATE_MIN]) >= 10
    assert all(la == n for n, _, la, _ in seen)


# -- the byte kernel's two step shapes
#
# Below p = 13 a step where a is one degree above b takes the whole linear
# quotient at once; every other step, and every step at p = 13, takes one
# quotient digit.  Remainder sequences built backwards from chosen degrees
# force either shape.


def remainder_chain(rng, p, degrees):
    """(r_0, r_1, monic gcd) whose Euclid remainders have exactly the given
    strictly falling degrees, the last one the gcd's."""
    g = rand_poly(rng, p, degrees[-1], monic=True)
    prev, cur = [], g  # r_(i+1), r_i, built from the gcd upward
    for d in reversed(degrees[:-1]):
        q = rand_poly(rng, p, d - len(cur) + 1)
        prev, cur = cur, _trim([(x + y) % p for x, y in _zip_pad(mul(q, cur, p), prev)])
    return cur, prev, g


def _zip_pad(a, b):
    n = max(len(a), len(b))
    return zip(a + [0] * (n - len(a)), b + [0] * (n - len(b)))


def quotient_degrees(a, b, p):
    out = []
    while b:
        out.append(len(a) - len(b))
        a, b = b, plain_remainder(a, b, p)
    return out


@pytest.mark.parametrize("p", BYTE_PRIMES)
def test_remainder_sequences_with_steep_drops(p):
    rng = random.Random(4000 + p)
    for degrees in ([40, 37, 30, 29, 25, 24, 3], [60, 50, 48, 40, 39, 0],
                    [33, 32, 31, 29, 28, 26, 25, 1], [20, 2, 1, 0]):
        a, b, g = remainder_chain(rng, p, degrees)
        drops = quotient_degrees(a, b, p)
        assert drops == [x - y for x, y in zip(degrees, degrees[1:])]
        assert any(d >= 2 for d in drops) and any(d == 1 for d in drops)
        assert check(a, b, p) == g


@pytest.mark.parametrize("p", BYTE_PRIMES)
def test_linear_over_a_constant_divisor(p):
    # the fused step's second digit reads no second byte of a constant b
    rng = random.Random(5000 + p)
    for _ in range(20):
        a = rand_poly(rng, p, 1)
        assert check(a, [rng.randrange(1, p)], p) == [1]
        a, b, g = remainder_chain(rng, p, [rng.randrange(3, 30), 1, 0])
        assert check(a, b, p) == [1] == g


@pytest.mark.parametrize("p", BYTE_PRIMES)
def test_pairs_of_degree_500_to_2000(p):
    rng = random.Random(6000 + p)
    for da, db, dg in ((2000, 1999, 40), (1200, 500, 0), (900, 899, 300)):
        g = rand_poly(rng, p, dg, monic=True)
        a = mul(g, rand_poly(rng, p, da - dg), p)
        b = mul(g, rand_poly(rng, p, db - dg), p)
        got = gcd_mod_p(a, b, p)
        assert got == plain_euclid(a, b, p)
        assert not any(plain_remainder(got, g, p))
    assert got == sympy_gcd(a, b, p)


def euclid_passes(monkeypatch, a, b, p):
    """(gcd, passes): the byte kernel re-reads its packed remainder with one
    int.from_bytes per pass, after packing its two operands with two."""
    calls = []

    class CountingInt(int):
        @staticmethod
        def from_bytes(*args):
            calls.append(None)
            return int.from_bytes(*args)

    monkeypatch.setattr(polys, "int", CountingInt, raising=False)
    try:
        return gcd_mod_p(a, b, p), len(calls) - 2
    finally:
        monkeypatch.undo()


@pytest.mark.parametrize("p", BYTE_PRIMES)
def test_one_pass_per_linear_quotient_below_13(monkeypatch, p):
    # a normal remainder sequence (every quotient linear) takes one pass per
    # quotient below p = 13; at p = 13 each quotient digit takes its own
    rng = random.Random(7000 + p)
    for top in (12, 30, 61):
        a, b, g = remainder_chain(rng, p, list(range(top, -1, -1)))
        got, passes = euclid_passes(monkeypatch, a, b, p)
        assert got == g == [1]
        assert passes == top if p < 13 else passes > top


try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
except ImportError:  # without hypothesis the property below is not collected
    pass
else:
    @st.composite
    def poly_pair(draw):
        p = draw(st.sampled_from(BYTE_PRIMES))
        coeffs = st.lists(st.integers(0, p - 1), max_size=60)
        g = draw(coeffs) + [1]
        a, b = (mul(g, draw(coeffs) + [draw(st.integers(1, p - 1))], p) for _ in "ab")
        return p, a, b

    @settings(max_examples=150, deadline=None)
    @given(poly_pair())
    def test_byte_euclid_matches_plain_euclid(pair):
        p, a, b = pair
        assert gcd_mod_p(a, b, p) == plain_euclid(a, b, p) == sympy_gcd(a, b, p)
