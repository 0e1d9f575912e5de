import random
import sys
from fractions import Fraction

import pytest

from maninmaps.errors import InputError
from maninmaps.polynomials import (
    _PRIME_BOUND,
    _int_str,
    _str_int,
    Poly,
    PrimeField,
    QQ,
    factor,
    is_irreducible,
    is_prime,
    squarefree_decomposition,
)


def qpoly(*ints):
    return Poly(QQ, [Fraction(c) for c in ints])


def test_prime_field_rejects_small_and_composite():
    with pytest.raises(InputError):
        PrimeField(3)
    with pytest.raises(InputError):
        PrimeField(15)
    assert PrimeField(5).inv(2) == 3


def test_is_prime():
    assert [n for n in range(2, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert is_prime(2 ** 61 - 1)
    assert not is_prime(2 ** 61 + 1)


# psi_t, the least strong pseudoprime to every one of the first t prime bases
PSI = (
    2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
    341550071728321, 341550071728321, 3825123056546413051, 3825123056546413051,
    3825123056546413051, 318665857834031151167461, 3317044064679887385961981,
)


def test_is_prime_against_sympy():
    sympy = pytest.importorskip("sympy")
    for n in PSI[:12]:
        assert not sympy.isprime(n)
        assert not is_prime(n), n
    rng = random.Random(41)
    for _ in range(2000):  # every n below psi_13 > 2^81
        n = rng.randrange(2, 2 ** rng.randrange(2, 82))
        assert is_prime(n) == sympy.isprime(n), n
    for _ in range(50):  # primes and semiprimes, which random n rarely are
        q = sympy.nextprime(rng.randrange(2 ** 40))
        r = sympy.nextprime(q)
        assert is_prime(q) and is_prime(r) and not is_prime(q * r), q


def test_is_prime_refuses_the_primality_bound():
    # psi_13 passes Miller-Rabin to all 13 bases is_prime uses
    for n in (_PRIME_BOUND, PSI[12], PSI[12] + 2):
        with pytest.raises(ValueError):
            is_prime(n)


def test_prime_field_refuses_characteristics_past_the_primality_bound():
    # psi_13 passes Miller-Rabin to all 13 bases is_prime uses
    for p in (PSI[11], PSI[12], PSI[12] + 2):
        with pytest.raises(InputError):
            PrimeField(p)


def test_divmod_random_over_q():
    rng = random.Random(11)
    for _ in range(150):
        a = qpoly(*[rng.randrange(-9, 10) for _ in range(rng.randrange(0, 9))])
        b = qpoly(*[rng.randrange(-9, 10) for _ in range(rng.randrange(1, 6))])
        if b.is_zero():
            continue
        q, r = divmod(a, b)
        assert q * b + r == a
        assert r.is_zero() or r.degree < b.degree


def test_divmod_random_over_fp():
    rng = random.Random(12)
    F = PrimeField(7)
    for _ in range(150):
        a = Poly(F, [rng.randrange(7) for _ in range(rng.randrange(0, 12))])
        b = Poly(F, [rng.randrange(7) for _ in range(rng.randrange(1, 8))])
        if b.is_zero():
            continue
        q, r = divmod(a, b)
        assert q * b + r == a


def test_gcd_agrees_with_construction():
    rng = random.Random(13)
    for field in (QQ, PrimeField(11)):
        for _ in range(40):
            mk = lambda n: Poly(
                field,
                [field.from_int(rng.randrange(-6, 7)) for _ in range(n)] + [field.one],
            )
            g = mk(rng.randrange(0, 3))
            a = g * mk(rng.randrange(0, 4))
            b = g * mk(rng.randrange(0, 4))
            got = a.gcd(b)
            assert (a % got).is_zero() and (b % got).is_zero()
            assert got.degree >= g.degree


def test_factor_examples_from_contract():
    # s(s^2-4)(s^2-2) over Q
    f = qpoly(0, 8, 0, -6, 0, 1)
    got = {(str(g), m) for g, m in factor(f)}
    assert got == {("x", 1), ("x - 2", 1), ("x + 2", 1), ("x^2 - 2", 1)}
    # t^2 over F5
    F5 = PrimeField(5)
    assert factor(Poly(F5, [0, 0, 1])) == [(Poly(F5, [0, 1]), 2)]
    # u^2 - 3 irreducible over Q
    assert is_irreducible(qpoly(-3, 0, 1))


def test_factor_rejects_zero():
    with pytest.raises(InputError):
        factor(Poly.zero(QQ))


def test_factor_rebuilds_product_over_q():
    rng = random.Random(5)
    for _ in range(25):
        prod = Poly.one(QQ)
        for _ in range(rng.randrange(1, 4)):
            g = qpoly(*[rng.randrange(-8, 9) for _ in range(rng.randrange(1, 4))], 1)
            prod = prod * g ** rng.randrange(1, 3)
        if prod.is_constant():
            continue
        rebuilt = Poly.one(QQ)
        for g, m in factor(prod):
            assert is_irreducible(g)
            rebuilt = rebuilt * g ** m
        assert rebuilt == prod.monic()


def test_factor_rebuilds_product_over_fp():
    rng = random.Random(6)
    for p in (5, 7, 11):
        F = PrimeField(p)
        for _ in range(15):
            prod = Poly.one(F)
            for _ in range(rng.randrange(1, 4)):
                g = Poly(F, [rng.randrange(p) for _ in range(rng.randrange(1, 5))] + [1])
                prod = prod * g ** rng.randrange(1, 3)
            if prod.is_constant():
                continue
            rebuilt = Poly.one(F)
            for g, m in factor(prod):
                assert g.leading == F.one
                rebuilt = rebuilt * g ** m
            assert rebuilt == prod.monic()


def test_factor_big_coefficients():
    q1 = qpoly(10 ** 20 + 7, -3, 1)
    q2 = qpoly(-(10 ** 18) + 1, 5, 1)
    got = factor(q1 * q2)
    assert sorted(g.degree for g, _ in got) == [2, 2]
    rebuilt = Poly.one(QQ)
    for g, m in got:
        rebuilt = rebuilt * g ** m
    assert rebuilt == (q1 * q2).monic()


def test_squarefree_with_pth_powers():
    F5 = PrimeField(5)
    t = Poly.x(F5)
    one = Poly.one(F5)
    f = (t + one) ** 5 * (t + one.scale(F5.from_int(2))) ** 2
    dec = dict((m, g) for g, m in squarefree_decomposition(f))
    assert str(dec[5]) == "x + 1"
    assert str(dec[2]) == "x + 2"


def test_kronecker_multiplication_matches_schoolbook():
    rng = random.Random(8)
    F = PrimeField(11)
    for _ in range(30):
        a = Poly(F, [rng.randrange(11) for _ in range(rng.randrange(1, 40))])
        b = Poly(F, [rng.randrange(11) for _ in range(rng.randrange(1, 40))])
        slow = Poly.zero(F)
        for i, c in enumerate(a.coeffs):
            slow = slow + Poly(F, [0] * i + list(b.scale(c).coeffs))
        assert a * b == slow


def test_derivative_and_evaluate():
    f = qpoly(1, 0, -3, 2)  # 2x^3 - 3x^2 + 1
    assert f.derivative() == qpoly(0, -6, 6)
    assert f.evaluate(Fraction(2)) == Fraction(5)
    F5 = PrimeField(5)
    g = Poly(F5, [0, 0, 0, 0, 0, 1])  # t^5
    assert g.derivative().is_zero()


def test_factor_zz_refuses_non_squarefree_input():
    # (x + 1)^2 has discriminant 0: it must refuse, not return x + 1 twice
    from maninmaps.polynomials import _factor_zz_squarefree

    with pytest.raises(InputError):
        _factor_zz_squarefree([1, 2, 1])


@pytest.mark.parametrize("call, exc, message", [
    (lambda: PrimeField(5).inv(0), ZeroDivisionError, "division by zero in F_5"),
    (lambda: qpoly(1, 1) ** -1, ValueError, "negative power of a polynomial"),
    (lambda: divmod(qpoly(1, 1), Poly.zero(QQ)), ZeroDivisionError, "polynomial division by zero"),
    (lambda: squarefree_decomposition(Poly.zero(QQ)), InputError,
     "cannot decompose the zero polynomial"),
], ids=["inv-zero-fp", "negative-power", "divmod-by-zero", "sqfree-of-zero"])
def test_refusals_through_the_public_api(call, exc, message):
    with pytest.raises(exc, match="^%s$" % message):
        call()


def test_lift_tree_reports_non_coprime_factors():
    # x + 1 twice is not a coprime factorization of (x + 1)^2 mod 5: the
    # Hensel lift must name the broken invariant, not fail on a lookup
    from maninmaps.errors import ConsistencyError
    from maninmaps.polynomials import _hensel_lift

    F5 = PrimeField(5)
    x1 = Poly(F5, [1, 1])
    with pytest.raises(ConsistencyError, match=r"mod 5: their gcd is x \+ 1"):
        _hensel_lift([1, 2, 1], [x1, x1], 5, 1000)


@pytest.mark.parametrize("field", [PrimeField(5), QQ], ids=["F5", "Q"])
def test_multiplicity_of(field):
    def poly(*ints):
        return Poly.from_int_coeffs(field, ints)

    f = poly(1, 1) ** 4 * poly(2, 0, 1)  # (x + 1)^4 (x^2 + 2)
    assert f.multiplicity_of(poly(1, 1)) == 4
    assert f.multiplicity_of(poly(2, 0, 1)) == 1
    assert f.multiplicity_of(poly(2, 2)) == 4  # 2x + 2, not monic
    assert f.multiplicity_of(poly(0, 1)) == 0
    assert poly(7).multiplicity_of(poly(1, 1)) == 0


@pytest.mark.parametrize("field", [PrimeField(5), QQ], ids=["F5", "Q"])
def test_multiplicity_of_rejects_constant_and_zero_polynomials(field):
    # a constant divisor divides forever: the division loops never ended
    def poly(*ints):
        return Poly.from_int_coeffs(field, ints)

    f = poly(1, 2, 3)
    for divisor in (poly(2), poly(1), Poly.zero(field)):
        with pytest.raises(InputError):
            f.multiplicity_of(divisor)
    with pytest.raises(InputError):
        Poly.zero(field).multiplicity_of(poly(1, 1))


def _count_products(monkeypatch, cls):
    calls = []
    mul = cls.__mul__

    def counting(a, b):
        calls.append(1)
        return mul(a, b)

    monkeypatch.setattr(cls, "__mul__", counting)
    return calls


@pytest.mark.parametrize("n, products", [(1, 0), (2, 1), (3, 2), (4, 2), (5, 3), (8, 3)])
def test_power_squares_no_further_than_the_top_bit(monkeypatch, n, products):
    # square-and-multiply needs (bit length - 1) squarings and
    # (popcount - 1) further products; squaring past the top bit formed
    # f^(2^bit length) for nothing
    f = Poly.from_int_coeffs(PrimeField(5), [1, 2, 3])
    expected = Poly.one(f.field)
    for _ in range(n):
        expected = expected * f
    calls = _count_products(monkeypatch, Poly)
    assert f ** n == expected
    assert len(calls) == products
    assert f ** 0 == Poly.one(f.field)


def test_powmod_squares_no_further_than_the_top_bit(monkeypatch):
    from maninmaps.polynomials import _powmod

    F5 = PrimeField(5)
    base = Poly.from_int_coeffs(F5, [1, 2, 3])
    mod = Poly.from_int_coeffs(F5, [2, 0, 1, 1])
    assert _powmod(base, 0, mod) == Poly.one(F5)
    expected = (base ** 6) % mod
    calls = _count_products(monkeypatch, Poly)
    assert _powmod(base, 6, mod) == expected
    assert len(calls) == 3  # two squarings, one product


@pytest.mark.parametrize("n", [0, 7, -1, 10 ** 4300, -(10 ** 5000 + 1), 3 ** 40000,
                               -(7 * 10 ** 9000 + 3), 10 ** 20000 - 1],
                         ids=lambda n: "%d bits" % n.bit_length())
def test_decimal_conversions_ignore_the_digit_limit(n):
    # internal and trailing zeros cross the split points; the reference is
    # str/int with the interpreter's limit lifted here only
    text = _int_str(n)
    assert _str_int(text.lstrip("-")) == abs(n)
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        assert text == str(n)
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
