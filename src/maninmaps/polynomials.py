"""Exact univariate polynomial arithmetic over Q and F_p.

A :class:`Poly` is ``content * sum(terms[i] x^i)`` for a dense ascending tuple
``terms`` with no trailing zeros (empty for zero).  Over F_p the terms are the
residues in [0, p) and ``content`` is None; over Q they are primitive integers
with a positive leading one and ``content`` is a reduced pair (n, d) of ints,
d > 0, zero (0, 1).  Forms are canonical, so structural equality is
mathematical equality.  Over Q, by Gauss's lemma, a product is the product of
the primitive parts under the product of the contents (``_qmul``, integer
cross gcds), ``scale`` and ``monic`` change only the content, and a sum is
made primitive with one ``math.gcd``; a ``Fraction`` is built only where a
coefficient leaves a ``Poly`` (``coeffs``, ``leading``, ``p[i]``,
``evaluate``), and ``to_str`` prints from the integers with ``_int_str``,
which ``_str_int`` inverts, both past the interpreter's digit limit.  The body
of a dense polynomial (constructors, degree, equality, ``monic`` and the ring
operations) lives in the private base ``_DensePoly``, which
``funcfield.XPoly`` shares; over F_p each result is reduced once mod p.

All modular arithmetic runs on one set of list kernels over Z/mZ, with m = p
or m = p^k: ``_add_mod``, ``_sub_mod``, ``_mul_mod`` (Kronecker substitution:
pack coefficients into one big integer, multiply, unpack; word-packed, one
``array`` conversion per operand and one for the product, whenever every
product coefficient fits 2, 4 or 8 bytes) and ``_divmod_mod``.  ``Poly``
multiplication over F_p and over Z (modulo twice a coefficient bound),
division over F_p, the F_p gcd for p >= 16 (each Euclid remainder is one
``_divmod_mod``), the multiplicity of a non-linear factor, Hensel lifting and
factor recombination over Z/p^kZ all use them.  ``_gcd_fp`` and ``_mul_mod``
deflate past ``_DEFLATE_MIN`` terms: operands x^i h(x^e) sharing an e > 1,
such as every psi_n on a Legendre cover t = c - s^2/b, run as h (``_deflation``);
other inputs pass after an O(1) test.  Two input-specific fast
paths sit beside them: the F_p gcd packs one coefficient per byte for
p < 16, where a Euclid step cannot carry between bytes (every byte stays
below p^2 <= 255), so each step is one big-integer update and one
``bytes.translate``; the multiplicity of a monic linear factor is a Horner
loop.  Over Q one exact division kernel over Z, ``_divmod_int_poly``, carries
``divmod`` (pseudo-division: the dividend times lc(divisor)^(deg difference
+ 1) divides exactly), the multiplicity and the candidate tests of the gcd
and of recombination, all on the primitive terms.  The gcd over Q is the
heuristic gcd: the integer gcd of the values at a power of 2, read back as
digits, and ``cofactors`` returns it with the quotients of its candidate
test, so no division by a gcd pseudo-divides.
Factorization is complete over F_p (squarefree split, distinct-degree,
equal-degree) and over Q uses squarefree decomposition, an x split, deflation
and quadratics by discriminant, then modular factors lifted one at a time
(Hensel) and capped subset recombination (Zassenhaus), with modular degree
patterns used to certify irreducibility.
"""

from __future__ import annotations

import itertools
import math
import operator
import random
import sys
from array import array
from fractions import Fraction

from .errors import ConsistencyError, InputError, NotFoundError


# ---------------------------------------------------------------------------
# integer helpers

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# psi_13, the least strong pseudoprime to every base in _SMALL_PRIMES
# (Sorenson and Webster 2015): is_prime is exact below it and refuses the rest
_PRIME_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    if n >= _PRIME_BOUND:
        raise ValueError("is_prime is exact only below %d, got %d" % (_PRIME_BOUND, n))
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _SMALL_PRIMES:  # Miller-Rabin, deterministic for n < _PRIME_BOUND
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _int_str(n: int) -> str:
    """str(n) at any size: past the interpreter's digit limit, by halves at 10^k."""
    try:
        return str(n)
    except ValueError:
        k = n.bit_length() * 3 // 20  # about half the digits, as log10(2) > 0.3
        q, r = divmod(abs(n), 10 ** k)
        return "-" * (n < 0) + _int_str(q) + _int_str(r).zfill(k)


def _str_int(s: str) -> int:
    """int(s) for a run of ASCII digits at any size, the inverse of _int_str."""
    try:
        return int(s)
    except ValueError:  # only the digit limit: s has over 640 digits
        k = len(s) // 2
        return _str_int(s[:-k]) * 10 ** k + _str_int(s[-k:])


# ---------------------------------------------------------------------------
# constant fields


class Rationals:
    """The field Q; raw elements are Fraction, closed under Python arithmetic."""

    char = 0
    zero = Fraction(0)
    one = Fraction(1)

    def from_int(self, n):
        return Fraction(n)

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("division by zero in Q")
        return 1 / Fraction(a)

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("QQ")

    def __repr__(self):
        return "QQ"


class PrimeField:
    """The field F_p for a prime p > 3; raw elements are ints in [0, p)."""

    zero = 0
    one = 1

    def __init__(self, p: int):
        if p >= _PRIME_BOUND:
            raise InputError("characteristic must be below %d, got %d" % (_PRIME_BOUND, p))
        if not is_prime(p):
            raise InputError("%d is not prime" % p)
        if p <= 3:
            raise InputError("characteristic must exceed 3, got %d" % p)
        self.p = p
        self.char = p

    def from_int(self, n):
        return n % self.p

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("division by zero in F_%d" % self.p)
        return pow(a, self.p - 2, self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))

    def __repr__(self):
        return "GF(%d)" % self.p


QQ = Rationals()


# ---------------------------------------------------------------------------
# polynomials


def _power(base, n: int, mul=operator.mul):
    """base**n for n >= 1 by square-and-multiply, with no square past the top bit."""
    out = None
    while True:
        if n & 1:
            out = base if out is None else mul(out, base)
        n >>= 1
        if not n:
            return out
        base = mul(base, base)


class _DensePoly:
    """Dense univariate polynomial: the body ``Poly`` and ``funcfield.XPoly`` share.

    It is ``content * sum(terms[i] x^i)``: ``terms`` ascends with no trailing
    zeros over a domain ``field`` with ``zero``, ``one``, ``from_int`` and
    ``inv``, and ``content`` is None (read as 1) except for ``Poly`` over Q.
    The ring operations compute on the terms and build results through
    ``_new``, which a subclass overrides to reduce them; subclasses supply
    ``__init__``, ``__mul__``, ``__divmod__``, ``gcd`` and ``to_str``.
    """

    __slots__ = ("field", "terms")
    content = None

    @classmethod
    def zero(cls, field):
        return cls.const(field, field.zero)

    @classmethod
    def one(cls, field):
        return cls.const(field, field.one)

    @classmethod
    def const(cls, field, c):
        return cls(field, (c,))

    @classmethod
    def x(cls, field):
        return cls(field, (field.zero, field.one))

    @property
    def coeffs(self) -> tuple:
        """The coefficients in ``field``, ascending (built on demand over Q)."""
        c = self.content
        return self.terms if c is None else tuple(Fraction(c[0] * t, c[1]) for t in self.terms)

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.terms) - 1

    def is_zero(self) -> bool:
        return not self.terms

    def is_one(self) -> bool:
        t, c = self.terms, self.content
        return len(t) == 1 and (t[0] == self.field.one if c is None else c == (1, 1))

    def is_constant(self) -> bool:
        return len(self.terms) <= 1

    @property
    def leading(self):
        t, c = self.terms, self.content
        return (t[-1] if c is None else Fraction(c[0] * t[-1], c[1])) if t else self.field.zero

    def __getitem__(self, i):
        t, c = self.terms, self.content
        if not 0 <= i < len(t):
            return self.field.zero
        return t[i] if c is None else Fraction(c[0] * t[i], c[1])

    def __eq__(self, other):
        return (type(other) is type(self) and self.field == other.field
                and self.terms == other.terms and self.content == other.content)

    def __hash__(self):
        return hash((self.field, self.terms))

    def _new(self, cs):
        """The polynomial over the same domain with terms cs."""
        return type(self)(self.field, cs)

    # -- ring operations

    def __add__(self, other):
        a, b = self.terms, other.terms
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return self._new(out)

    def __sub__(self, other):
        a, b = self.terms, other.terms
        out = list(a) + [self.field.zero] * (len(b) - len(a))
        for i, c in enumerate(b):
            out[i] -= c
        return self._new(out)

    def __neg__(self):
        return self._new([-c for c in self.terms])

    def scale(self, c):
        return self._new([c * a for a in self.terms])

    def derivative(self):
        """d/d(own variable)."""
        from_int = self.field.from_int
        return self._new([from_int(i) * c for i, c in enumerate(self.terms)][1:])

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        return _power(self, n) if n else self.one(self.field)

    def cofactors(self, other):
        """(g, self // g, other // g) for g the monic gcd; no division when g is 1."""
        g = self.gcd(other)
        if g.is_constant():
            return g, self, other
        return g, self // g, other // g

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def monic(self):
        if self.is_zero() or self.leading == self.field.one:
            return self
        return self.scale(self.field.inv(self.leading))

    def __str__(self):
        return self.to_str("x")

    def __repr__(self):
        return "%s(%s)" % (type(self).__name__, self)


class Poly(_DensePoly):
    """Dense univariate polynomial over a constant field (over Q from ints or Fractions)."""

    __slots__ = ("content",)

    def __init__(self, field, coeffs):
        self.field = field
        cs = list(coeffs)
        while cs and cs[-1] == field.zero:
            cs.pop()
        self.terms, self.content = tuple(cs), None
        if not field.char:
            d = math.lcm(*[c.denominator for c in cs])
            ints = [c.numerator * (d // c.denominator) for c in cs]
            self.terms = tuple(_primitive(ints))
            self.content = _qmul((ints[-1] // self.terms[-1] if ints else 0, 1), (1, d))

    def _new(self, cs: list, content=None):
        """cs mod p over F_p; over Q, content (default: this one's) * cs with one gcd."""
        if self.content is None:
            p = self.field.p
            return Poly(self.field, [c % p for c in cs])
        prim = _primitive(_trim(cs))
        g = cs[-1] // prim[-1] if prim else 0
        content = self.content if content is None else content
        return _qpoly(self.field, prim, content if g == 1 else _qmul(content, (g, 1)))

    def __add__(self, other):
        if self.content is None:
            return _DensePoly.__add__(self, other)
        # c * (ma * A + mb * B) for c = gcd(na, nb)/lcm(da, db), contents na/da, nb/db
        (A, ca), (B, cb) = (self.terms, self.content), (other.terms, other.content)
        if not A or not B:
            return self if A else other
        (na, da), (nb, db) = ca, cb
        g, d = math.gcd(na, nb), math.lcm(da, db)  # a prime of g divides no da, db
        ma, mb = na // g * (d // da), nb // g * (d // db)
        out = [ma * c for c in A] + [0] * (len(B) - len(A))
        for i, c in enumerate(B):
            out[i] += mb * c
        return self._new(out, (g, d))

    def __sub__(self, other):
        if self.content is None:
            return _DensePoly.__sub__(self, other)
        return self + _qpoly(self.field, other.terms, (-other.content[0], other.content[1]))

    def scale(self, c):
        if self.content is None:
            return _DensePoly.scale(self, c)
        c = _qmul((c.numerator, c.denominator), self.content)
        return _qpoly(self.field, self.terms if c[0] else (), c)

    def monic(self):
        if self.content is None or not self.terms:
            return _DensePoly.monic(self)
        return _qpoly(self.field, self.terms, (1, self.terms[-1]))

    def derivative(self):
        if self.content is None:
            p = self.field.p
            return Poly(self.field, [i * c % p for i, c in enumerate(self.terms) if i])
        return self._new([i * c for i, c in enumerate(self.terms)][1:])

    @classmethod
    def const(cls, field, c):
        """The constant c; over Q built in canonical form, the sign in the content."""
        if field.char:
            return cls(field, (c,))
        return _qpoly(field, (1,) if c else (), (c.numerator, c.denominator))

    @classmethod
    def from_int_coeffs(cls, field, ints):
        return cls(field, [field.from_int(c) for c in ints])

    def __mul__(self, other):
        f = self.field
        a, b = self.terms, other.terms
        if not a or not b:
            return other if a else self
        if not f.char:
            # Gauss's lemma: a product of primitive parts is primitive, lc > 0
            ab = b if len(a) == 1 else a if len(b) == 1 else _mul_int(a, b)
            return _qpoly(f, ab, _qmul(self.content, other.content))
        if len(a) == 1:
            return other.scale(a[0])
        if len(b) == 1:
            return self.scale(b[0])
        return Poly(f, _mul_mod(a, b, f.p))

    def __divmod__(self, other):
        f = self.field
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        if f.char:
            if other.is_constant():
                return self.scale(f.inv(other.leading)), Poly.zero(f)
            q, r = _divmod_mod(self.terms, other.terms, f.p)
            return Poly(f, q), Poly(f, r)
        # lc(B)^(deg A - deg B + 1) * A divides exactly by B over Z
        # (pseudo-division); the contents are restored at the end
        A, B = self.terms, other.terms
        n, d = other.content
        inv = (d, n) if n > 0 else (-d, -n)
        if len(B) == 1:
            return _qpoly(f, A, _qmul(self.content, inv)), Poly.zero(f)
        s = B[-1] ** max(0, len(A) - len(B) + 1)
        Q, R = _divmod_int_poly([s * c for c in A], B)
        c = _qmul(self.content, (1, s))
        return self._new(Q, _qmul(c, inv)), self._new(R, c)

    def multiplicity_of(self, other) -> int:
        """Largest k with other**k dividing self (self nonzero, other non-constant)."""
        if self.is_zero():
            raise InputError("the zero polynomial has no finite multiplicity")
        if other.is_constant():
            raise InputError("a multiplicity needs a non-constant divisor, got %s" % other)
        if self.field.char:
            return _multiplicity_fp(list(self.terms), list(other.terms), self.field.p)
        # Gauss's lemma: a primitive b divides a over Q iff it does over Z
        a, b, k = self.terms, other.terms, 0
        while True:
            a, r = _divmod_int_poly(a, b)
            if a is None or any(r):
                return k
            k += 1

    # -- normal forms

    def gcd(self, other):
        """Monic gcd."""
        if self.content is not None:
            return self.cofactors(other)[0]
        a, b = self.terms, other.terms
        if len(a) == 1 or len(b) == 1:
            return Poly.one(self.field)
        return Poly(self.field, _gcd_fp(a, b, self.field.p))

    def cofactors(self, other):
        """(g, self // g, other // g); over Q from ``_gcd_qq``'s quotients A/G and
        B/G of the primitive parts, as self/g = content(self) lc(G) A/G (Gauss)."""
        if self.content is None:
            return _DensePoly.cofactors(self, other)
        A, B = self.terms, other.terms
        if len(A) > 1 and len(B) > 1:
            G, qa, qb = _gcd_qq(A, B)
        elif A and B:
            G, qa, qb = (1,), A, B
        elif A or B:  # gcd(0, b) is b up to a unit
            G, qa, qb = A or B, A and (1,), B and (1,)
        else:
            return self, self, other
        f, lc = self.field, G[-1]
        return (_qpoly(f, G, (1, lc)), _qpoly(f, qa, _qmul(self.content, (lc, 1))),
                _qpoly(f, qb, _qmul(other.content, (lc, 1))))

    def xgcd(self, other):
        """(g, s, t) with s*self + t*other = g, the monic gcd; not both zero."""
        f = self.field
        r0, r1 = self, other
        s0, s1 = Poly.one(f), Poly.zero(f)
        t0, t1 = Poly.zero(f), Poly.one(f)
        while not r1.is_zero():
            q, r = divmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, s0 - q * s1
            t0, t1 = t1, t0 - q * t1
        inv = f.inv(r0.leading)
        return r0.scale(inv), s0.scale(inv), t0.scale(inv)

    def to_str(self, var: str) -> str:
        """Terms from the top; over Q each is n t_i / d reduced, as ``str(Fraction)``."""
        if self.is_zero():
            return "0"
        n, d = self.content or (1, 1)
        parts = []
        for i in range(len(self.terms) - 1, -1, -1):
            a = n * self.terms[i]
            if not a:
                continue
            g = math.gcd(a, d)
            c = _int_str(a // g) + ("" if g == d else "/" + _int_str(d // g))
            if i == 0:
                mon = c
            else:
                xi = var if i == 1 else "%s^%d" % (var, i)
                mon = xi if c == "1" else "-" + xi if c == "-1" else c + "*" + xi
            parts.append(mon)
        out = parts[0]
        for part in parts[1:]:
            if part.startswith("-"):
                out += " - " + part[1:]
            else:
                out += " + " + part
        return out


def _multiplicity_fp(a: list, b: list, p: int) -> int:
    """Multiplicity of b in a over F_p by repeated division.

    Valuations in the division-value scans can be quadratic in the multiple,
    so the per-division overhead matters: a monic linear b gets a Horner
    loop.
    """
    mult = 0
    n = len(b) - 1
    if n == 1 and b[-1] == 1:
        r = -b[0] % p
        while len(a) > 1:
            q = [0] * (len(a) - 1)
            acc = 0
            for i in range(len(a) - 1, 0, -1):
                acc = (acc * r + a[i]) % p
                q[i - 1] = acc
            if (acc * r + a[0]) % p:
                return mult
            mult += 1
            a = q
        return mult
    while len(a) > n:
        a, r = _divmod_mod(a, b, p)
        if r:
            return mult
        mult += 1
    return mult


# ---------------------------------------------------------------------------
# list kernels over Z/mZ, m = p or p^k
#
# Results are ascending coefficient lists with entries in [0, m).  _mul_mod
# and _divmod_mod need their operands reduced the same way, and a divisor
# whose leading coefficient is a unit mod m.


# unsigned array typecodes by ascending item size (2, 4, 8 bytes); chosen by
# size because the sizes of 'I' and 'L' differ between platforms
_WORD_CODES = sorted({array(c).itemsize: c for c in "QLIH"}.items())


def _trim(a: list) -> list:
    while a and a[-1] == 0:
        a.pop()
    return a


def _add_mod(a, b, m):
    n = max(len(a), len(b))
    return _trim([((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)) % m
                  for i in range(n)])


def _sub_mod(a, b, m):
    n = max(len(a), len(b))
    return _trim([((a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0)) % m
                  for i in range(n)])


# operand pairs of at most this many terms in all are not deflated: the test
# costs ~0.5 us, a deflated product over F_5..F_101 loses below ~130 terms,
# and the small F_p gcds of factoring over Q made q-tangency ~3 % slower
_DEFLATE_MIN = 128


def _deflation(a, cap: int = 0) -> tuple:
    """(i, e): a = x^i h(x^e), h(0) != 0, e largest dividing cap (0: any e).

    y -> x^e is an injective ring map that multiplies degrees by e and keeps
    leading coefficients, so it commutes with products and with division with
    remainder, hence with Euclid: a b = x^(ia+ib) (ha hb)(x^e) and, as x divides
    no h(x^e), gcd(a, b) = x^min(ia, ib) gcd(ha, hb)(x^e).  Both are unique, so
    the lists are the same; a monomial has every e, so it returns e = cap.
    """
    nz = itertools.compress(itertools.count(), a)
    i, j = next(nz, len(a)), next(nz, None)
    e = cap if j is None else math.gcd(cap, j - i)
    if e > 1 and any(any(a[i + r :: e]) for r in range(1, e)):
        e = math.gcd(e, *[k - i for k in nz])
    return i, e


def _mul_mod(a, b, m: int) -> list:
    """Kronecker-substitution product; may carry trailing zeros when m is not prime.

    Every product coefficient is at most ``min(len a, len b)·(m−1)²``.  When
    that bound fits a machine word, each operand packs in one ``array``
    call into a native-order byte string and the product unpacks in one;
    larger bounds (moduli p^k of Hensel lifting, primes near 2^31) join
    the bytes of each coefficient one by one.
    """
    if not a or not b:
        return []
    if len(a) + len(b) > _DEFLATE_MIN:
        ia, e = _deflation(a)
        ib, e = _deflation(b, e) if e != 1 else (0, 1)
        if e > 1:
            out, h = [0] * (len(a) + len(b) - 1), _mul_mod(a[ia::e], b[ib::e], m)
            out[ia + ib : ia + ib + e * len(h) : e] = h
            return out
    bound = min(len(a), len(b)) * (m - 1) * (m - 1)
    total = len(a) + len(b) - 1
    for size, code in _WORD_CODES:
        if bound >> (8 * size) == 0:
            ia = int.from_bytes(array(code, a).tobytes(), sys.byteorder)
            ib = int.from_bytes(array(code, b).tobytes(), sys.byteorder)
            raw = (ia * ib).to_bytes(total * size, sys.byteorder)
            return [c % m for c in array(code, raw)]
    limb = (bound.bit_length() + 7) // 8  # bytes per packed coefficient
    ia = int.from_bytes(b"".join(c.to_bytes(limb, "little") for c in a), "little")
    ib = int.from_bytes(b"".join(c.to_bytes(limb, "little") for c in b), "little")
    raw = (ia * ib).to_bytes(total * limb, "little")
    return [
        int.from_bytes(raw[i * limb : (i + 1) * limb], "little") % m
        for i in range(total)
    ]


def _divmod_mod(a, b, m: int):
    """(quotient, remainder), both trimmed, of a by b."""
    a = list(a)
    n = len(b) - 1
    inv = pow(b[-1], -1, m)
    q = [0] * max(0, len(a) - n)
    for i in range(len(a) - 1 - n, -1, -1):
        c = a[i + n] * inv % m
        if c:
            q[i] = c
            for j in range(n):
                a[i + j] = (a[i + j] - c * b[j]) % m
    return _trim(q), _trim(a[:n])


def _gcd_fp(a, b, p: int) -> list:
    """Monic gcd over F_p of reduced, trimmed coefficient sequences, as an int list."""
    if a and b and len(a) + len(b) > _DEFLATE_MIN:
        ia, e = _deflation(a)
        ib, e = _deflation(b, e) if e != 1 else (0, 1)
        if e > 1:
            h, i = _gcd_fp(a[ia::e], b[ib::e], p), min(ia, ib)
            out = [0] * (i + e * (len(h) - 1) + 1)
            out[i::e] = h
            return out
    if p < 16:
        return _gcd_bytes(a, b, p)
    while b:
        a, b = b, _divmod_mod(a, b, p)[1]
    if not a:
        return []
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


# _MOD_TABLES[p] maps a byte v to v mod p, for bytes.translate
_MOD_TABLES = {p: bytes(v % p for v in range(256)) for p in range(2, 16)}


def _gcd_bytes(a: list, b: list, p: int) -> list:
    """Euclid over F_p, p < 16, on polynomials packed one coefficient per byte.

    A polynomial is the int sum(c_i * 256**i) with every c_i in [0, p).  A
    reduction step adds (p - c) * x**k * b, which leaves every byte at most
    (p - 1) + (p - 1)**2 < p**2 <= 255, so no byte carries into the next;
    one bytes.translate then reduces every byte mod p and zeroes the
    leading one.  When a is one degree above b and 2 (p - 1)**2 + (p - 1)
    <= 255 (p <= 11), both quotient digits c x + c0 come off the top two
    bytes of a and b, and one step adds (-c x - c0) * b: every byte then
    gains at most two products (p - 1)**2.  All per-step work is C-level
    big-int and bytes work.
    """
    table = _MOD_TABLES[p]
    fuse = 2 * (p - 1) ** 2 + (p - 1) <= 255
    A = int.from_bytes(bytes(a), "little")
    B = int.from_bytes(bytes(b), "little")
    while B:
        nb = (B.bit_length() + 7) >> 3
        inv = pow(B >> (8 * nb - 8), -1, p)
        b1 = (B >> (8 * nb - 16)) & 255 if nb > 1 else 0
        na = (A.bit_length() + 7) >> 3
        while na >= nb:
            c = (A >> (8 * na - 8)) * inv % p
            if fuse and na == nb + 1:  # the whole linear quotient c x + c0
                c0 = (((A >> (8 * na - 16)) & 255) - c * b1) * inv % p
                A += ((p - c) * 256 + -c0 % p) * B
            else:
                A += (p - c) * B << (8 * (na - nb))
            A = int.from_bytes(A.to_bytes(na, "little").translate(table), "little")
            na = (A.bit_length() + 7) >> 3
        A, B = B, A
    if not A:
        return []
    out = A.to_bytes((A.bit_length() + 7) >> 3, "little")
    inv = pow(out[-1], -1, p)
    return [c * inv % p for c in out]


# ---------------------------------------------------------------------------
# Q[x] through integer coefficient lists


def _qpoly(field, terms, content) -> Poly:
    """The Q polynomial content * terms, for terms already primitive with lc > 0."""
    f = object.__new__(Poly)
    f.field, f.terms, f.content = field, tuple(terms), content
    return f


def _qmul(a: tuple, b: tuple) -> tuple:
    """The reduced product of reduced pairs (n, d), d > 0, by two cross gcds
    (Knuth, TAOCP vol. 2, 4.5.1), or none when both denominators are 1."""
    (na, da), (nb, db) = a, b
    if da == db == 1:
        return na * nb, 1
    ga, gb = math.gcd(na, db), math.gcd(nb, da)
    return na // ga * (nb // gb), da // gb * (db // ga)


def _divmod_int_poly(a: list, b: list):
    """(quotient, remainder) of integer lists if the quotient over Q is integral,
    else (None, None)."""
    a = list(a)
    q = [0] * (len(a) - len(b) + 1)
    for i in range(len(a) - len(b), -1, -1):
        c = a[i + len(b) - 1]
        if c % b[-1] != 0:
            return None, None
        c //= b[-1]
        q[i] = c
        for j, cb in enumerate(b):
            a[i + j] -= c * cb
    return q, a[: len(b) - 1]


def _mul_int(a, b) -> list:
    """Product of integer lists: ``_mul_mod`` modulo m > 2 * |every product coefficient|."""
    m = 2 * min(len(a), len(b)) * max(map(abs, a)) * max(map(abs, b)) + 1
    return [c - m if 2 * c > m else c for c in _mul_mod([c % m for c in a], [c % m for c in b], m)]


def _gcd_qq(fa: list, fb: list) -> tuple:
    """(G, fa/G, fb/G): the primitive gcd of primitive lists, by the heuristic gcd.

    Both lists are evaluated at x = 2^k, k = (2 min(|fa|, |fb|) + 2).bit_length()
    + 1 for the sup norms, and the primitive part H of the balanced base-x
    digits of gcd(fa(x), fb(x)) is the candidate; k doubles until H divides
    both inputs (Char, Geddes and Gonnet, *GCDHEU*, J. Symbolic Comput. 7,
    1989).  Correctness: by their theorem a candidate that divides both
    inputs at x > 2 min(|fa|, |fb|) + 2 is the gcd, and the quotients of that
    test are the cofactors.  A constant H means gcd(fa(x), fb(x)) <= x/2,
    while every root of a non-constant G has modulus below 1 + min(|fa|,
    |fb|) < x/2, so |G(x)| > x/2: the gcd is 1.  Termination: fa = G A and
    fb = G B with A, B coprime, so gcd(A(x), B(x)) divides their resultant R,
    and the digits are exactly those of a multiple of G once 2^(k-1) > |R| |G|;
    doubling k bounds the number of rounds by log log of that bound.
    """
    k = (2 * min(max(map(abs, fa)), max(map(abs, fb))) + 2).bit_length() + 1
    while True:
        va = vb = 0
        for c in reversed(fa):
            va = (va << k) + c
        for c in reversed(fb):
            vb = (vb << k) + c
        h, x = math.gcd(va, vb), 1 << k
        digits = []
        while h:
            d = h & (x - 1)
            if 2 * d > x:
                d -= x
            digits.append(d)
            h = (h - d) >> k
        cand = _primitive(digits)
        if len(cand) == 1:
            return (1,), fa, fb
        qa, ra = _divmod_int_poly(fa, cand)
        if qa is not None and not any(ra):
            qb, rb = _divmod_int_poly(fb, cand)
            if qb is not None and not any(rb):
                return cand, qa, qb
        k *= 2


# ---------------------------------------------------------------------------
# squarefree decomposition


def squarefree_decomposition(f: Poly) -> list:
    """Monic squarefree parts of ``f`` as [(part, multiplicity), ...]."""
    if f.is_zero():
        raise InputError("cannot decompose the zero polynomial")
    f = f.monic()
    if f.is_one():
        return []
    return _sqfree(f)


def _sqfree(f: Poly) -> list:
    """Musser's loop; the parts whose multiplicity p divides come from p-th roots.

    In characteristic 0 the derivative of a non-constant f is nonzero and the
    loop leaves a constant c, so neither p-th-root branch runs.
    """
    p = f.field.char
    out = {}
    df = f.derivative()
    if df.is_zero():
        for g, m in _sqfree(_pth_root(f)):
            out[m * p] = g
        return [(g, m) for m, g in sorted(out.items())]
    c, w, _ = f.cofactors(df)
    i = 1
    while not w.is_constant():
        w, z, c = w.cofactors(c)
        if not z.is_constant():
            out[i] = z
        i += 1
    if not c.is_constant():
        for g, m in _sqfree(_pth_root(c)):
            mp = m * p
            out[mp] = out[mp] * g if mp in out else g
    return [(g, m) for m, g in sorted(out.items())]


def _pth_root(f: Poly) -> Poly:
    p = f.field.char
    return Poly(f.field, [f[i] for i in range(0, len(f.coeffs), p)])


# ---------------------------------------------------------------------------
# factorization over F_p


def _powmod(base: Poly, e: int, mod: Poly) -> Poly:
    if not e:
        return Poly.one(base.field)
    return _power(base % mod, e, lambda a, b: a * b % mod)


def _ddf(f: Poly) -> list:
    """Distinct-degree split of a monic squarefree f; [(product, degree)]."""
    p = f.field.p
    out = []
    x = Poly.x(f.field)
    h = x
    k = 0
    rest = f
    while rest.degree > 2 * (k + 1) - 1 and rest.degree > 0:
        k += 1
        h = _powmod(h, p, rest)
        g = rest.gcd(h - x)
        if not g.is_constant():
            out.append((g, k))
            rest = rest // g
            h = h % rest
    if rest.degree > 0:
        out.append((rest, rest.degree))
    return out


def _edf(f: Poly, d: int) -> list:
    """Equal-degree split (Cantor-Zassenhaus), deterministic seeding."""
    if f.degree == d:
        return [f]
    p = f.field.p
    rng = random.Random(hash((p, f.coeffs, d)) & 0xFFFFFFFF)
    e = (p ** d - 1) // 2
    while True:
        r = Poly(f.field, [rng.randrange(p) for _ in range(f.degree)])
        if r.is_constant():
            continue
        g = f.gcd(r)
        if not g.is_constant() and g.degree < f.degree:
            return _edf(g, d) + _edf(f // g, d)
        s = _powmod(r, e, f) - Poly.one(f.field)
        g = f.gcd(s)
        if not g.is_constant() and g.degree < f.degree:
            return _edf(g, d) + _edf(f // g, d)


def _factor_fp_squarefree(f: Poly) -> list:
    return [g for part, d in _ddf(f) for g in _edf(part, d)]


# ---------------------------------------------------------------------------
# factorization over Q: factor mod p, Hensel lift, recombine (Zassenhaus)


def _hensel_step(f, g, h, s, t, m):
    """One quadratic lift: from f = gh, sg + th = 1 (mod m) to the same mod m^2.

    h is monic and stays monic; g keeps its leading coefficient.
    """
    mm = m * m
    e = _sub_mod(f, _mul_mod(g, h, mm), mm)
    q, r = _divmod_mod(_mul_mod(s, e, mm), h, mm)
    g1 = _add_mod(_add_mod(g, _mul_mod(t, e, mm), mm), _mul_mod(q, g, mm), mm)
    h1 = _add_mod(h, r, mm)
    b = _sub_mod(_add_mod(_mul_mod(s, g1, mm), _mul_mod(t, h1, mm), mm), [1], mm)
    c, d = _divmod_mod(_mul_mod(s, b, mm), h1, mm)
    s1 = _sub_mod(s, d, mm)
    t1 = _sub_mod(_sub_mod(t, _mul_mod(t, b, mm), mm), _mul_mod(c, g1, mm), mm)
    return g1, h1, s1, t1


def _hensel_lift(f_ints: list, facs: list, p: int, target: int) -> tuple:
    """(lifts, m): monic factors of f mod p lifted to monic factors mod m.

    m is the first p^(2^j) >= target, and f_ints = lc * prod(facs) mod p.
    The first factor, times lc, is split off the product of the rest and the
    pair is lifted to m; the lifted rest is monic and is split the same way.
    Lifts are unique, so the order of the splits does not change the result.
    """
    field = PrimeField(p)
    m = p
    while m < target:
        m *= m
    rest, lc, out = f_ints, f_ints[-1], []
    for fac in facs[:-1]:
        g = fac.scale(field.from_int(lc))
        h = Poly.from_int_coeffs(field, rest) // g
        gcd, s, t = g.xgcd(h)
        if not gcd.is_one():
            raise ConsistencyError(
                "modular factors are not coprime mod %d: their gcd is %s" % (p, gcd)
            )
        g, h, s, t = (list(u.coeffs) for u in (g, h, s, t))
        k = p
        while k < m:
            g, h, s, t = _hensel_step(rest, g, h, s, t, k)
            k *= k
        out.append(g)
        rest, lc = h, 1
    out.append(rest)
    for i, g in enumerate(out):
        inv = pow(g[-1], -1, m)
        out[i] = _trim([c * inv % m for c in g])
    return out, m


def _center(c: int, m: int) -> int:
    c %= m
    return c - m if c > m // 2 else c


def _primitive(ints: list) -> list:
    """ints over their content, signed to make the leading entry positive."""
    g = math.gcd(*ints)
    if g and ints[-1] < 0:
        g = -g
    return ints if g in (0, 1) else [c // g for c in ints]


def _factor_zz_squarefree(ints: list) -> list:
    """Irreducible integer factors of a primitive squarefree integer polynomial f.

    Three steps run before Zassenhaus (von zur Gathen and Gerhard, *Modern
    Computer Algebra*, ch. 15).  x splits off when f(0) = 0.  f = g(x^e), e > 1
    the gcd of the exponents, is factored through g: its g_j(x^e) are pairwise
    coprime with product f, as f is squarefree, and squarefree, as g_j(0) != 0.
    They go to ``_factor_zz_core``, as an irreducible g_j would recurse here
    forever.  There a quadratic a x^2 + b x + c with b^2 - 4ac = r^2 > 0 is
    prim(2a x + b - r) prim(2a x + b + r) (Gauss), and irreducible when no such
    r exists.  x^2 | f, a discriminant 0, a g that refuses, or no usable prime
    show that f is not squarefree.
    """
    if len(ints) > 2 and not ints[0]:
        if not ints[1]:
            raise InputError("x^2 divides the polynomial: it is not squarefree")
        return [[0, 1]] + _factor_zz_squarefree(ints[1:])
    e = _deflation(ints)[1]
    if e <= 1:  # 0 for a monomial
        return _factor_zz_core(ints)
    out = []
    for g in _factor_zz_squarefree(ints[::e]):
        ge = [0] * (e * len(g) - e + 1)
        ge[::e] = g
        out += _factor_zz_core(ge)
    return out


def _factor_zz_core(ints: list) -> list:
    """``_factor_zz_squarefree`` with no deflation: the quadratic step, then Zassenhaus."""
    n = len(ints) - 1
    if n < 2:
        return [ints] if n == 1 else []
    if n == 2:
        c, b, a = ints
        d = b * b - 4 * a * c
        if not d:
            raise InputError("the discriminant is 0: the polynomial is not squarefree")
        r = math.isqrt(max(d, 0))
        return [_primitive([b - r, 2 * a]), _primitive([b + r, 2 * a])] if r * r == d else [ints]
    # A prime is unusable when it divides lc * disc.  For squarefree input
    # |lc * disc| <= |lc| n^n |f|_2^(2n-2), so once the unusable primes
    # multiply past that bound the input cannot have been squarefree.
    norm2 = 1
    for c in ints:
        norm2 += c * c
    unusable_bound = abs(ints[-1]) * n ** n * norm2 ** (n - 1)
    unusable = 1
    best = None
    usable = 0
    p = 3
    while usable < 3:
        p += 2
        if not is_prime(p):
            continue
        if ints[-1] % p:
            fp = Poly.from_int_coeffs(PrimeField(p), ints).monic()
            if fp.gcd(fp.derivative()).degree == 0:
                parts = _ddf(fp)  # EDF runs only for the prime with fewest factors
                count = sum(g.degree // d for g, d in parts)
                if count == 1:
                    return [_primitive(ints)]
                if best is None or count < best[1]:
                    best = (p, count, parts)
                usable += 1
                continue
        unusable *= p
        if best is None and unusable > unusable_bound:
            raise InputError("no usable prime found: the polynomial is not squarefree")
    p, _, parts = best
    facs = sorted((g for part, d in parts for g in _edf(part, d)),
                  key=lambda g: (g.degree, g.coeffs))
    bound = (1 << n) * (math.isqrt(norm2) + 1) * abs(ints[-1])
    lifted, m = _hensel_lift(ints, facs, p, 2 * bound + 1)
    return _recombine(ints, lifted, m)


# subsets _recombine tries before it gives up, since their number grows
# exponentially with the modular factors; the inputs in the tests and the
# benchmark stay far below it
_RECOMBINE_MAX = 20000


def _recombine(f: list, lifted: list, m: int) -> list:
    """Match subsets of lifted modular factors to true integer factors."""
    out = []
    idxs = list(range(len(lifted)))
    size = 1
    tried = 0
    while 2 * size <= len(idxs):
        found = None
        for combo in itertools.combinations(idxs, size):
            tried += 1
            if tried > _RECOMBINE_MAX:
                raise NotFoundError(
                    "recombining %d modular factors needs more than %d subset trials"
                    % (len(lifted), _RECOMBINE_MAX)
                )
            cand = [f[-1] % m]
            for i in combo:
                cand = _mul_mod(cand, lifted[i], m)
            cand = _primitive(_trim([_center(c, m) for c in cand]))
            if len(cand) - 1 != sum(len(lifted[i]) - 1 for i in combo):
                continue
            q, r = _divmod_int_poly(f, cand)
            if q is not None and not any(r):
                found = (combo, cand, q)
                break
        if found is None:
            size += 1
            continue
        combo, cand, q = found
        out.append(cand)
        f = _primitive(q)
        idxs = [i for i in idxs if i not in combo]
    if len(f) > 1:
        out.append(_primitive(f))
    return out


_FACTOR_CACHE: dict = {}
# entries kept before the cache is emptied, so a long-lived process stays bounded
_FACTOR_CACHE_MAX = 4096


def factor(f: Poly) -> list:
    """Factor a nonzero polynomial into monic irreducibles.

    Returns [(irreducible monic Poly, multiplicity), ...] sorted by degree
    then coefficient string; the leading unit is discarded.  Results are
    cached, up to ``_FACTOR_CACHE_MAX`` entries: the same polynomial recurs
    constantly in divisor and reduction-type computations.
    """
    if f.is_zero():
        raise InputError("cannot factor the zero polynomial")
    f = f.monic()
    cached = _FACTOR_CACHE.get(f)
    if cached is not None:
        return list(cached)
    found: dict = {}
    for part, mult in squarefree_decomposition(f):
        if f.field.char == 0:  # the monic multiples of the integer factors
            irreds = [_qpoly(f.field, g, (1, g[-1]))
                      for g in _factor_zz_squarefree(part.terms)]
        else:
            irreds = _factor_fp_squarefree(part)
        for g in irreds:
            found[g] = found.get(g, 0) + mult
    result = sorted(found.items(), key=lambda gm: (gm[0].degree, str(gm[0])))
    _FACTOR_CACHE[f] = tuple(result)
    for g, _ in result:
        _FACTOR_CACHE.setdefault(g, ((g, 1),))
    if len(_FACTOR_CACHE) > _FACTOR_CACHE_MAX:
        _FACTOR_CACHE.clear()
    return result


def is_irreducible(f: Poly) -> bool:
    if f.degree <= 0:
        return False
    fac = factor(f)
    return len(fac) == 1 and fac[0][1] == 1 and fac[0][0].degree == f.degree
