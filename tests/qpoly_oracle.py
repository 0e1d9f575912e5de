"""Test-only oracle: Q[x] on ascending tuples of Fraction coefficients.

This is the representation ``Poly`` over Q had before it stored a primitive
integer tuple under one rational content.  ``mul`` is the old kernel (clear
denominators, convolve the integers, divide every coefficient back), and
``to_str`` the old printer; division, gcd and multiplicity are schoolbook
Fraction arithmetic, so no integer kernel of the library is shared.  Every
function takes and returns trimmed tuples (no trailing zeros; () is zero).
"""

import math
from fractions import Fraction


def poly(cs) -> tuple:
    out = [Fraction(c) for c in cs]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def add(a, b):
    n = max(len(a), len(b))
    return poly([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)])


def neg(a):
    return tuple(-c for c in a)


def sub(a, b):
    return add(a, neg(b))


def scale(a, c):
    return poly([c * x for x in a])


def _clear_denominators(coeffs):
    """(d, ints) with coeffs[i] = ints[i] / d."""
    d = math.lcm(*[c.denominator for c in coeffs])
    return d, [c.numerator * (d // c.denominator) for c in coeffs]


def mul(a, b):
    """Product via integer convolution over a common denominator."""
    if not a or not b:
        return ()
    da, ia = _clear_denominators(a)
    db, ib = _clear_denominators(b)
    out = [0] * (len(a) + len(b) - 1)
    for i, ci in enumerate(ia):
        for j, cj in enumerate(ib):
            out[i + j] += ci * cj
    d = da * db
    return poly([Fraction(c, d) for c in out])


def divmod_(a, b):
    """(quotient, remainder) by long division; b nonzero."""
    r = list(a)
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    for i in range(len(a) - len(b), -1, -1):
        c = r[i + len(b) - 1] / b[-1]
        q[i] = c
        for j, cb in enumerate(b):
            r[i + j] -= c * cb
    return poly(q), poly(r[: len(b) - 1])


def monic(a):
    return scale(a, 1 / a[-1]) if a else a


def gcd(a, b):
    """Monic gcd by Euclid's algorithm."""
    while b:
        a, b = b, divmod_(a, b)[1]
    return monic(a)


def multiplicity(a, b) -> int:
    """Largest k with b**k dividing a, for a nonzero and b non-constant."""
    k = 0
    while True:
        q, r = divmod_(a, b)
        if r:
            return k
        a, k = q, k + 1


def derivative(a):
    return poly([i * c for i, c in enumerate(a)][1:])


def to_str(a, var: str) -> str:
    if not a:
        return "0"
    parts = []
    for i in range(len(a) - 1, -1, -1):
        c = a[i]
        if c == 0:
            continue
        if i == 0:
            mon = str(c)
        else:
            xi = var if i == 1 else "%s^%d" % (var, i)
            if c == 1:
                mon = xi
            elif c == -1:
                mon = "-" + xi
            else:
                mon = "%s*%s" % (c, xi)
        parts.append(mon)
    out = parts[0]
    for part in parts[1:]:
        out += " - " + part[1:] if part.startswith("-") else " + " + part
    return out
