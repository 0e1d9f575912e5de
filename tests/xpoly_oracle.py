"""Test-only oracle: the Manin-operator algebra over K(t)[x] with field coefficients.

These are the bodies the library used before the exactness identity and the
XPoly gcd moved to cleared numerators in K[t][x]: Euclid's algorithm with
FieldElement coefficients, and the exactness check by cross-multiplying
x-polynomials over K(t).  Every partial product here is normalised by a gcd
in K[t], which is what made them slow; the tests compare the fraction-free
versions against them.
"""

from maninmaps import XPoly


def euclid_gcd(a: XPoly, b: XPoly) -> XPoly:
    """Monic gcd over K(t) by Euclid's algorithm on field coefficients."""
    while not b.is_zero():
        a, b = b, a % b
    return a.monic()


def exactness_holds(E, L) -> bool:
    """Whether A d^2(1/y) + B d(1/y) + C/y equals the dx-coefficient of dF.

    Everything is compared by cross-multiplication of x-polynomials, with
    d(1/y) = -df/(2 y^3), d^2(1/y) = -ddf/(2 y^3) + 3 df^2/(4 y^5) and odd
    powers of 1/y rewritten as y/f^k on the curve.
    """
    K = E.field
    f = E.cubic()
    df = f.map_coeffs(lambda c: c.derive())
    ddf = f.map_coeffs(lambda c: c.derive().derive())
    two = K.from_int(2)
    # left side = y * NL / (4 f^3)
    NL = (
        (-(ddf * f).scale(two) + (df * df).scale(K.from_int(3))).scale(L.A)
        - (df * f).scale(two * L.B)
        + (f * f).scale(K.from_int(4) * L.C)
    )
    DL = (f * f * f).scale(K.from_int(4))
    # the x-part of F must be constant in x
    rx, ry = L.F.rx, L.F.ry
    if not (rx.num.derivative() * rx.den - rx.num * rx.den.derivative()).is_zero():
        return False
    # right side y-part = ((N'D - N D') 2 f + N D f') / (2 D^2 f)
    N, D = ry.num, ry.den
    fx = f.derivative()
    RN = (N.derivative() * D - N * D.derivative()) * f.scale(two) + N * D * fx
    RD = (D * D * f).scale(two)
    return NL * RD == RN * DL
