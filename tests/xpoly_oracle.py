"""Test-only oracles: the Manin-operator algebra over K(t)[x] and k[t][x].

These are bodies the library used before, kept to check what replaced them:

- ``prs_gcd``: the monic gcd over K(t) by a primitive remainder sequence on
  numerators cleared into k[t][x] (``cleared``, Gauss's lemma), which
  ``XPoly.gcd`` ran until the witnesses became canonical by construction and
  Euclid's algorithm over K took its place again;
- ``exactness_holds``: the exactness check by cross-multiplying
  x-polynomials over K(t), every partial product normalised by a gcd in
  K[t], which is what made it slow;
- ``cleared_exactness_holds``: the same identity run fraction-free on
  numerators cleared into k[t][x].

Both exactness checks derive L(dx/y) = dF directly, without the uniqueness
argument behind ``maninmap._witness``, so ``verify_pf`` is compared against
them.
"""

from maninmaps import FieldElement, Poly, XPoly


class PolyRing:
    """k[var] as the coefficient ring of the XPolys that ``cleared`` returns."""

    def __init__(self, constants):
        self.constants, self.zero, self.one = constants, Poly.zero(constants), Poly.one(constants)

    def __eq__(self, other):
        return isinstance(other, PolyRing) and self.constants == other.constants

    def __hash__(self):
        return hash(self.constants)


def cleared(p: XPoly):
    """(P, den) with p = P/den, P over k[t] and den the monic lcm of denominators."""
    den = Poly.one(p.field.constants)
    for c in p.coeffs:
        den = den * den.cofactors(c.den)[2]
    nums = [c.num if c.den == den else c.num * (den // c.den) for c in p.coeffs]
    return XPoly(PolyRing(p.field.constants), nums), den


def prs_gcd(a: XPoly, b: XPoly) -> XPoly:
    """Monic gcd over K by a primitive remainder sequence in k[t][x] (Gauss's lemma)."""
    field = a.field
    a, b = _primitive(cleared(a)[0]), _primitive(cleared(b)[0])
    while not b.is_zero():
        a, b = b, _primitive(_prem(a, b))
    return XPoly(field, [FieldElement(field, c, a.leading) for c in a.coeffs])


def _primitive(p: XPoly) -> XPoly:
    """p over k[t] divided by its content (``Poly.gcd``), its lc made monic in t."""
    g = p.leading
    for c in p.coeffs:
        g = g if g.is_constant() else g.gcd(c)
    g = g.monic().scale(p.leading.leading)
    return p if g.is_one() else XPoly(p.field, [c // g for c in p.coeffs])


def _prem(a: XPoly, b: XPoly) -> XPoly:
    """lc(b)^k a mod b over k[t], k the number of reduction steps (0 if deg a < deg b)."""
    r, lb, db = list(a.coeffs), b.leading, b.degree
    while len(r) > db:
        d, c = len(r) - 1 - db, r.pop()
        r = r if lb.is_one() else [lb * x for x in r]
        for j in range(db):
            r[d + j] = r[d + j] - c * b.coeffs[j]
        while r and r[-1].is_zero():
            r.pop()
    return XPoly(a.field, r)


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


def _dx(p: XPoly) -> XPoly:
    """d/dx of an x-polynomial over k[t], as ``cleared`` returns."""
    k = p.field.constants
    return XPoly(p.field, [c.scale(k.from_int(i)) for i, c in enumerate(p.coeffs)][1:])


def cleared_exactness_holds(E, L) -> bool:
    """``exactness_holds`` run fraction-free on numerators cleared into k[t][x].

    With odd powers of 1/y rewritten as y/f^k, the left side is
    y NL/(4 f^3) with NL = A(-2 ddf f + 3 df^2) - 2B df f + 4C f^2.  For the
    witness rx + y ry with ry = N/D, rx must be constant in x and the right
    side is y RN/(2 D^2 f) with RN = (N'D - N D') 2f + N D f' (' = d/dx,
    d = d/dt).

    Clear f = F/delta, A = a/alpha, B = b/beta, C = c/gamma and
    ry = (N/nu)/(D/eta).  Then df = G/delta^2, G = F_t delta - F delta_t,
    and ddf = H/delta^3, H = G_t delta - 2 G delta_t, so
    alpha beta gamma delta^4 NL equals
    NL~ = a beta gamma (-2HF + 3G^2) - 2 b alpha gamma G F delta
    + 4 c alpha beta F^2 delta^2, and RN = RN~/(nu eta delta) with RN~ the
    same formula in N, D, F.  Multiplying NL 2 D^2 f = RN 4 f^3 by
    alpha beta gamma delta^5 eta^2 nu and cancelling F != 0 leaves
    2 nu NL~ D^2 = 4 alpha beta gamma delta eta RN~ F^2.  rx = P/Q is
    constant in x iff the Wronskian P'Q - P Q' of its cleared parts is 0.
    """
    P, Q = cleared(L.F.rx.num)[0], cleared(L.F.rx.den)[0]
    if not (_dx(P) * Q - P * _dx(Q)).is_zero():
        return False
    F, delta = cleared(E.cubic())
    k = E.field.constants
    two, three, four = (Poly.const(k, k.from_int(n)) for n in (2, 3, 4))
    d_t = lambda p: p.map_coeffs(lambda c: c.derivative())  # noqa: E731
    G = d_t(F).scale(delta) - F.scale(delta.derivative())
    H = d_t(G).scale(delta) - G.scale(two * delta.derivative())
    (a, alpha), (b, beta), (c, gamma) = ((e.num, e.den) for e in (L.A, L.B, L.C))
    NL = (
        ((G * G).scale(three) - (H * F).scale(two)).scale(a * beta * gamma)
        - (G * F).scale(two * b * alpha * gamma * delta)
        + (F * F).scale(four * c * alpha * beta * delta * delta)
    )
    (N, nu), (D, eta) = cleared(L.F.ry.num), cleared(L.F.ry.den)
    RN = (_dx(N) * D - N * _dx(D)) * F.scale(two) + N * D * _dx(F)
    return (NL * D * D).scale(two * nu) == (RN * F * F).scale(
        four * alpha * beta * gamma * delta * eta
    )
