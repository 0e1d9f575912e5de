"""The corrected algebraic Manin map in characteristic zero.

Given a second-order operator L = A d^2 + B d + C in the base derivation
d = d/dt whose action on the invariant differential dx/y is exact, with
witness F in K(E), the map

    M(P) = F(P) - F(O) + A (x' (-df)(P) / (2 y^3) + (x'/y)') + B (x'/y)

is an additive map E(K) -> K killing torsion.  Dividing by A and weighting
by (dt)^2 / (dx/y) makes it a section of weight -1 and differential degree 2
that does not depend on the derivation, the model, or the scaling of L.
The exceptional set S collects bad reduction and the places where the
classifying map is not an immersion, read off from dj against j = 0, 1728
with ord dj taken from the Gauss-Manin pair (Delta, delta) that ``find_pf``
also uses; off S the order of the section is the contact excess of the
point with the leaves through it, and the degree of the bundle bounds the
total.  Exactness
is tested on numerators cleared into k[t][x], fraction-free.  The operator of
dx/y itself is read off the Gauss-Manin connection in closed form, with the
witness solved by back-substitution (``find_pf``); the linear solve it
replaced is kept only as a test oracle.
"""

from __future__ import annotations

from .elliptic import (
    CurveFunction,
    CurvePoint,
    RatX,
    WeierstrassModel,
    XPoly,
    _gauss_manin,
    curve_places,
    deg_omega,
    kodaira_type,
    twist_exponent,
    value_at_O,
)
from .errors import ConsistencyError, HypothesisError, InputError, NotFoundError
from .funcfield import (
    CoverMap,
    FieldElement,
    Place,
    ord_at,
    places_of_poly,
)
from .sections import GradedSection, divisor


class PFOperator:
    """L = A d^2 + B d + C with exactness witness F, for d = d/d(base var)."""

    __slots__ = ("A", "B", "C", "F", "_verified")

    def __init__(self, A: FieldElement, B: FieldElement, C: FieldElement,
                 F: CurveFunction):
        if A.is_zero():
            raise InputError("a second-order operator needs A != 0")
        self.A = A
        self.B = B
        self.C = C
        self.F = F
        self._verified = None

    @property
    def model(self) -> WeierstrassModel:
        return self.F.model

    def scale(self, c: FieldElement) -> "PFOperator":
        """The same operator rescaled: (cA, cB, cC, cF)."""
        cf = CurveFunction(self.F.model, self.F.rx * RatX.const(c), self.F.ry * RatX.const(c))
        return PFOperator(self.A * c, self.B * c, self.C * c, cf)

    def rescale_derivation(self, g: FieldElement) -> "PFOperator":
        """The operator expressing L in the derivation g * d/dt.

        Substituting d = (1/g) d~ gives A/g^2 d~^2 + (B/g - A g'/g^2) d~ + C
        with the witness unchanged.  The result is exact for the SCALED
        derivation; verify_pf, which always differentiates by d/dt, does not
        apply to it.
        """
        if g.is_zero():
            raise InputError("derivation rescaled by zero")
        A = self.A / (g * g)
        B = self.B / g - self.A * g.derive() / (g * g)
        return PFOperator(A, B, self.C, self.F)

    def __str__(self):
        return "(%s)*d^2 + (%s)*d + (%s), F = %s" % (self.A, self.B, self.C, self.F)

    def __repr__(self):
        return "PFOperator(%s)" % self


def _exactness_holds(E: WeierstrassModel, L: PFOperator) -> bool:
    """Whether A d^2(1/y) + B d(1/y) + C/y equals the dx-coefficient of dF.

    With d(1/y) = -df/(2 y^3), d^2(1/y) = -ddf/(2 y^3) + 3 df^2/(4 y^5) and
    odd powers of 1/y rewritten as y/f^k, the left side is y NL/(4 f^3) with
    NL = A(-2 ddf f + 3 df^2) - 2B df f + 4C f^2.  For the witness
    rx + y ry with ry = N/D, rx must be constant in x and the right side is
    y RN/(2 D^2 f) with RN = (N'D - N D') 2f + N D f' (' = d/dx, d = d/dt).

    The test runs fraction-free in k[t][x] (``XPoly.cleared``): f = F/delta,
    A = a/alpha, B = b/beta, C = c/gamma, ry = (N/nu)/(D/eta).  Then
    df = G/delta^2, G = F_t delta - F delta_t, and ddf = H/delta^3,
    H = G_t delta - 2 G delta_t, so alpha beta gamma delta^4 NL equals
    NL~ = a beta gamma (-2HF + 3G^2) - 2 b alpha gamma G F delta
    + 4 c alpha beta F^2 delta^2, and RN = RN~/(nu eta delta) with RN~ the
    same formula in N, D, F.  Multiplying NL 2 D^2 f = RN 4 f^3 by
    alpha beta gamma delta^5 eta^2 nu and cancelling F != 0 leaves
    2 nu NL~ D^2 = 4 alpha beta gamma delta eta RN~ F^2.  rx = P/Q is
    constant in x iff the Wronskian P'Q - P Q' of its cleared parts is 0.
    """
    P, Q = L.F.rx.num.cleared()[0], L.F.rx.den.cleared()[0]
    if not (P.derivative() * Q - P * Q.derivative()).is_zero():
        return False
    F, delta = E.cubic().cleared()
    two, three, four = (F.field.from_int(n) for n in (2, 3, 4))
    d_t = lambda p: p.map_coeffs(lambda c: c.derivative())  # noqa: E731
    G = d_t(F).scale(delta) - F.scale(delta.derivative())
    H = d_t(G).scale(delta) - G.scale(two * delta.derivative())
    (a, alpha), (b, beta), (c, gamma) = ((e.num, e.den) for e in (L.A, L.B, L.C))
    NL = (
        ((G * G).scale(three) - (H * F).scale(two)).scale(a * beta * gamma)
        - (G * F).scale(two * b * alpha * gamma * delta)
        + (F * F).scale(four * c * alpha * beta * delta * delta)
    )
    (N, nu), (D, eta) = L.F.ry.num.cleared(), L.F.ry.den.cleared()
    RN = (N.derivative() * D - N * D.derivative()) * F.scale(two) + N * D * F.derivative()
    return (NL * D * D).scale(two * nu) == (RN * F * F).scale(
        four * alpha * beta * gamma * delta * eta
    )


def verify_pf(E: WeierstrassModel, L: PFOperator) -> bool:
    """Whether L(dx/y) = dF holds exactly on E (with d x = 0).

    Only E == L.model gets past the first checks, so the answer is kept on L.
    """
    if E.field.char != 0:
        raise InputError("operators with exactness witnesses live in characteristic 0")
    if L.F.model != E:
        return False
    if L._verified is None:
        L._verified = _exactness_holds(E, L)
    return L._verified


def find_pf(E: WeierstrassModel, pole_bound: int = 4) -> PFOperator:
    """The Picard-Fuchs operator of dx/y, read off the Gauss-Manin connection.

    Work on the depressed model y^2 = x^3 + a4 x + a6 with ' = d/dt, and let
    Delta = 4 a4^3 + 27 a6^2, delta = 3 a6 a4' - 2 a4 a6', omega = dx/y and
    eta = x dx/y.  Differentiating under the integral gives
    d_t omega = -f_t dx/(2 y^3) with f_t = a4' x + a6'.  Reducing it modulo
    exact forms with 1 = R f + S f_x, d(g/y) = g_x dx/y - g f_x dx/(2 y^3)
    and d(x^m y) = (m x^(m-1) f + x^m f_x/2) dx/y gives the Gauss-Manin
    matrix m11 = -Delta'/(12 Delta), m12 = 3 delta/(2 Delta),
    m21 = a4 delta/(2 Delta), m22 = -m11.  Eliminating eta gives
    omega'' - (tr M + m12'/m12) omega' + (det M - m11' + m11 m12'/m12) omega
    = 0, that is

        B/A = Delta'/Delta - delta'/delta,
        C/A = Delta''/(12 Delta) - Delta' delta'/(12 Delta delta)
              - (Delta'/Delta)^2/144 - 3 a4 delta^2/(4 Delta^2).

    The shift x -> x + s(t) leaves the periods alone, so this is the operator
    of the cubic f of E itself; only the witness is solved on f.  Nothing
    divides by zero: delta = 0 is the isotrivial case (``elliptic._gauss_manin``
    derives j' from Delta and delta), which is refused; and C != 0, because
    L(1) = C and the monodromy of a non-isotrivial family fixes no period.

    The scaling is the one an undetermined-coefficient solve gives when the
    x^4 coefficient of N is 1, which the x^6 equation below turns into
    C = -1/2: (A, B, C) = (-1/(2c), -b/(2c), -1/2) for b = B/A and c = C/A,
    cleared to polynomials, divided by the monic content, and signed so that
    A leads positively.  A degree above pole_bound raises NotFoundError.

    The witness F = y N(x)/f(x)^2 with deg N <= 4 solves
    N' f - (3/2) N f' = A(3 f_t^2/4 - f_tt f/2) - B f_t f/2 + C f^2 by
    back-substitution from x^6 down to x^2; the image of x^i leads with
    (i - 9/2) x^(i+2).  ``verify_pf`` checks the result.
    """
    if pole_bound < 0:
        raise InputError("pole_bound must be nonnegative, got %d" % pole_bound)
    if E.field.char != 0:
        raise InputError("operators with exactness witnesses live in characteristic 0")
    disc, delta = _gauss_manin(E)
    if delta.is_zero():
        raise NotFoundError("isotrivial curve: the derivative terms degenerate")
    K = E.field
    a4 = E.depress()[0].a4
    ld, le = disc.derive() / disc, delta.derive() / delta
    c = (
        (disc.derive().derive() / disc - ld * le) / 12
        - ld * ld / 144
        - a4 * (delta / disc) ** 2 * 3 / 4
    )
    A = -1 / (c * 2)
    B, C = (ld - le) * A, K.from_fraction(-1, 2)
    lcm = A.den
    for g in (B.den, C.den):
        lcm = lcm * lcm.cofactors(g)[2]
    A, B, C = (e * FieldElement(K, lcm) for e in (A, B, C))
    unit = FieldElement(K, A.num.gcd(B.num).gcd(C.num))
    if A.num.leading < 0:
        unit = -unit
    A, B, C = A / unit, B / unit, C / unit
    if max(A.num.degree, B.num.degree, C.num.degree) > pole_bound:
        raise NotFoundError(
            "operator degrees exceed pole bound %d; raise it" % pole_bound
        )
    f = E.cubic()
    ft = f.map_coeffs(FieldElement.derive)
    R = (
        (ft * ft).scale(A * 3 / 4)
        - (ft.map_coeffs(FieldElement.derive) * f).scale(A / 2)
        - (ft * f).scale(B / 2)
        + (f * f).scale(C)
    )
    r = [R[k] for k in range(7)]
    n = [K.zero] * 5
    for i in range(4, -1, -1):
        n[i] = r[i + 2] * 2 / (2 * i - 9)
        for k in range(4):  # x^i maps to the sum of (i - 3k/2) f_k x^(i+k-1)
            if i + k:
                r[i + k - 1] = r[i + k - 1] - n[i] * f[k] * (2 * i - 3 * k) / 2
    F = CurveFunction(E, RatX(K, XPoly.zero(K)), RatX(K, XPoly(K, n), f * f))
    L = PFOperator(A, B, C, F)
    if not verify_pf(E, L):
        raise ConsistencyError("solved operator failed verification on %s" % E)
    return L


def pullback_pf(L: PFOperator, phi: CoverMap) -> PFOperator:
    """Transport an operator along a cover of the line.

    With t = r(u): A~ = (A o r)/r'^2, B~ = (B o r)/r' - (A o r) r''/r'^3,
    C~ = C o r, F~ = F with coefficients pulled back.
    """
    r = phi.image
    rp = r.derive()
    if rp.is_zero():
        raise HypothesisError("cover with identically vanishing derivative")
    rpp = rp.derive()
    A = phi.pullback(L.A)
    Bt = phi.pullback(L.B) / rp - A * rpp / (rp ** 3)
    At = A / (rp * rp)
    Ct = phi.pullback(L.C)
    model = L.F.model.pullback(phi)
    Ft = L.F.map_coeffs(phi.pullback, model=model)
    return PFOperator(At, Bt, Ct, Ft)


def manin_value(E: WeierstrassModel, L: PFOperator, P: CurvePoint) -> FieldElement:
    """M(P) in coordinates; additive in P and zero on torsion."""
    if not verify_pf(E, L):
        raise HypothesisError("the operator does not make the invariant differential exact")
    if P.is_zero:
        return E.field.zero
    if P.y.is_zero():
        return E.field.zero  # 2-torsion is killed
    x, y = P.x, P.y
    xp = x.derive()
    df = E.cubic().map_coeffs(lambda c: c.derive())
    df_at = df.evaluate(x)
    try:
        FP = L.F.evaluate(P)
    except ZeroDivisionError:
        raise HypothesisError("the exactness witness has a pole at the point")
    FO = value_at_O(L.F)
    inner = xp * (-df_at) / (y ** 3 * 2) + (xp / y).derive()
    return FP - FO + L.A * inner + L.B * (xp / y)


def manin_section(E: WeierstrassModel, L: PFOperator, P: CurvePoint) -> GradedSection:
    """The invariant section M(P)/A of weight -1 and differential degree 2.

    The stored value is in the (d var)^2 / (dx/y) normalization; converting
    to a (dx/2y)-based expression multiplies the value by the constant 2 and
    changes no order or divisor.
    """
    return _section_of(E, L, manin_value(E, L, P))


def _section_of(E: WeierstrassModel, L: PFOperator, value: FieldElement) -> GradedSection:
    """``manin_section`` for the value M(P) already computed."""
    return GradedSection(value / L.A, -1, 2, E)


# ---------------------------------------------------------------------------
# the exceptional set and the tangency bound


REASON_BAD = "bad-reduction"
REASON_DJ = "dj-vanishes"
REASON_J0 = "j=0-excess"
REASON_J1728 = "j=1728-excess"


class ExceptionalSet:
    """Places excluded from the tangency count, with the clause that caught them."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        self.entries = sorted(entries, key=lambda pr: pr[0].sort_key())

    def places(self) -> list:
        return [p for p, _ in self.entries]

    def __contains__(self, place: Place) -> bool:
        return any(p == place for p, _ in self.entries)

    @property
    def size(self) -> int:
        """Degree-weighted number of points."""
        return sum(p.degree for p, _ in self.entries)

    def serialize(self) -> list:
        return [
            {"place": str(p), "degree": p.degree, "reason": r}
            for p, r in self.entries
        ]

    def __str__(self):
        return "{%s}" % ", ".join("%s (%s)" % (p, r) for p, r in self.entries)


def exceptional_set(E: WeierstrassModel) -> ExceptionalSet:
    """Bad reduction plus excess vanishing of dj relative to j = 0 and 1728.

    On the short model j = 6912 a4^3/Delta, j - 1728 = -46656 a6^2/Delta and
    j' = 6912 * 27 a4^2 a6 delta/Delta^2 (``elliptic._gauss_manin``), so every
    zero of j, j - 1728 or dj lies in ``curve_places`` or among the zeros of
    delta; delta = 0 is isotriviality, refused.  At a good place the minimal
    discriminant is a unit, so with a = ord_v a4 + 4k_v, b = ord_v a6 + 6k_v
    and ord_v Delta = -12k_v: ord_v(j) = 3a, ord_v(j - 1728) = 2b and
    ord_v(dj) = 2a + b + ord_v(delta) + 10k_v, less 2 at infinity, where dt
    has a double pole.
    """
    if E.field.char != 0:
        raise InputError("the exceptional set is a characteristic-0 notion")
    Es = E.depress()[0]
    delta = _gauss_manin(Es)[1]
    if delta.is_zero():
        raise HypothesisError("isotrivial curve: dj vanishes identically")
    places = curve_places(Es)
    candidates = set(places)
    candidates.update(v for v, _ in places_of_poly(delta.num, Es.field))
    bad = {v for v in places if not kodaira_type(Es, v).is_good}
    entries = []
    for v in candidates:
        if v in bad:
            entries.append((v, REASON_BAD))
            continue
        k = twist_exponent(Es, v)
        a = ord_at(Es.a4, v) + 4 * k
        b = ord_at(Es.a6, v) + 6 * k
        o_dj = 2 * a + b + ord_at(delta, v) + 10 * k - (2 if v.is_infinity else 0)
        if a > 0:
            if o_dj > 2:
                entries.append((v, REASON_J0))
        elif b > 0:
            if o_dj > 1:
                entries.append((v, REASON_J1728))
        elif o_dj > 0:
            entries.append((v, REASON_DJ))
    return ExceptionalSet(entries)


class TangencyReport:
    __slots__ = (
        "section", "section_divisor", "exceptional", "orders", "t_complex",
        "contact_orders", "d", "bound", "zero_section",
    )

    def __init__(self, **kw):
        for name in self.__slots__:
            setattr(self, name, kw[name])

    @property
    def weighted_count(self) -> int:
        return sum(v.degree for v in self.t_complex)


def tangency_report(E: WeierstrassModel, L: PFOperator, P: CurvePoint) -> TangencyReport:
    """Orders of the invariant section against the exceptional set.

    Off S the order J is the contact excess (contact order I = J + 2); the
    places off S with J > 0 form the tangency set, whose degree-weighted
    size is bounded by 4g - 4 - d + |S| with g = 0.  A zero section (P was
    torsion, or in the kernel for another reason) is reported as such.
    """
    S = exceptional_set(E)
    section = manin_section(E, L, P)
    d = deg_omega(E)
    bound = -4 - d + S.size
    if section.is_zero():
        return TangencyReport(
            section=section, section_divisor=None, exceptional=S, orders={},
            t_complex=[], contact_orders={}, d=d, bound=bound, zero_section=True,
        )
    div = divisor(section)
    orders = {v: div.ord(v) for v in set(div.support()) | set(S.places())}
    for v, J in orders.items():
        if v in S:
            if J < -1:
                raise ConsistencyError("order %d < -1 at exceptional %s" % (J, v))
        elif J < 0:
            raise ConsistencyError("negative order %d away from the exceptional set at %s" % (J, v))
    t_complex = sorted(
        (v for v, J in orders.items() if v not in S and J > 0),
        key=lambda v: v.sort_key(),
    )
    contact = {v: orders[v] + 2 for v in orders if v not in S}
    weighted = sum(v.degree * orders[v] for v in orders if v not in S)
    if weighted > bound:
        raise ConsistencyError(
            "total tangency order %d exceeds the bound %d" % (weighted, bound)
        )
    return TangencyReport(
        section=section, section_divisor=div, exceptional=S, orders=orders,
        t_complex=t_complex, contact_orders=contact, d=d, bound=bound,
        zero_section=False,
    )
