"""The corrected algebraic Manin map in characteristic zero.

Given a second-order operator L = A d^2 + B d + C in the base derivation
d = d/dt whose action on the invariant differential dx/y is exact, with
witness F in K(E), the map

    M(P) = F(P) - F(O) + A (x' (-df)(P) / (2 y^3) + (x'/y)') + B (x'/y)

is an additive map E(K) -> K killing torsion.  Dividing by A and weighting
by (dt)^2 / (dx/y) makes it a section of weight -1 and differential degree 2
that does not depend on the derivation, the model, or the scaling of L.
The exceptional set S collects bad reduction and the places where the
classifying map is not an immersion, read off from dj against j = 0, 1728;
off S the order of the section is the contact excess of the point with the
leaves through it, and the degree of the bundle bounds the total.  Exactness
is tested on numerators cleared into k[t][x], fraction-free.
"""

from __future__ import annotations

from .elliptic import (
    CurveFunction,
    CurvePoint,
    RatX,
    WeierstrassModel,
    XPoly,
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
    if not (P.derivative_x() * Q - P * Q.derivative_x()).is_zero():
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
    RN = (N.derivative_x() * D - N * D.derivative_x()) * F.scale(two) + N * D * F.derivative_x()
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
    """Solve for a verified operator by undetermined coefficients.

    The witness is searched in the form F = y N(x) / f(x)^2 with deg N <= 4,
    which turns exactness into a 7-equation K-linear system in
    (A, B, C, N); the kernel is one-dimensional for a non-isotrivial monic
    cubic.  The result is normalized to polynomial primitive (A, B, C); a
    normalized degree above pole_bound raises NotFoundError.
    """
    if pole_bound < 0:
        raise InputError("pole_bound must be nonnegative, got %d" % pole_bound)
    if E.field.char != 0:
        raise InputError("operators with exactness witnesses live in characteristic 0")
    if E.is_isotrivial():
        raise NotFoundError("isotrivial curve: the derivative terms degenerate")
    K = E.field
    f = E.cubic()
    df = f.map_coeffs(lambda c: c.derive())
    ddf = f.map_coeffs(lambda c: c.derive().derive())
    fprime = f.derivative_x()
    half = K.from_fraction(1, 2)
    # columns: A, B, C, n0..n4; rows: x^0..x^6 of
    #   A(-ddf f/2 + 3 df^2/4) + B(-df f/2) + C f^2 - (N' f - 3/2 N f') = 0
    colA = (-(ddf * f)).scale(half) + (df * df).scale(K.from_fraction(3, 4))
    colB = (-(df * f)).scale(half)
    colC = f * f
    cols = [colA, colB, colC]
    x = XPoly.x(K)
    for i in range(5):
        xi = x ** i
        dxi = xi.derivative_x()
        term = dxi * f - (xi * fprime).scale(K.from_fraction(3, 2))
        cols.append(-term)
    rows = 7
    matrix = [[cols[j][i] for j in range(8)] for i in range(rows)]
    kernel = _kernel(matrix, K)
    solution = None
    for vec in kernel:
        if not vec[0].is_zero():
            solution = vec
            break
    if solution is None:
        raise NotFoundError("no second-order exact operator in the search space")
    A, B, C = solution[0], solution[1], solution[2]
    # clear denominators and make (A, B, C) primitive with A's leading term positive
    denlcm = A.den
    for g in (B.den, C.den):
        denlcm = denlcm * (g // denlcm.gcd(g))
    scale = FieldElement(K, denlcm)
    A, B, C = A * scale, B * scale, C * scale
    content = A.num.gcd(B.num).gcd(C.num)
    if content.degree > 0:
        inv = FieldElement(K, content)
        A, B, C = A / inv, B / inv, C / inv
        scale = scale / inv
    if K.char == 0 and A.num.leading < 0:
        m = K.from_int(-1)
        A, B, C, scale = A * m, B * m, C * m, scale * m
    if max(A.num.degree, B.num.degree, C.num.degree) > pole_bound:
        raise NotFoundError(
            "operator degrees exceed pole bound %d; raise it" % pole_bound
        )
    ncoeffs = [v * scale for v in solution[3:]]
    N = XPoly(K, ncoeffs)
    F = CurveFunction(E, RatX(K, XPoly.zero(K)), RatX(K, N, f * f))
    L = PFOperator(A, B, C, F)
    if not verify_pf(E, L):
        raise ConsistencyError("solved operator failed verification on %s" % E)
    return L


def _kernel(matrix, K):
    """Kernel basis of a small matrix over the function field K."""
    rows = [list(r) for r in matrix]
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, len(rows)):
            if not rows[i][c].is_zero():
                pivot = i
                break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = K.one / rows[r][c]
        rows[r] = [v * inv for v in rows[r]]
        for i in range(len(rows)):
            if i != r and not rows[i][c].is_zero():
                factor = rows[i][c]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [K.zero] * ncols
        vec[fc] = K.one
        for i, pc in enumerate(pivots):
            vec[pc] = -rows[i][fc]
        basis.append(vec)
    return basis


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
    value = manin_value(E, L, P) / L.A
    return GradedSection(value, -1, 2, E)


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

    On the short model j = c4^3/disc and j - 1728 = c6^2/disc, with
    c4 = -48 a4 and c6 = -864 a6, so every zero of j or of j - 1728 lies in
    ``curve_places``.  At a good place the minimal discriminant is a unit,
    so ord_v(j) = 3(ord_v a4 + 4k_v) and ord_v(j - 1728) = 2(ord_v a6 + 6k_v);
    only the numerator of dj adds places.
    """
    if E.field.char != 0:
        raise InputError("the exceptional set is a characteristic-0 notion")
    if E.is_isotrivial():
        raise HypothesisError("isotrivial curve: dj vanishes identically")
    K = E.field
    Es = E.depress()[0]
    jp = E.j_invariant().derive()
    places = curve_places(E)
    candidates = set(places)
    candidates.update(v for v, _ in places_of_poly(jp.num, K))
    bad = {v for v in places if not kodaira_type(E, v).is_good}
    entries = []
    for v in candidates:
        if v in bad:
            entries.append((v, REASON_BAD))
            continue
        o_dj = ord_at(jp, v) + (-2 if v.is_infinity else 0)
        k = twist_exponent(Es, v)
        if ord_at(Es.a4, v) + 4 * k > 0:
            if o_dj > 2:
                entries.append((v, REASON_J0))
        elif ord_at(Es.a6, v) + 6 * k > 0:
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
