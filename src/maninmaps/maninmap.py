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
also uses, all from one ``elliptic._fibers`` pass; off S the order of the
section is the contact excess of the point with the leaves through it, and
the degree of the bundle bounds the total, as the report's degree and floor
checks imply.  The operator of dx/y itself is read off the Gauss-Manin
connection in closed form (``find_pf``).  Exactness has one test, run by
``find_pf`` and by ``verify_pf`` on operators not from ``pullback_pf``
(which inherit their source's answer): the witness equation has at most one
solution, of the form y N(x)/f(x)^2 with deg N <= 4, which
back-substitution finds or rules out (``_witness``).  The linear solve, the
fraction-free exactness identity and the witness test of a pulled-back
operator are kept only as test oracles.
"""

from __future__ import annotations

from .elliptic import (
    CurveFunction,
    CurvePoint,
    RatX,
    WeierstrassModel,
    XPoly,
    _deg_omega,
    _fibers,
    _gauss_manin,
)
from .errors import ConsistencyError, HypothesisError, InputError, NotFoundError
from .funcfield import CoverMap, FieldElement, Place
from .sections import GradedSection, _divisor


class PFOperator:
    """L = A d^2 + B d + C with exactness witness F, for d = d/d(base var)."""

    __slots__ = ("A", "B", "C", "F", "_verified", "_source")

    def __init__(self, A: FieldElement, B: FieldElement, C: FieldElement,
                 F: CurveFunction):
        if A.is_zero():
            raise InputError("a second-order operator needs A != 0")
        self.A = A
        self.B = B
        self.C = C
        self.F = F
        self._verified = None
        self._source = None

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


def _witness(E: WeierstrassModel, A: FieldElement, B: FieldElement, C: FieldElement):
    """(N, ok): the witness numerator of L = A d^2 + B d + C on E, and whether it works.

    With f the cubic of E, ' = d/dx and d = d/dt (d x = 0),
    d(1/y) = -df/(2 y^3) and d^2(1/y) = -ddf/(2 y^3) + 3 df^2/(4 y^5) give
    L(dx/y) = y R/f^3 dx with R = A(3 df^2/4 - ddf f/2) - B df f/2 + C f^2
    = df (3A/4 df - B/2 f) - f (A/2 ddf - C f), of degree at most 6 in x.
    For F = rx + y ry,
    dF = (rx' + y (ry' + ry f'/(2f))) dx, so L(dx/y) = dF iff rx' = 0 and
    ry' + ry f'/(2f) = R/f^3.  That equation has at most one solution ry in
    K(x): two would differ by a multiple of f^(-1/2), which is not in K(x).
    A solution is N/f^2 with deg N <= 4.  A pole c (x - e)^(-k) of ry makes
    the left side lead with -k c (x - e)^(-k-1) off the roots of f, and with
    (1/2 - k) c (x - e)^(-k-1) at a root, which is simple; the right side
    has no pole off the roots and order -3 at one, so ry has no pole off the
    roots and order at least -2 at each.  A leading term c x^d of N gives
    c (d - 9/2) x^(d-7) at infinity, where R/f^3 is O(x^-3), so d <= 4.
    With ry = N/f^2 the equation reads N' f - (3/2) N f' = R.

    It is solved by back-substitution from x^6 down to x^2 (the image of x^i
    leads with (i - 9/2) x^(i+2)); ok says whether the x^1 and x^0
    equations also hold.  So L makes dx/y exact with witness F iff ok holds,
    rx lies in K and ry = N/f^2.
    """
    K = E.field
    f = E.cubic()
    ft = f.map_coeffs(FieldElement.derive)
    ftt = ft.map_coeffs(FieldElement.derive)
    R = ft * (ft.scale(A * 3 / 4) - f.scale(B / 2)) - f * (ftt.scale(A / 2) - f.scale(C))
    r = [R[k] for k in range(7)]
    n = [K.zero] * 5
    for i in range(4, -1, -1):
        n[i] = r[i + 2] * K.from_fraction(2, 2 * i - 9)
        # x^i maps to the sum of (i - 3k/2) f_k x^(i+k-1); k = 3 only clears r[i + 2]
        for k in range(3):
            if 2 * i != 3 * k and not f[k].is_zero():
                r[i + k - 1] = r[i + k - 1] - n[i] * f[k] * K.from_fraction(2 * i - 3 * k, 2)
    return XPoly(K, n), r[1].is_zero() and r[0].is_zero()


def verify_pf(E: WeierstrassModel, L: PFOperator) -> bool:
    """Whether L(dx/y) = dF holds exactly on E (with d x = 0).

    By ``_witness`` this holds iff the x-part of F is constant in x, the
    witness equations are consistent, and the y-part of F is N/f^2; the
    last is tested by cross-multiplying the canonical fraction.  Only
    E == L.F.model gets past the first checks, so the answer is kept on L.

    An operator from ``pullback_pf`` takes its source's answer instead: the
    cover t = r(u) embeds K(E) in K~(E~) by a map i with d/du o i =
    r' i o d/dt (both killing x), so L~(dx/y) - dF~ = i(L(dx/y) - dF), and
    i is injective.  One side vanishes exactly when the other does, so the
    transported answer is the computed one, False included.
    """
    if E.field.char != 0:
        raise InputError("operators with exactness witnesses live in characteristic 0")
    if L.F.model != E:
        return False
    if L._verified is None and L._source is not None:
        L._verified = verify_pf(L._source.F.model, L._source)
    elif L._verified is None:
        rx, ry = L.F.rx, L.F.ry
        if rx.den.degree or rx.num.degree > 0:
            L._verified = False
        else:
            N, ok = _witness(E, L.A, L.B, L.C)
            f = E.cubic()
            L._verified = ok and ry.num * (f * f) == ry.den * N
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

    The witness F = y N(x)/f(x)^2 comes from ``_witness``, whose residual
    test is the whole of what ``verify_pf`` would check, so the operator is
    returned verified; a failed residual raises ConsistencyError.
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
    N, ok = _witness(E, A, B, C)
    if not ok:
        raise ConsistencyError("solved operator failed verification on %s" % E)
    f = E.cubic()
    L = PFOperator(A, B, C, CurveFunction(E, RatX(K, XPoly.zero(K)), RatX(K, N, f * f)))
    L._verified = True  # the residual test of _witness is all verify_pf would run
    return L


def pullback_pf(L: PFOperator, phi: CoverMap) -> PFOperator:
    """Transport an operator along a cover of the line.

    With t = r(u): A~ = (A o r)/r'^2, B~ = (B o r)/r' - (A o r) r''/r'^3,
    C~ = C o r, F~ = F with coefficients pulled back: L in d/dt = d/du / r'.
    The result is exact iff L is; ``verify_pf`` reads that off L when asked.
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
    Lt = PFOperator(At, Bt, Ct, Ft)
    Lt._source = L
    return Lt


def manin_value(E: WeierstrassModel, L: PFOperator, P: CurvePoint) -> FieldElement:
    """M(P) in coordinates; additive in P and zero on torsion.

    On a verified witness F = rx + y ry, rx is a constant that cancels from
    F(P) - F(O), and ry = N/f^2 with deg N <= 4 vanishes at O, so
    F(P) - F(O) = y ry(x).  ry has a pole only where f(x) = 0, that is at
    the 2-torsion points, which return 0 first.
    """
    if not verify_pf(E, L):
        raise HypothesisError("the operator does not make the invariant differential exact")
    if P.is_zero or P.y.is_zero():
        return E.field.zero  # O and 2-torsion are killed
    x, y = P.x, P.y
    xp = x.derive()
    df = E.cubic().map_coeffs(lambda c: c.derive())
    df_at = df.evaluate(x)
    inner = xp * (-df_at) / (y ** 3 * 2) + (xp / y).derive()
    return y * L.F.ry.evaluate(x) + L.A * inner + L.B * (xp / y)


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
    zero of j, j - 1728 or dj lies in the support of a4, a6, Delta or delta,
    and their divisors give every order below; delta = 0 is isotriviality,
    refused.  ``elliptic._fiber`` decides which places are bad.  At a good place
    the minimal discriminant is a unit, so with a = ord_v a4 + 4k_v,
    b = ord_v a6 + 6k_v and ord_v Delta = -12k_v: ord_v(j) = 3a,
    ord_v(j - 1728) = 2b and ord_v(dj) = 2a + b + ord_v(delta) + 10k_v, less
    2 at infinity, where dt has a double pole.
    """
    return _exceptional_set(E)[0]


def _exceptional_set(E: WeierstrassModel) -> tuple:
    """(``exceptional_set(E)``, the ``_fibers(E, delta)`` rows it classified)."""
    if E.field.char != 0:
        raise InputError("the exceptional set is a characteristic-0 notion")
    delta = _gauss_manin(E)[1]
    if delta.is_zero():
        raise HypothesisError("isotrivial curve: dj vanishes identically")
    rows = _fibers(E, delta)
    entries = []
    for v, k, ktype, (o4, o6, _, o_delta) in rows:
        if not ktype.is_good:
            entries.append((v, REASON_BAD))
            continue
        a = o4 + 4 * k
        b = o6 + 6 * k
        o_dj = 2 * a + b + o_delta + 10 * k - (2 if v.is_infinity else 0)
        if a > 0:
            if o_dj > 2:
                entries.append((v, REASON_J0))
        elif b > 0:
            if o_dj > 1:
                entries.append((v, REASON_J1728))
        elif o_dj > 0:
            entries.append((v, REASON_DJ))
    return ExceptionalSet(entries), rows


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

    The ``_fibers(E, delta)`` pass that classifies S gives the places of
    d = deg omega (k_v by trial division) and the twists of ``_divisor``.  The
    bound needs no check of its own: ``_divisor`` checks deg div = -4 - d
    (weight -1, m = 2) and the floors give J >= -1 on S, so the weighted sum
    of J off S is -4 - d - sum_S deg(v) J_v <= -4 - d + |S| = bound.
    """
    S, rows = _exceptional_set(E)
    section = manin_section(E, L, P)
    d = _deg_omega(E, rows)
    bound = -4 - d + S.size
    if section.is_zero():
        return TangencyReport(
            section=section, section_divisor=None, exceptional=S, orders={},
            t_complex=[], contact_orders={}, d=d, bound=bound, zero_section=True,
        )
    div = _divisor(section, d, rows)
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
    return TangencyReport(
        section=section, section_divisor=div, exceptional=S, orders=orders,
        t_complex=t_complex, contact_orders=contact, d=d, bound=bound,
        zero_section=False,
    )
