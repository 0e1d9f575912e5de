"""Characteristic-p descent machinery.

Over K = F_p(t), p > 3, a short model y^2 = f(x) carries: the coefficient
split f^((p-1)/2) = x^p M(x) + A x^(p-1) + (x-degree < p-1), read off a
power recurrence, whose x^(p-1) coefficient A is the Hasse invariant; a
twisted differential measuring the failure of Kodaira-Spencer to be an
isomorphism, 3 delta/(2 Delta) in the Gauss-Manin pair of
``elliptic._gauss_manin``; an explicit additive map E(K)/pE(K) -> K given
by a rational formula in the coordinates, their t-derivatives and that
pair; and the section it induces, whose pole divisor is controlled at
semistable places.  Tangencies of multiples of a point with the zero
section are scanned through division-polynomial values, which keeps the
whole computation inside fast F_p[t] arithmetic.
"""

from __future__ import annotations

from math import gcd

from .elliptic import (
    CurvePoint,
    KodairaType,
    WeierstrassModel,
    _deg_omega,
    _fiber_at,
    _fibers,
    _gauss_manin,
    bad_places,
    deg_omega,
)
from .errors import ConsistencyError, HypothesisError, InputError
from .funcfield import (
    INF,
    FieldElement,
    Place,
    XPoly,
    ord_at,
    places_of_poly,
)
from .polynomials import Poly
from .sections import DivisorReport, GradedSection, _divisor, divisor


def _require_charp(E: WeierstrassModel) -> int:
    p = E.field.char
    if p == 0:
        raise InputError("this operation needs positive characteristic")
    return p


def _require_n_max(n_max: int) -> None:
    # a scan over no multiples would pass every check vacuously
    if n_max < 1:
        raise InputError("n_max must be at least 1, got %d" % n_max)


def _short_with_point(E: WeierstrassModel, P: CurvePoint = None):
    if E.is_short:
        return E, P
    Es, shift = E.depress()
    if P is None or P.is_zero:
        return Es, CurvePoint.zero(Es) if P is not None else None
    return Es, CurvePoint(Es, P.x + shift, P.y, check=False)


class HasseData:
    """A and M of the split f^((p-1)/2) = x^p M(x) + A x^(p-1) + (x-degree < p-1)."""

    __slots__ = ("A", "M", "model")

    def __init__(self, A: FieldElement, M: XPoly, model: WeierstrassModel):
        self.A = A
        self.M = M
        self.model = model

    def __str__(self):
        return "A = %s, M = %s" % (self.A, self.M)

    def section(self) -> GradedSection:
        """The Hasse invariant as a weight p-1 section."""
        return GradedSection(self.A, self.model.field.char - 1, 0, self.model)


def hasse_data(E: WeierstrassModel) -> HasseData:
    """A and M by J.C.P. Miller's power recurrence (Knuth, TAOCP vol. 2, 4.7).

    With e = (p-1)/2, the reversed cubic f~(X) = X^3 f(1/X) = 1 + a4 X^2 + a6 X^3
    and g = f~^e, the x^(3e-k) coefficient of f^e is g_k.  The X^(k-1)
    coefficient of f~ g' = e f~' g is k g_k = sum_{i=2,3} ((e+1) i - k) f~_i g_{k-i},
    with g_0 = 1.  So A = g_e and M_j = g_{e-1-j} (deg M = (p-3)/2), and
    as k <= e < p no step divides by p.
    """
    p = _require_charp(E)
    E, _ = _short_with_point(E)
    K, e = E.field, (p - 1) // 2
    g = [K.one]
    for k in range(1, e + 1):
        terms = (f * g[k - i] * ((e + 1) * i - k) for i, f in ((2, E.a4), (3, E.a6)) if i <= k)
        g.append(sum(terms, K.zero) / k)
    return HasseData(g[e], XPoly(K, g[e - 1 :: -1]), E)


def kodaira_spencer_section(E: WeierstrassModel) -> GradedSection:
    """The twisted differential a4/(18 a6) dj/j = 3 delta/(2 Delta) of weight -2.

    It degenerates exactly when delta = 3 a6 a4' - 2 a4 a6' vanishes, that is
    when a4 = 0 (j = 0), a6 = 0 (j = 1728) or j is a p-th power (in
    particular for isotrivial curves); those inputs are refused.
    """
    _require_charp(E)
    E, _ = _short_with_point(E)
    disc, delta = _gauss_manin(E)
    if delta.is_zero():
        raise HypothesisError(
            "the twisted differential vanishes (delta = 3 a6 a4' - 2 a4 a6' = 0: "
            "j is 0, 1728 or a p-th power); descent is inapplicable"
        )
    return GradedSection(delta * 3 / (disc * 2), -2, 1, E)


def p_descent_value(E: WeierstrassModel, P: CurvePoint) -> FieldElement:
    """The additive map E(K)/pE(K) -> K in coordinates.

    Torsion killed by doubling (y(P) = 0 identically) maps to 0; the generic
    value is y M(x) + z^p - A z for the explicit argument z built from
    dx/2y, dDelta/Delta and the twisted differential.
    """
    _require_charp(E)
    E, P = _short_with_point(E, P)
    if P.is_zero or P.y.is_zero():
        return E.field.zero  # 2-torsion lies in pE(K) since p is odd
    kodaira_spencer_section(E)  # refuses the curves where z is undefined
    return _p_descent_value(E, P, hasse_data(E))


def _p_descent_value(E: WeierstrassModel, P: CurvePoint, data: HasseData) -> FieldElement:
    """p_descent_value on a short model with delta != 0, at P with y(P) != 0.

    With lambda = 3 delta/(2 Delta), the argument
    z = x'/(2 y lambda) - (12 x^2 + (Delta'/(Delta lambda)) x + 8 a4)/(12 y)
    is (6 x' Delta - x Delta' - 6 delta (3 x^2 + 2 a4))/(18 y delta).
    """
    p = E.field.char
    x, y = P.x, P.y
    disc, delta = _gauss_manin(E)
    num = x.derive() * disc * 6 - x * disc.derive() - delta * (x * x * 3 + E.a4 * 2) * 6
    z = num / (y * delta * 18)
    return y * data.M.evaluate(x) + z ** p - data.A * z


def p_descent_section(E: WeierstrassModel, P: CurvePoint) -> GradedSection:
    """The value of the descent map as a differential of weight p-2."""
    p = _require_charp(E)
    E, P = _short_with_point(E, P)
    lam = kodaira_spencer_section(E).value
    return GradedSection(p_descent_value(E, P) * lam, p - 2, 1, E)


# ---------------------------------------------------------------------------
# the order table for the twisted differential


def _table_expectation(ktype: KodairaType, p: int):
    """(description, predicate) for the order of the weight -2 differential."""
    if ktype.kind == "I":
        if ktype.m == 0 or ktype.m % p == 0:
            return ">= 0", lambda ell: ell >= 0
        return "== -1", lambda ell: ell == -1
    if ktype.kind in ("II", "III", "IV"):
        return ">= -1", lambda ell: ell >= -1
    if ktype.kind == "I*":
        if ktype.m % p == 0:
            return ">= -1", lambda ell: ell >= -1
        return "== -2", lambda ell: ell == -2
    return ">= -2", lambda ell: ell >= -2


class TableRow:
    __slots__ = ("place", "ktype", "ell", "expected", "ok")

    def __init__(self, place, ktype, ell, expected, ok):
        self.place = place
        self.ktype = ktype
        self.ell = ell
        self.expected = expected
        self.ok = ok


def reduction_table_report(E: WeierstrassModel) -> list:
    """Check ord of the twisted differential against the fiber-type table.

    Returns a list of TableRow covering every place where either the
    differential or the reduction is nontrivial; all other places have
    good reduction and order 0, which the table allows.
    """
    p = _require_charp(E)
    fibers = _fibers(E)
    lam_div = _divisor(kodaira_spencer_section(E), _deg_omega(E, fibers), fibers)
    types = {v: ktype for v, _, ktype, _ in fibers}
    rows = []
    for v in sorted(set(lam_div.support()) | set(types), key=lambda q: q.sort_key()):
        ktype = types.get(v, KodairaType("I", 0))  # I0 off the curve places
        ell = lam_div.ord(v)
        expected, pred = _table_expectation(ktype, p)
        rows.append(TableRow(v, ktype, ell, expected, pred(ell)))
    return rows


# ---------------------------------------------------------------------------
# component groups and the descent divisor


def _node_contact(E: WeierstrassModel, P: CurvePoint, v: Place, k: int, ktype):
    """ord_v(x(P) - x_node) on the v-minimal model if P reduces to the node of
    an I_m fiber (m >= 1), else 0 (an I0 fiber is smooth); k = k_v, and v is
    semistable (``component_order``, the one caller, refuses the rest).

    On the v-minimal model x, y, a4, a6 pick up pi^(2k), pi^(3k), pi^(4k),
    pi^(6k), so every test below is an order ord_v + weight k.  A pole of x
    counts as smooth (the point reduces to the origin); otherwise the node is
    (x_node, 0) with x_node = -3 b / 2 a on the cubic x^3 + a x + b, a a unit,
    and 2 a x + 3 b = 2 a (x - x_node).  Where x reduces to x_node, so does
    y to 0, as x_node is a double root of the reduced cubic.
    """
    if P.is_zero or ktype.is_good:
        return 0
    E, P = _short_with_point(E, P)
    if ord_at(P.x, v) + 2 * k < 0:
        return 0
    return max(0, ord_at(E.a4 * P.x * 2 + E.a6 * 3, v) + 6 * k)


def component_order(E: WeierstrassModel, P: CurvePoint, v: Place) -> int:
    """Order of P in the component group Z/m of the fiber at an I_m place.

    Over the completion the curve is a Tate curve K_v^*/q^Z, ord q = m, and P
    the class of u with 0 <= ord u = i < m, on component i.  On the Tate model
    x = u/(1 - u)^2 + (q/u)/(1 - q/u)^2 + (order >= m), with node x = 0: for
    0 < i < m, ord x = min(i, m - i), or at least m/2 when i = m/2.  Its
    short form Y^2 = X^3 - (c4/48) X - c6/864 has X = x + 1/12, and the node
    lift -3 b / 2 a = -c6 / (12 c4) = 1/12 - 62 q + ... differs from the image
    of x = 0 by a term of order >= m; the v-minimal short model differs from
    it by a unit scaling.  So d = ``_node_contact`` takes the same value, and
    as i and m - i have the same order m / gcd(m, i), the order is
    m / gcd(m, min(d, m // 2)), which is 1 at d = 0.
    """
    k, ktype = _fiber_at(E, v)
    if not ktype.is_semistable:
        raise HypothesisError("component order computed only at semistable places")
    m = max(ktype.m, 1)
    return m // gcd(m, min(_node_contact(E, P, v, k, ktype), m // 2))


class DescentDivisor:
    """Zeros/poles of the twisted differential and the p-divisible part."""

    __slots__ = ("zeros", "poles", "p_part", "total")

    def __init__(self, zeros, poles, p_part, total):
        self.zeros = zeros
        self.poles = poles
        self.p_part = p_part
        self.total = total


def descent_divisor(E: WeierstrassModel, P: CurvePoint) -> DescentDivisor:
    """D = (p-1) D_0 + p D' for a semistable curve.

    D_0 / poles come from the divisor of the twisted differential; D' is
    supported on I_m places with p | m where the order of P in the
    component group is divisible by p.
    """
    _require_charp(E)
    E, P = _short_with_point(E, P)
    rows = _fibers(E)
    if any(not kt.is_semistable for _, _, kt, _ in rows):
        raise HypothesisError("descent divisor needs everywhere semistable reduction")
    lam_div = _divisor(kodaira_spencer_section(E), _deg_omega(E, rows), rows)
    return _descent_divisor(E, P, [(v, kt) for v, _, kt, _ in rows], lam_div)


def _descent_divisor(E: WeierstrassModel, P: CurvePoint, types,
                     lam_div: DivisorReport) -> DescentDivisor:
    """descent_divisor on a short model, given [(v, fiber type)] over (at
    least) its bad places and the divisor of the twisted differential."""
    p = E.field.char
    zeros = DivisorReport([(v, o) for v, o in lam_div.entries if o > 0])
    poles = DivisorReport([(v, -o) for v, o in lam_div.entries if o < 0])
    p_entries = []
    for v, kt in types:
        if kt.m >= 1 and kt.m % p == 0 and component_order(E, P, v) % p == 0:
            p_entries.append((v, 1))
    p_part = DivisorReport(p_entries)
    total = zeros.scale(p - 1) + p_part.scale(p)
    return DescentDivisor(zeros, poles, p_part, total)


# ---------------------------------------------------------------------------
# division-polynomial values and the tangency scan


def _ward_start(a: Poly, b: Poly, x0: Poly, y0: Poly):
    """([f_0, ..., f_4], G) of ``_division_values`` at (x0, y0) on y^2 = x^3 + a x + b."""
    x2, a2, one = x0 * x0, a * a, Poly.one(a.field)
    x3 = x2 * x0
    psi3 = (x2 * x2).scale(3) + (a * x2).scale(6) + (b * x0).scale(12) - a2
    psi4_core = (x3 * x3 + (a * x2 * x2 - a2 * x2).scale(5) + (b * x3).scale(20)
                 - (a * b * x0).scale(4) - (b * b).scale(8) - a2 * a)
    return [Poly.zero(a.field), one, one, psi3, psi4_core.scale(2)], (y0 ** 4).scale(16)


def _ward(f: list, G, n_top: int, reduce=None, brackets=None) -> list:
    """Extend f_0..f_k (k >= 4) to f_n_top by ``_division_values``'s recurrence
    in any ring with * and -, passing each new value through reduce; each f_k^2
    and f_k^3 is formed once.  A dict ``brackets`` receives the bracket K_m
    of each new even n = 2m, f_n = f_m K_m."""
    powers = {}

    def pw(k, e):  # f_k^e, e in (2, 3)
        if (k, e) not in powers:
            powers[k, e] = f[k] * (f[k] if e == 2 else pw(k, 2))
        return powers[k, e]

    for n in range(len(f), n_top + 1):
        m = n // 2
        if n % 2 == 0:
            bracket = f[m + 2] * pw(m - 1, 2) - f[m - 2] * pw(m + 1, 2)
            if brackets is not None:
                brackets[n] = bracket
            val = f[m] * bracket
        elif m % 2 == 0:
            val = G * f[m + 2] * pw(m, 3) - f[m - 1] * pw(m + 1, 3)
        else:
            val = f[m + 2] * pw(m, 3) - G * f[m - 1] * pw(m + 1, 3)
        f.append(val if reduce is None else reduce(val))
    return f


def _division_values(a: Poly, b: Poly, x0: Poly, y0: Poly, n_top: int, brackets=None):
    """Values psi_n(P) in k[t] for 0 <= n <= n_top on y^2 = x^3 + a x + b.

    psi_n = f_n for odd n and 2 y0 f_n for even n, with f_0..f_4 = 0, 1, 1,
    psi_3, psi_4/(2 y0) and G = 16 y0^4, makes Ward's identities (Ward 1948;
    Silverman, AEC, Ex. 3.7) division-free: f_2m = f_m (f_m+2 f_m-1^2 -
    f_m-2 f_m+1^2), and f_2m+1 = G f_m+2 f_m^3 - f_m-1 f_m+1^3 for even m,
    f_m+2 f_m^3 - G f_m-1 f_m+1^3 for odd m (``brackets`` goes to ``_ward``)."""
    f, two_y = _ward(*_ward_start(a, b, x0, y0), n_top, brackets=brackets), y0.scale(2)
    return [q if n % 2 else two_y * q for n, q in enumerate(f)]


def _poly_order(q: Poly, v: Place):
    """ord_v of a polynomial in t: its multiplicity, -degree at infinity, +inf for 0."""
    if q.is_zero():
        return INF
    return -q.degree if v.is_infinity else q.multiplicity_of(v.pi)


class TangencyScan:
    """Result of scanning multiples prime to p for contact with the zero section."""

    __slots__ = ("iotas", "n_max", "torsion_order")

    def __init__(self, iotas, n_max, torsion_order):
        self.iotas = iotas  # {Place: max local intersection over scanned n}
        self.n_max = n_max
        self.torsion_order = torsion_order


def tangency_scan(E: WeierstrassModel, P: CurvePoint, n_max: int,
                  watch_places=()) -> TangencyScan:
    """Local intersections (nP . O)_v maximized over n <= n_max prime to p.

    Division-polynomial values over a denominator-cleared model give every
    valuation, so multiples are never formed.  Contacts of order >= 2 at
    places outside the watched and model-special set come from repeated
    factors of psi_n; order-1 contacts are reported only at watched/special
    places, which is all the bound bookkeeping needs.

    The maximum is the first contact at each place.  On the v-minimal model
    {n : nP in E_1(K_v)} = r_v Z (r_v the rank of apparition): E_1(K_v) is
    the group E^(m_v) of the formal group (Silverman, AEC, Prop. VII.2.2),
    and [k] for k prime to p is an automorphism of it (AEC, Prop. IV.2.3).
    So for scanned n, (nP . O)_v = v(T(nP)) with T = -x/y is 0 unless
    r_v | n, and then it equals (r_v P . O)_v.

    On the v-minimal model x(nP) = pi_v^(2 k_v) (x0 - psi_n+1 psi_n-1 / psi_n^2)
    (Silverman, AEC, Ex. 3.7).  At n = 1 this is ord x0 + 2 k_v, and a place
    where it is negative closes there; at every place left open x(P) is
    v-integral, so x(nP) has a pole exactly where 2 k_v + ord psi_n+1 +
    ord psi_n-1 - 2 ord psi_n is negative, and then that is its order.  The
    cleared model is integral, so k_v <= 0 at finite places and a pole needs
    ord_v(psi_n) > k_v: always at k_v < 0; at k_v = 0 when pi_v divides f_n,
    or 16 y0^4 with n even (``_division_values``' f run mod pi_v).  Only there,
    and at infinity, are valuations taken.  Two checks guard kernels: the
    twist c^w clears a weight-w denominator that ``factor`` splits fully,
    and a pole of x(nP) has even order (2 ord y = 3 ord x).

    Off the special set, the squarefree test at even n = 2m sees only the
    factor of psi_n that can hold places of rank n: y0 at n = 2, f_4 at 4 and
    Ward's bracket K_m beyond, as psi_n = psi_m K_m or psi_m 2 y0 K_m.  A place
    of rank n >= 4 divides neither psi_m nor y0 (whose places have rank 2), so
    there ord K_m = ord psi_n; one of rank d < n was recorded at d, equally.
    """
    p = _require_charp(E)
    _require_n_max(n_max)
    E, P = _short_with_point(E, P)
    if P.is_zero:
        raise InputError("the zero section cannot be scanned")
    K = E.field
    # clear denominators: twist by the smallest c making everything polynomial
    need = {}
    for den, w in ((E.a4.den, 4), (E.a6.den, 6), (P.x.den, 2), (P.y.den, 3)):
        for pi, e in places_of_poly(den, K):
            need[pi] = max(need.get(pi, 0), -(-e // w))
    cpoly = Poly.one(K.constants)
    for pi, e in need.items():
        cpoly = cpoly * pi.pi ** e
    c = FieldElement(K, cpoly)
    a4 = E.a4 * c ** 4
    a6 = E.a6 * c ** 6
    x0 = P.x * c ** 2
    y0 = P.y * c ** 3
    for name, val in (("a4", a4), ("a6", a6), ("x", x0), ("y", y0)):
        if not val.den.is_one():
            raise ConsistencyError(
                "denominator clearing failed: %s keeps the denominator %s"
                % (name, val.den.to_str(K.var))
            )
    Escan = WeierstrassModel.short(K, a4, a6)

    twists = {v: k for v, k, _, _ in _fibers(Escan)}  # k_v = 0 off these places
    special = set(twists).union(watch_places, need)

    start, G = _ward_start(a4.num, a6.num, x0.num, y0.num)
    new_part = {2: y0.num, 4: start[4]}  # the factor of psi_n tested at even n
    psi = _division_values(a4.num, a6.num, x0.num, y0.num, n_max + 1, new_part)
    torsion_order = None
    iotas = {}
    open_places = {v: twists.get(v, 0) for v in special}
    residues = {v: ([q % v.pi for q in start], G % v.pi) for v, kv in open_places.items()
                if kv == 0 and not v.is_infinity}
    for n in range(1, n_max + 1):
        if n % p == 0:
            continue
        psi_n = psi[n]
        if psi_n.is_zero():
            torsion_order = n if torsion_order is None else torsion_order
            continue
        for v, kv in list(open_places.items()):
            if v in residues:
                f, Gv = residues[v]
                _ward(f, Gv, n, lambda q: q % v.pi)
                if not f[n].is_zero() and (n % 2 or not Gv.is_zero()):
                    continue  # psi_n is a unit at v, so x(nP) has no pole there
            if n == 1:  # ord_v x(P) on the v-minimal model
                ox = _poly_order(x0.num, v) + 2 * kv
            else:  # x(P) is v-integral at an open place, so this is ord_v x(nP)
                ox = (2 * kv + _poly_order(psi[n + 1], v) + _poly_order(psi[n - 1], v)
                      - 2 * _poly_order(psi_n, v))
            if ox < 0:
                if ox % 2:
                    raise ConsistencyError("odd pole order of x(%dP) at %s" % (n, v))
                iotas[v] = -ox // 2
                del open_places[v]
        if n >= 2:
            part = psi_n if n % 2 else new_part.pop(n)
            w = part.gcd(part.derivative())
            if not w.is_constant():
                for q, _ in places_of_poly(w, K):
                    if q not in special and q not in iotas:  # its first value stands
                        iotas[q] = psi_n.multiplicity_of(q.pi)
    return TangencyScan(iotas, n_max, torsion_order)


# ---------------------------------------------------------------------------
# the bound report


class Check:
    __slots__ = ("name", "ok", "detail")

    def __init__(self, name, ok, detail=""):
        self.name = name
        self.ok = bool(ok)
        self.detail = detail


class DescentBoundReport:
    __slots__ = (
        "genus", "d", "delta", "p", "bound", "n_max",
        "iotas", "t_ordinary", "t_special", "descent", "checks", "mu_zero",
    )

    def __init__(self, **kw):
        for name in self.__slots__:
            setattr(self, name, kw[name])

    @property
    def ok(self):
        return all(c.ok for c in self.checks)


def descent_bound_report(E: WeierstrassModel, P: CurvePoint, n_max: int = 30) -> DescentBoundReport:
    """Everything the semistable tangency bound asserts, checked on one curve.

    Requires semistable reduction with component groups of order prime to p.
    The scanned set is an under-approximation of all multiples prime to p;
    contacts at orders beyond n_max are not claimed absent.
    """
    p = _require_charp(E)
    _require_n_max(n_max)
    E, P = _short_with_point(E, P)
    bad = bad_places(E)
    for v, kt in bad:
        if not kt.is_semistable:
            raise HypothesisError(
                "the tangency bound needs semistable reduction; %s at %s" % (kt, v)
            )
        if kt.m % p == 0 and kt.m > 0:
            raise HypothesisError(
                "p divides the component group order %d at %s" % (kt.m, v)
            )
    lam = kodaira_spencer_section(E)
    lam_div = divisor(lam)
    dd = _descent_divisor(E, P, bad, lam_div)
    D = dd.total
    d = deg_omega(E)
    delta = sum(v.degree for v, _ in bad)
    bound = p * (2 * 0 - 2 - d) + (p - 1) * delta

    data = hasse_data(E)
    if P.is_zero or P.y.is_zero():
        mu = E.field.zero
    else:
        mu = _p_descent_value(E, P, data)
    checks = []
    mu_zero = mu.is_zero()
    nu_div = None
    if not mu_zero:
        nu = GradedSection(mu * lam.value, p - 2, 1, E)
        nu_div = divisor(nu)
        places = set(nu_div.support()) | set(D.support())
        ok = all(nu_div.ord(v) >= -D.ord(v) for v in places)
        checks.append(Check(
            "descent section lies in the D-twisted bundle", ok,
            "ord(nu) >= -ord(D) at %d places" % len(places),
        ))

    a_div = divisor(data.section())
    watch = set(lam_div.support()) | set(a_div.support())
    scan = tangency_scan(E, P, n_max, watch_places=watch)
    tangent = {v: i for v, i in scan.iotas.items() if i >= 2}
    t_s = [v for v in tangent if lam_div.ord(v) > 0]
    t_o = [v for v in tangent if v not in t_s]
    w_o = sum(v.degree for v in t_o)
    w_s = sum(v.degree for v in t_s)
    checks.append(Check(
        "tangency count respects the bound",
        w_o + p * w_s <= bound,
        "|T_o| + p |T_s| = %d + %d*%d <= %d" % (w_o, p, w_s, bound),
    ))
    if not mu_zero:
        for v, iota in sorted(scan.iotas.items(), key=lambda vi: vi[0].sort_key()):
            lhs = nu_div.ord(v)
            rhs = min(
                p * (iota - 1) - D.ord(v),
                iota - 1 + a_div.ord(v),
            )
            checks.append(Check(
                "refined local bound at %s" % v,
                lhs >= rhs,
                "ord(nu) = %d >= min(p(iota-1) - ord D, iota - 1 + ord A) = %d (iota=%d)"
                % (lhs, rhs, iota),
            ))
    return DescentBoundReport(
        genus=0, d=d, delta=delta, p=p, bound=bound, n_max=n_max,
        iotas=scan.iotas, t_ordinary=sorted(t_o, key=lambda v: v.sort_key()),
        t_special=sorted(t_s, key=lambda v: v.sort_key()),
        descent=dd, checks=checks, mu_zero=mu_zero,
    )
