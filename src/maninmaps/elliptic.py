"""Weierstrass models over a rational function field.

Models are monic cubics y^2 = x^3 + c2 x^2 + c1 x + c0 with coefficients in
K = k(t), char k = 0 or > 3.  The short form (c2 = 0) is required by the
characteristic-p machinery; ``depress`` converts, shifting points along.

Local data (twist exponents, Kodaira types) is read without building a
second model: a quantity of weight w on the v-minimal model has order
ord_v + w k_v, where k_v is the twist exponent.  ``_fiber`` alone turns the
orders of a4, a6 and the discriminant into k_v and the fiber type (Tate,
away from residue characteristic 2 and 3), so it alone decides badness;
readers of many places take those orders, and any others they need, from
one divisor-kernel pass, ``_fibers``, and readers of one place from
``ord_at``.  Contacts of a section with the zero section are the business
of ``pdescent.tangency_scan``.
"""

from __future__ import annotations

from .errors import ConsistencyError, HypothesisError, InputError
from .funcfield import (
    INF,
    FieldElement,
    FunctionField,
    Place,
    RatX,
    XPoly,
    _local_orders,
    eval_ast,
    ord_at,
    parse_ast,
)
from .polynomials import _power


class WeierstrassModel:
    """y^2 = x^3 + c2 x^2 + c1 x + c0 over a function field."""

    __slots__ = ("field", "c2", "c1", "c0", "_disc", "_depressed")

    def __init__(self, field: FunctionField, c2, c1, c0):
        if field.char in (2, 3):
            raise InputError("characteristic 2 and 3 are not supported")
        self.field = field
        self.c2 = c2
        self.c1 = c1
        self.c0 = c0
        self._disc = None
        self._depressed = None
        if self.discriminant().is_zero():
            raise HypothesisError("singular model: the discriminant vanishes")

    @classmethod
    def short(cls, field, a4, a6) -> WeierstrassModel:
        return cls(field, field.zero, a4, a6)

    @classmethod
    def from_cubic(cls, cubic: XPoly) -> WeierstrassModel:
        field = cubic.field
        if cubic.degree != 3 or cubic.leading != field.one:
            raise InputError("curve must be a monic cubic in x")
        return cls(field, cubic[2], cubic[1], cubic[0])

    @property
    def is_short(self) -> bool:
        return self.c2.is_zero()

    @property
    def a4(self):
        if not self.is_short:
            raise InputError("a4 is only defined for a short model")
        return self.c1

    @property
    def a6(self):
        if not self.is_short:
            raise InputError("a6 is only defined for a short model")
        return self.c0

    def cubic(self) -> XPoly:
        K = self.field
        return XPoly(K, (self.c0, self.c1, self.c2, K.one))

    def cubic_derivative(self) -> XPoly:
        K = self.field
        return XPoly(K, (self.c1, self.c2 * 2, K.from_int(3)))

    def discriminant(self) -> FieldElement:
        """16 times the discriminant of the cubic; -16(4 a4^3 + 27 a6^2) when short."""
        if self._disc is None:
            b, c, d = self.c2, self.c1, self.c0
            disc = (
                b * c * d * 18
                - b ** 3 * d * 4
                + b ** 2 * c ** 2
                - c ** 3 * 4
                - d ** 2 * 27
            )
            self._disc = disc * 16
        return self._disc

    def c4(self) -> FieldElement:
        return self.c2 ** 2 * 16 - self.c1 * 48

    def j_invariant(self) -> FieldElement:
        return self.c4() ** 3 / self.discriminant()

    def is_isotrivial(self) -> bool:
        return self.j_invariant().is_constant()

    def depress(self):
        """Short model via x -> x - c2/3; returns (model, shift) with x_new = x + shift.

        Built once per model and kept, like the discriminant.
        """
        if self.is_short:
            return self, self.field.zero
        if self._depressed is None:
            s = self.c2 / 3
            a4 = self.c1 - self.c2 ** 2 / 3
            a6 = self.c0 - self.c1 * self.c2 / 3 + self.c2 ** 3 * (self.field.from_fraction(2, 27))
            self._depressed = (WeierstrassModel.short(self.field, a4, a6), s)
        return self._depressed

    def rescale(self, c: FieldElement):
        """The isomorphic model with (c2, c1, c0) -> (c^2 c2, c^4 c1, c^6 c0)."""
        if c.is_zero():
            raise InputError("rescaling by zero")
        return WeierstrassModel(
            self.field, self.c2 * c ** 2, self.c1 * c ** 4, self.c0 * c ** 6
        )

    def pullback(self, phi) -> WeierstrassModel:
        """Base change along a cover of the line."""
        return WeierstrassModel(
            phi.source,
            phi.pullback(self.c2),
            phi.pullback(self.c1),
            phi.pullback(self.c0),
        )

    def __eq__(self, other):
        return (
            isinstance(other, WeierstrassModel)
            and self.field == other.field
            and self.c2 == other.c2
            and self.c1 == other.c1
            and self.c0 == other.c0
        )

    def __hash__(self):
        return hash((self.field, self.c2, self.c1, self.c0))

    def __str__(self):
        return "y^2 = %s" % self.cubic()

    def __repr__(self):
        return "WeierstrassModel(%s)" % self


class CurvePoint:
    """A point of E(K): the origin or an affine pair satisfying the model."""

    __slots__ = ("model", "x", "y")

    def __init__(self, model: WeierstrassModel, x, y, check: bool = True):
        self.model = model
        self.x = x
        self.y = y
        if check and x is not None:
            if y * y != model.cubic().evaluate(x):
                raise InputError("point not on curve")

    @classmethod
    def zero(cls, model) -> CurvePoint:
        return cls(model, None, None, check=False)

    @property
    def is_zero(self) -> bool:
        return self.x is None

    def __eq__(self, other):
        return (
            isinstance(other, CurvePoint)
            and self.model == other.model
            and self.x == other.x
            and self.y == other.y
        )

    def __hash__(self):
        return hash((self.model, self.x, self.y))

    def __neg__(self):
        if self.is_zero:
            return self
        return CurvePoint(self.model, self.x, -self.y, check=False)

    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return add(self, -other)

    def __rmul__(self, n: int):
        return scalar_mul(n, self)

    def __str__(self):
        if self.is_zero:
            return "O"
        return "(%s, %s)" % (self.x, self.y)

    def __repr__(self):
        return "CurvePoint%s" % self


def add(P: CurvePoint, Q: CurvePoint) -> CurvePoint:
    if P.model != Q.model:
        raise InputError("points on different models")
    if P.is_zero:
        return Q
    if Q.is_zero:
        return P
    E = P.model
    if P.x == Q.x:
        if P.y == -Q.y:
            return CurvePoint.zero(E)
        m = E.cubic_derivative().evaluate(P.x) / (P.y * 2)
    else:
        m = (Q.y - P.y) / (Q.x - P.x)
    x3 = m * m - E.c2 - P.x - Q.x
    y3 = m * (P.x - x3) - P.y
    return CurvePoint(E, x3, y3, check=False)


def scalar_mul(n: int, P: CurvePoint) -> CurvePoint:
    if n < 0:
        return scalar_mul(-n, -P)
    return _power(P, n, add) if n else CurvePoint.zero(P.model)


def _gauss_manin(E: WeierstrassModel) -> tuple:
    """(Delta, delta) = (4 a4^3 + 27 a6^2, 3 a6 a4' - 2 a4 a6') of the depressed
    model, ' = d/dt; Delta is the discriminant over -16.

    They give the Gauss-Manin connection of (dx/y, x dx/y) (``find_pf``) and
    j' for j = 6912 a4^3/Delta: j'/j = 3 a4'/a4 - Delta'/Delta
    = 27 a6 delta/(a4 Delta).  As a4 = 0 or a6 = 0 forces delta = 0, delta
    vanishes exactly when a4 a6 j' does (in characteristic 0: isotriviality),
    and the twisted differential a4 j'/(18 a6 j) is 3 delta/(2 Delta).
    """
    E = E.depress()[0]
    a4, a6 = E.a4, E.a6
    return E.discriminant() / -16, a6 * a4.derive() * 3 - a4 * a6.derive() * 2


# ---------------------------------------------------------------------------
# local theory


class KodairaType:
    """Fiber type; kind "I" and "I*" carry the index m."""

    __slots__ = ("kind", "m")

    _KINDS = ("I", "II", "III", "IV", "I*", "IV*", "III*", "II*")

    def __init__(self, kind: str, m: int = 0):
        if kind not in self._KINDS:
            raise InputError("unknown fiber type %r" % kind)
        if m and kind not in ("I", "I*"):
            raise InputError("only I and I* carry an index")
        self.kind = kind
        self.m = m

    @property
    def is_good(self) -> bool:
        return self.kind == "I" and self.m == 0

    @property
    def is_semistable(self) -> bool:
        return self.kind == "I"

    def symbol(self) -> str:
        if self.kind == "I":
            return "I%d" % self.m
        if self.kind == "I*":
            return "I%d*" % self.m
        return self.kind

    def __eq__(self, other):
        return (
            isinstance(other, KodairaType)
            and self.kind == other.kind
            and self.m == other.m
        )

    def __hash__(self):
        return hash((self.kind, self.m))

    def __str__(self):
        return self.symbol()

    def __repr__(self):
        return "KodairaType(%s)" % self


def _twist(o4, o6) -> int:
    """k_v from ord_v a4 and ord_v a6 (INF for a zero coefficient)."""
    if o4 is INF:
        return -(o6 // 6)
    if o6 is INF:
        return -(o4 // 4)
    return -min(o4 // 4, o6 // 6)


def twist_exponent(E: WeierstrassModel, v: Place) -> int:
    """The k with (a4 pi^4k, a6 pi^6k) regular of minimal valuation at v."""
    E = E.depress()[0]
    return _twist(ord_at(E.a4, v), ord_at(E.a6, v))


def _fiber(v: Place, o4, o6, od) -> tuple:
    """(k_v, fiber type) from ord_v of a4, a6 and Delta on a short model, by
    (ord c4, ord disc) on the v-minimal model: twisting by pi^k multiplies the
    discriminant by pi^12k and, as c4 = -48 a4, c4 by pi^4k.  Neither raise
    fires on a valid model: there a = ord a4 >= 0, b = ord a6 >= 0 and a < 4
    or b < 6, so 3a = 2b only at (a, b) = (2, 3), and otherwise
    d = ord(4 a4^3 + 27 a6^2) = min(3a, 2b).  So 3a < d forces (2, 3) and
    d > 6, and 0 < d <= 3a leaves 3a (a <= 3), 2b (b <= 5) or 6."""
    k = _twist(o4, o6)
    d = od + 12 * k
    if d == 0:
        return k, KodairaType("I", 0)
    a = o4 + 4 * k
    if a == 0:
        return k, KodairaType("I", d)
    if 3 * a < d:
        # j has a pole but the fiber is additive: a quadratic twist of I_(d-6)
        if d - 6 < 1:
            raise ConsistencyError("impossible valuations (%s, %s) at %s" % (a, d, v))
        return k, KodairaType("I*", d - 6)
    table = {2: "II", 3: "III", 4: "IV", 6: "I*", 8: "IV*", 9: "III*", 10: "II*"}
    if d in table:
        return k, KodairaType(table[d])
    raise ConsistencyError("no fiber type for ord(disc) = %s at %s" % (d, v))


def _fiber_at(E: WeierstrassModel, v: Place) -> tuple:
    """(k_v, fiber type) at one place, every order counted by ``ord_at``."""
    E = E.depress()[0]
    return _fiber(v, ord_at(E.a4, v), ord_at(E.a6, v), ord_at(E.discriminant(), v))


def _fibers(E: WeierstrassModel, *extra: FieldElement) -> list:
    """[(v, k_v, fiber type, [ord_v of a4, a6, Delta, *extra])], sorted, from
    one ``_local_orders`` call over their places (k_v = 0 and the fiber is I0
    elsewhere); ``_fiber`` cannot raise on a valid model."""
    E = E.depress()[0]
    orders = _local_orders(E.a4, E.a6, E.discriminant(), *extra)
    return sorted(((v, *_fiber(v, *o[:3]), o) for v, o in orders.items()), key=lambda f: f[0].sort_key())


def kodaira_type(E: WeierstrassModel, v: Place) -> KodairaType:
    """Fiber type at v, from the orders of a4, a6 and the discriminant."""
    return _fiber_at(E, v)[1]


def bad_places(E: WeierstrassModel) -> list:
    """[(Place, KodairaType)] over the places of bad reduction."""
    return [(v, ktype) for v, _, ktype, _ in _fibers(E) if not ktype.is_good]


def deg_omega(E: WeierstrassModel) -> int:
    """Degree of the sheaf of invariant differentials: sum deg(v) k_v, as
    Delta_min = Delta pi_v^(12 k_v) and div Delta has degree 0."""
    return _deg_omega(E, _fibers(E))


def _deg_omega(E: WeierstrassModel, rows: list) -> int:
    """``deg_omega`` over the places of ``_fibers(E, ...)`` rows, every one where
    k_v can be nonzero.  k_v is read by trial division, not off the rows, so
    the degree check of ``sections._divisor`` stays independent of the kernel."""
    return sum(v.degree * twist_exponent(E, v) for v, *_ in rows)


# ---------------------------------------------------------------------------
# functions on the curve


class CurveFunction:
    """An element rx(x) + y ry(x) of K(E)."""

    __slots__ = ("model", "rx", "ry")

    def __init__(self, model: WeierstrassModel, rx: RatX, ry: RatX = None):
        self.model = model
        self.rx = rx
        self.ry = ry if ry is not None else RatX(model.field, XPoly.zero(model.field))

    @classmethod
    def zero(cls, model):
        z = RatX(model.field, XPoly.zero(model.field))
        return cls(model, z, z)

    @classmethod
    def const(cls, model, c: FieldElement):
        return cls(model, RatX.const(c))

    @classmethod
    def x_coord(cls, model):
        return cls(model, RatX.from_xpoly(XPoly.x(model.field)))

    @classmethod
    def y_coord(cls, model):
        one = RatX.from_xpoly(XPoly.one(model.field))
        zero = RatX(model.field, XPoly.zero(model.field))
        return cls(model, zero, one)

    def is_zero(self):
        return self.rx.is_zero() and self.ry.is_zero()

    def __eq__(self, other):
        return (
            isinstance(other, CurveFunction)
            and self.model == other.model
            and self.rx == other.rx
            and self.ry == other.ry
        )

    def __add__(self, other):
        return CurveFunction(self.model, self.rx + other.rx, self.ry + other.ry)

    def __sub__(self, other):
        return CurveFunction(self.model, self.rx - other.rx, self.ry - other.ry)

    def __neg__(self):
        return CurveFunction(self.model, -self.rx, -self.ry)

    def __mul__(self, other):
        f = RatX.from_xpoly(self.model.cubic())
        rx = self.rx * other.rx + f * self.ry * other.ry
        ry = self.rx * other.ry + self.ry * other.rx
        return CurveFunction(self.model, rx, ry)

    def __truediv__(self, other):
        """Times the conjugate over the norm rx^2 - f ry^2, zero only at 0:
        else f = (rx/ry)^2, yet f is a squarefree cubic."""
        if other.is_zero():
            raise ZeroDivisionError("division by zero in K(E)")
        f = RatX.from_xpoly(self.model.cubic())
        norm = other.rx * other.rx - f * other.ry * other.ry
        if norm.is_zero():
            raise ConsistencyError("zero norm for the nonzero curve function %s" % other)
        conj = CurveFunction(self.model, other.rx, -other.ry)
        prod = self * conj
        inv_norm = norm._reciprocal()
        return CurveFunction(self.model, prod.rx * inv_norm, prod.ry * inv_norm)

    def __pow__(self, n: int):
        one = CurveFunction.const(self.model, self.model.field.one)
        if n < 0:
            return (one / self) ** (-n)
        return _power(self, n) if n else one

    def evaluate(self, P: CurvePoint) -> FieldElement:
        if P.is_zero:
            raise InputError("evaluation at the origin: use value_at_O")
        return self.rx.evaluate(P.x) + P.y * self.ry.evaluate(P.x)

    def map_coeffs(self, fn, model):
        """rx and ry with fn applied to every coefficient, as a function on model.

        fn must be an injective ring map K -> K~ that sends 1 to 1, as a
        cover's pullback is.  Applied coefficientwise it maps a Bezout
        identity s num + t den = 1 in K[x] to one in K~[x], and a monic den to
        a monic one of the same degree, so the images are canonical as they
        stand and take no gcd.
        """
        K = model.field

        def image(r):
            return RatX._trusted(K, r.num.map_coeffs(fn, K), r.den.map_coeffs(fn, K))

        return CurveFunction(model, image(self.rx), image(self.ry))

    def __str__(self):
        if self.ry.is_zero():
            return str(self.rx)
        if self.rx.is_zero():
            return "y*(%s)" % self.ry
        return "(%s) + y*(%s)" % (self.rx, self.ry)

    def __repr__(self):
        return "CurveFunction(%s)" % self


def parse_curve_function(text: str, model: WeierstrassModel) -> CurveFunction:
    """Parse an expression in the base variable, x and y to an element of K(E)."""
    ast = parse_ast(text)
    field = model.field
    atoms = {
        field.var: CurveFunction.const(model, field.gen),
        "x": CurveFunction.x_coord(model),
        "y": CurveFunction.y_coord(model),
    }
    return eval_ast(ast, atoms, lambda n: CurveFunction.const(model, field.from_int(n)))


# ---------------------------------------------------------------------------
# the value at the origin


def value_at_O(g: CurveFunction) -> FieldElement:
    """Value of g = rx(x) + y ry(x) at the origin; errors on a pole.

    At O, ord(x) = -2 and ord(y) = -3, so rx(x) has even order and y ry(x)
    odd order and the two never cancel.  y ry(x) has order
    -3 - 2 (deg ry.num - deg ry.den): a pole unless that degree difference is
    at most -2, and then it vanishes at O.  rx(x) has order
    -2 (deg rx.num - deg rx.den); when the degrees are equal its value is the
    leading coefficient of rx.num, the denominator being monic.
    """
    ry = g.ry
    if not ry.is_zero() and ry.num.degree - ry.den.degree >= -1:
        raise HypothesisError("the function has a pole at the origin")
    rx = g.rx
    d = rx.num.degree - rx.den.degree
    if rx.is_zero() or d < 0:
        return g.model.field.zero
    if d > 0:
        raise HypothesisError("the function has a pole at the origin")
    return rx.num.leading
