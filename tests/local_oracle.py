"""Test-only oracle: v-minimal models and residue-field reduction.

This is the general mechanism the library used for local data before every
v-minimal invariant became ord_v + weight * k_v.  It builds the v-minimal
short model, reduces into the residue field k[t]/(pi) (or k at infinity),
and reads the Kodaira type and the identity-component test off them; the
component order is the search over scalar multiples the library used before
it read the order off the node contact.  The tests compare the closed forms
against it.  ``intersection_with_zero``, the contact of a section with the
zero section at one place, is the group-law oracle of the tangency scan.
"""

from maninmaps import KodairaType, Poly, WeierstrassModel, scalar_mul
from maninmaps.elliptic import twist_exponent
from maninmaps.errors import ConsistencyError, HypothesisError, InputError
from maninmaps.funcfield import FieldElement, ord_at
from maninmaps.pdescent import _short_with_point


def uniformizer(v):
    """pi(t), or 1/t at infinity."""
    K = v.field
    return K.one / K.gen if v.is_infinity else FieldElement(K, v.pi)


def minimal_model_at(E: WeierstrassModel, v):
    """The v-minimal short model and its twist exponent k.

    Points move by (x, y) -> (x pi^2k, y pi^3k).
    """
    E = E.depress()[0]
    k = twist_exponent(E, v)
    if k == 0:
        return E, 0
    pi = uniformizer(v)
    return WeierstrassModel.short(E.field, E.a4 * pi ** (4 * k), E.a6 * pi ** (6 * k)), k


class Residue:
    """Arithmetic in the residue field at a place: k[t]/(pi), or k at infinity.

    Residue values are a Poly of degree < deg pi at a finite place and a
    constant at infinity.
    """

    def __init__(self, place):
        self.place = place
        self.constants = place.field.constants

    def reduce(self, f):
        """Image of f (which must be regular at the place) in the residue field."""
        if ord_at(f, self.place) < 0:
            raise InputError("reduction of a function with a pole")
        if self.place.is_infinity:
            if f.num.degree < f.den.degree:
                return self.constants.zero
            return self.constants.from_int(f.num.leading * self.constants.inv(f.den.leading))
        pi = self.place.pi
        return f.num % pi * self.inv(f.den % pi) % pi

    def sub(self, a, b):
        if self.place.is_infinity:
            return self.constants.from_int(a - b)
        return a - b

    def mul(self, a, b):
        if self.place.is_infinity:
            return self.constants.from_int(a * b)
        return a * b % self.place.pi

    def inv(self, a):
        if self.place.is_infinity:
            return self.constants.inv(a)
        g, _, inv = self.place.pi.xgcd(a % self.place.pi)
        if not g.is_one():
            raise ZeroDivisionError("inverting zero in the residue field")
        return inv

    def is_zero(self, a):
        if self.place.is_infinity:
            return a == self.constants.zero
        return a.is_zero()

    def eq(self, a, b):
        return self.is_zero(self.sub(a, b))

    def from_int(self, n):
        c = self.constants.from_int(n)
        if self.place.is_infinity:
            return c
        return Poly.const(self.constants, c)


def kodaira_type(E: WeierstrassModel, v) -> KodairaType:
    """Fiber type from (ord c4, ord disc) on the v-minimal model."""
    Emin, _ = minimal_model_at(E, v)
    d = ord_at(Emin.discriminant(), v)
    if d == 0:
        return KodairaType("I", 0)
    a = ord_at(Emin.c4(), v)
    if a == 0:
        return KodairaType("I", d)
    if 3 * a < d:
        if d - 6 < 1:
            raise ConsistencyError("impossible valuations (%s, %s) at %s" % (a, d, v))
        return KodairaType("I*", d - 6)
    table = {2: "II", 3: "III", 4: "IV", 8: "IV*", 9: "III*", 10: "II*"}
    if d == 6:
        return KodairaType("I*", 0)
    if d in table:
        return KodairaType(table[d])
    raise ConsistencyError("no fiber type for ord(disc) = %s at %s" % (d, v))


def in_identity_component(E: WeierstrassModel, P, v) -> bool:
    """Whether P reduces to a smooth point of the v-minimal closed fiber,
    by moving P to the minimal model and comparing residues with the node
    (-3 b / 2 a, 0).  A good fiber (a unit discriminant) has no node."""
    if P.is_zero:
        return True
    E, P = _short_with_point(E, P)
    Emin, k = minimal_model_at(E, v)
    pi = uniformizer(v)
    x = P.x * pi ** (2 * k)
    y = P.y * pi ** (3 * k)
    if ord_at(x, v) < 0:
        return True
    if ord_at(Emin.discriminant(), v) == 0:
        return True
    R = Residue(v)
    abar = R.reduce(Emin.a4)
    bbar = R.reduce(Emin.a6)
    if R.is_zero(abar):
        raise HypothesisError("additive reduction at %s; component test refused" % v)
    xi = R.mul(R.mul(bbar, R.from_int(-3)), R.inv(R.mul(abar, R.from_int(2))))
    return not (R.eq(R.reduce(x), xi) and R.is_zero(R.reduce(y)))


def component_order(E: WeierstrassModel, P, v) -> int:
    """Order of P in the component group Z/m at an I_m place: the least
    divisor n of m with nP on the identity component."""
    ktype = kodaira_type(E, v)
    if not ktype.is_semistable:
        raise HypothesisError("component order computed only at semistable places")
    m = max(ktype.m, 1)
    for n in (d for d in range(1, m + 1) if m % d == 0):
        if in_identity_component(E, scalar_mul(n, P), v):
            return n
    raise ConsistencyError("component order at %s does not divide m = %d" % (v, m))


def intersection_with_zero(E: WeierstrassModel, P, v) -> int:
    """Local intersection number of the section P with the zero section at v,
    the group-law oracle for ``pdescent.tangency_scan``.

    Only defined here at places of good or multiplicative reduction; additive
    places are refused rather than guessed at.  On the v-minimal model a pole
    of x makes x^3 dominate the cubic, so a point on the curve has 2 oy = 3 ox.
    """
    if P.is_zero:
        raise InputError("the zero section meets itself everywhere")
    if not kodaira_type(E, v).is_semistable:
        raise HypothesisError(
            "intersection with the zero section needs semistable reduction at %s" % v
        )
    k = twist_exponent(E, v)
    ox = ord_at(P.x + E.depress()[1], v) + 2 * k
    if ox >= 0:
        return 0
    oy = ord_at(P.y, v) + 3 * k
    if 3 * ox != 2 * oy:
        raise ConsistencyError("pole orders %s, %s of x, y are inconsistent" % (ox, oy))
    return -ox // 2
