"""Test-only oracle: truncated Laurent series of curve functions at the origin.

This is the general mechanism the library used to compute the value of a
curve function at O before ``value_at_O`` became a closed form.  In the
local parameter z at the origin, x = z^-2 and y = z^-3 (1 + ...), so a
function g = rx(x) + y ry(x) is expanded term by term and its value at O
is read off the series.  The tests compare the closed form against it.
"""

from maninmaps import CurveFunction, FieldElement, RatX, XPoly
from maninmaps.errors import ConsistencyError, HypothesisError, InputError


class LaurentSeries:
    """Truncated Laurent series over K: sum coeffs[i] z^(shift+i), exact below prec."""

    __slots__ = ("field", "shift", "coeffs", "prec")

    def __init__(self, field, shift: int, coeffs, prec: int):
        cs = list(coeffs)
        # strip leading zeros, clamp to the precision window
        while cs and cs[0].is_zero():
            cs.pop(0)
            shift += 1
        if shift + len(cs) > prec:
            cs = cs[: max(0, prec - shift)]
        while cs and cs[-1].is_zero():
            cs.pop()
        if not cs:
            shift = prec
        self.field = field
        self.shift = shift
        self.coeffs = tuple(cs)
        self.prec = prec

    @classmethod
    def zero(cls, field, prec):
        return cls(field, prec, (), prec)

    @classmethod
    def monomial(cls, field, c, n: int, prec: int):
        return cls(field, n, (c,), prec)

    def is_zero_to_prec(self):
        return not self.coeffs

    def valuation(self):
        if not self.coeffs:
            return None
        return self.shift

    def coefficient(self, n: int) -> FieldElement:
        if n >= self.prec:
            raise InputError("coefficient %d beyond precision %d" % (n, self.prec))
        i = n - self.shift
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return self.field.zero

    def __add__(self, other):
        prec = min(self.prec, other.prec)
        if not self.coeffs:
            return LaurentSeries(self.field, other.shift, other.coeffs, prec)
        if not other.coeffs:
            return LaurentSeries(self.field, self.shift, self.coeffs, prec)
        lo = min(self.shift, other.shift)
        hi = min(prec, max(self.shift + len(self.coeffs), other.shift + len(other.coeffs)))
        out = []
        for n in range(lo, hi):
            a = self.coeffs[n - self.shift] if 0 <= n - self.shift < len(self.coeffs) else self.field.zero
            b = other.coeffs[n - other.shift] if 0 <= n - other.shift < len(other.coeffs) else self.field.zero
            out.append(a + b)
        return LaurentSeries(self.field, lo, out, prec)

    def __neg__(self):
        return LaurentSeries(self.field, self.shift, [-c for c in self.coeffs], self.prec)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not self.coeffs or not other.coeffs:
            prec = min(
                self.prec + other.shift if other.coeffs else self.prec + other.prec,
                other.prec + self.shift if self.coeffs else other.prec + self.prec,
            )
            return LaurentSeries.zero(self.field, prec)
        prec = min(self.prec + other.shift, other.prec + self.shift)
        n = min(len(self.coeffs) + len(other.coeffs) - 1, prec - self.shift - other.shift)
        out = [self.field.zero] * n
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j, b in enumerate(other.coeffs):
                if i + j >= n:
                    break
                out[i + j] = out[i + j] + a * b
        return LaurentSeries(self.field, self.shift + other.shift, out, prec)

    def inverse(self):
        if not self.coeffs:
            raise ZeroDivisionError("inverting a series that vanishes to precision")
        a = self.coeffs
        rel = min(len(a), self.prec - self.shift)
        inv0 = self.field.one / a[0]
        out = [inv0]
        for k in range(1, rel):
            s = self.field.zero
            for i in range(1, k + 1):
                ai = a[i] if i < len(a) else self.field.zero
                s = s + ai * out[k - i]
            out.append(-s * inv0)
        return LaurentSeries(self.field, -self.shift, out, self.prec - 2 * self.shift)

    def __truediv__(self, other):
        return self * other.inverse()

    def sqrt_one(self):
        """Square root of a series 1 + O(z) with constant term one."""
        if self.shift != 0 or not self.coeffs or self.coeffs[0] != self.field.one:
            raise InputError("sqrt needs constant term 1")
        half = self.field.one / self.field.from_int(2)
        rel = self.prec
        out = [self.field.one]
        for k in range(1, rel):
            uk = self.coeffs[k] if k < len(self.coeffs) else self.field.zero
            s = self.field.zero
            for i in range(1, k):
                s = s + out[i] * out[k - i]
            out.append((uk - s) * half)
        return LaurentSeries(self.field, 0, out, self.prec)

    def __str__(self):
        terms = []
        for i, c in enumerate(self.coeffs):
            if c.is_zero():
                continue
            n = self.shift + i
            if n == 0:
                terms.append("(%s)" % c)
            else:
                terms.append("(%s)*z^%d" % (c, n))
        body = " + ".join(terms) if terms else "0"
        return "%s + O(z^%d)" % (body, self.prec)


def _xpoly_series(p: XPoly, xs: LaurentSeries, prec: int) -> LaurentSeries:
    field = p.field
    acc = LaurentSeries.zero(field, prec)
    for c in reversed(p.coeffs):
        acc = acc * xs + LaurentSeries.monomial(field, c, 0, prec)
    return acc


def _ratx_series(r: RatX, xs: LaurentSeries, prec: int) -> LaurentSeries:
    num = _xpoly_series(r.num, xs, prec)
    den = _xpoly_series(r.den, xs, prec)
    return num / den


def expand_at_infinity(g: CurveFunction, order: int) -> LaurentSeries:
    """Series of g in the local parameter z at the origin: x = z^-2, y = z^-3 (1 + ...).

    The square root branch is the one with constant term 1, so y ~ +z^-3.
    Coefficients are exact for exponents below ``order``.
    """
    E = g.model
    field = E.field
    degs = (
        g.rx.num.degree + g.rx.den.degree + g.ry.num.degree + g.ry.den.degree
    )
    work = order + 4 * max(degs, 0) + 14
    xs = LaurentSeries.monomial(field, field.one, -2, work)
    u = LaurentSeries(
        field,
        0,
        (field.one, field.zero, E.c2, field.zero, E.c1, field.zero, E.c0),
        work,
    )
    ys = LaurentSeries.monomial(field, field.one, -3, work) * u.sqrt_one()
    out = _ratx_series(g.rx, xs, work)
    if not g.ry.is_zero():
        out = out + ys * _ratx_series(g.ry, xs, work)
    if out.prec < order:
        raise ConsistencyError("series precision fell short (%d < %d)" % (out.prec, order))
    return out


def series_value_at_O(g: CurveFunction) -> FieldElement:
    """Value of a curve function at the origin read off its series; errors on a pole."""
    if g.is_zero():
        return g.model.field.zero
    s = expand_at_infinity(g, 1)
    v = s.valuation()
    if v is None:
        raise ConsistencyError("nonzero function with series zero to precision")
    if v < 0:
        raise HypothesisError("the function has a pole at the origin")
    if v > 0:
        return g.model.field.zero
    return s.coefficient(0)
