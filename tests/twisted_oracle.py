"""The twisted differential and the p-descent value by their defining formulas.

``pdescent`` takes both from the Gauss-Manin pair (Delta, delta): the
twisted differential is 3 delta/(2 Delta) and the descent argument z one
quotient over 18 y delta.  This oracle keeps the formulas they replace: the
value a4 j'/(18 a6 j) with its three refusals (a6 = 0, j = 0, j' = 0), z
built from dlog(disc) and lambda, and the Hasse split of f^((p-1)/2) taken
over K(t).
"""

from maninmaps import XPoly
from maninmaps.errors import HypothesisError


def twisted_differential(E):
    """a4 j'/(18 a6 j) on the depressed model, refusing where it degenerates."""
    E = E.depress()[0]
    if E.a6.is_zero():
        raise HypothesisError("the twisted differential formula needs a6 != 0")
    j = E.j_invariant()
    if j.is_zero():
        raise HypothesisError("the twisted differential formula needs j != 0")
    jprime = j.derive()
    if jprime.is_zero():
        raise HypothesisError("the j-invariant is a p-th power (or constant)")
    return E.a4 * jprime / (E.a6 * j * 18)


def hasse_split(E):
    """(A, M) of f^((p-1)/2) = x^p M(x) + A x^(p-1) + L(x), the power over K(t)."""
    E = E.depress()[0]
    p = E.field.char
    fpow = E.cubic() ** ((p - 1) // 2)
    return fpow[p - 1], XPoly(E.field, fpow.coeffs[p:])


def p_descent_value(E, P):
    """y M(x) + z^p - A z with z from dx/2y, dlog(disc) and lambda."""
    Es, shift = E.depress()
    if P.is_zero or P.y.is_zero():
        return E.field.zero
    p = E.field.char
    lam = twisted_differential(Es)
    A, M = hasse_split(Es)
    x, y = P.x + shift, P.y
    disc = Es.discriminant()
    dlog_disc = disc.derive() / disc
    z = x.derive() / (y * 2 * lam) - (
        x * x * 12 + (dlog_disc / lam) * x + Es.a4 * 8
    ) / (y * 12)
    return y * M.evaluate(x) + z ** p - A * z
