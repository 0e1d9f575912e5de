"""Test-only oracle: the division values psi_n(P) by the textbook recurrence.

``pdescent._division_values`` runs a division-free recurrence for f_n, with
psi_n = f_n for odd n and 2 y0 f_n for even n.  This is the recurrence it
replaced, on psi_n itself: psi_2m+1 = psi_m+2 psi_m^3 - psi_m-1 psi_m+1^3 and
psi_2m = psi_m (psi_m+2 psi_m-1^2 - psi_m-2 psi_m+1^2) / (2 y0), each
even value an exact division by 2 y0 (every even value is 0 when y0 = 0).
"""

from maninmaps.polynomials import Poly


def division_values_oracle(a: Poly, b: Poly, x0: Poly, y0: Poly, n_top: int) -> list:
    """psi_0(P), ..., psi_n_top(P) in k[t] on y^2 = x^3 + a x + b."""
    field = a.field
    zero, one = Poly.zero(field), Poly.one(field)

    def c(n):
        return Poly.const(field, field.from_int(n))

    x2 = x0 * x0
    x3 = x2 * x0
    a2 = a * a
    psi3 = c(3) * x2 * x2 + c(6) * a * x2 + c(12) * b * x0 - a2
    psi4_core = (
        x3 * x3
        + c(5) * a * x2 * x2
        + c(20) * b * x3
        - c(5) * a2 * x2
        - c(4) * a * b * x0
        - c(8) * b * b
        - a2 * a
    )
    two_y = c(2) * y0
    psi = [zero, one, two_y, psi3, two_y * c(2) * psi4_core]
    for n in range(5, n_top + 1):
        m = n // 2
        if n % 2:
            val = psi[m + 2] * psi[m] ** 3 - psi[m - 1] * psi[m + 1] ** 3
        elif two_y.is_zero():
            val = zero
        else:
            val, r = divmod(psi[m] * (psi[m + 2] * psi[m - 1] ** 2 - psi[m - 2] * psi[m + 1] ** 2),
                            two_y)
            if not r.is_zero():
                raise ArithmeticError("psi_%d is not divisible by 2 y0" % n)
        psi.append(val)
    return psi
