"""Graded sections: scalars with a weight and a differential degree.

A ``GradedSection`` holds a value in K together with a weight kappa (the
power of the invariant-differential bundle its coordinate expression carries)
and a differential degree m (the power of the module of 1-forms on the
line).  The order at a place is computed against the place-minimal model, so
it does not depend on which short Weierstrass model the value was written
in; the correction is kappa times the local twist exponent, plus -2m at
infinity where d(var) has its double pole.  ``divisor`` reads its orders off
the divisor of the value (``funcfield.divisor_of_function``) and the twists
k_v of one ``elliptic._fibers`` pass.
"""

from __future__ import annotations

from .elliptic import WeierstrassModel, _deg_omega, _fibers, twist_exponent
from .errors import ConsistencyError, InputError
from .funcfield import FieldElement, Place, divisor_of_function, ord_at


class GradedSection:
    """value * (dx/2y)^weight * (d var)^diff_degree on a given model."""

    __slots__ = ("value", "weight", "diff_degree", "model")

    def __init__(self, value: FieldElement, weight: int, diff_degree: int,
                 model: WeierstrassModel):
        model = model.depress()[0]
        if value.field != model.field:
            raise InputError("section value and model live over different fields")
        self.value = value
        self.weight = weight
        self.diff_degree = diff_degree
        self.model = model

    def is_zero(self) -> bool:
        return self.value.is_zero()

    def __str__(self):
        return "(%s) of weight %d, differential degree %d" % (
            self.value, self.weight, self.diff_degree,
        )

    def __repr__(self):
        return "GradedSection(%s)" % self


class DivisorReport:
    """A divisor as a sorted list of (Place, ord), the orders given for a place summed."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        acc = {}
        for p, o in entries:
            acc[p] = acc.get(p, 0) + o
        self.entries = sorted(
            [(p, o) for p, o in acc.items() if o], key=lambda po: po[0].sort_key()
        )

    @property
    def degree(self) -> int:
        return sum(p.degree * o for p, o in self.entries)

    def ord(self, place: Place) -> int:
        return dict(self.entries).get(place, 0)

    def support(self) -> list:
        return [p for p, _ in self.entries]

    def scale(self, n: int) -> "DivisorReport":
        return DivisorReport([(p, n * o) for p, o in self.entries])

    def __add__(self, other: "DivisorReport") -> "DivisorReport":
        return DivisorReport(self.entries + other.entries)

    def serialize(self) -> list:
        return [
            {"place": str(p), "degree": p.degree, "ord": o} for p, o in self.entries
        ]

    def __str__(self):
        return " + ".join("%d*(%s)" % (o, p) for p, o in self.entries) or "0"

    def __repr__(self):
        return "DivisorReport(%s)" % self


def ord_section(S: GradedSection, v: Place) -> int:
    """Order of a nonzero graded section at a place, model-independently."""
    if S.is_zero():
        raise InputError("order of the zero section")
    k = twist_exponent(S.model, v)
    correction = -2 * S.diff_degree if v.is_infinity else 0
    return ord_at(S.value, v) + k * S.weight + correction


def divisor(S: GradedSection) -> DivisorReport:
    """Full divisor of a nonzero graded section.

    The divisor of the value, plus weight * k_v from one ``elliptic._fibers``
    pass, less 2m at infinity; the degree identity degree = -2 m + weight *
    deg_omega, with k_v read by trial division at the pass's places, is checked.
    """
    rows = _fibers(S.model)
    return _divisor(S, _deg_omega(S.model, rows), rows)


def _divisor(S: GradedSection, d: int, rows: list) -> DivisorReport:
    """``divisor`` given d = ``_deg_omega(S.model, rows)`` and the rows of a
    report's ``_fibers(S.model, ...)`` pass."""
    if S.is_zero():
        raise InputError("divisor of the zero section")
    twist = [(v, S.weight * k) for v, k, _, _ in rows]
    report = DivisorReport(
        divisor_of_function(S.value) + twist + [(S.model.field.infinity(), -2 * S.diff_degree)]
    )
    expected = -2 * S.diff_degree + S.weight * d
    if report.degree != expected:
        raise ConsistencyError(
            "divisor degree %d does not match -2m + weight*deg_omega = %d"
            % (report.degree, expected)
        )
    return report
