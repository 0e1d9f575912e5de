"""Every refusal and internal check of ``elliptic``, ``maninmap`` and ``sections``.

- Each ``InputError`` and ``HypothesisError`` is reached through the public
  API, with its exact type, its message and the module that raises it
  asserted; the table is parametrized by module.
- Each ``ConsistencyError`` is fired by fault injection: a kernel patched to
  return a wrong value, or an input no valid model produces.  Each guards a
  fact proved in the docstring of the function that checks it, so on valid
  input none of them fires.  Two of them are also followed to the CLI's
  exit code 3.
"""

import json
from pathlib import Path
from types import SimpleNamespace

import pytest

from maninmaps import (
    ConsistencyError,
    CoverMap,
    CurveFunction,
    CurvePoint,
    DivisorReport,
    FunctionField,
    GradedSection,
    HypothesisError,
    InputError,
    KodairaType,
    PFOperator,
    PrimeField,
    QQ,
    WeierstrassModel,
    XPoly,
    add,
    bad_places,
    divisor,
    exceptional_set,
    find_pf,
    intersection_with_zero,
    parse_curve_function,
    pullback_pf,
    tangency_report,
    verify_pf,
)
from maninmaps import elliptic, maninmap, sections
from maninmaps.cli import Manifest, main

from conftest import legendre, legendre_operator, place

MANIFESTS = Path(__file__).resolve().parent.parent / "manifests"


def qt():
    return FunctionField(QQ, "t")


def f5():
    return FunctionField(PrimeField(5), "t")


def f5_operator():
    """A hand-built operator over F_5: PFOperator itself takes any field."""
    E = legendre(f5())
    K = E.field
    return E, PFOperator(K.one, K.zero, K.one, parse_curve_function("y", E))


def frobenius_cover():
    """s -> s^5 over F_5: non-constant, with identically vanishing derivative."""
    Ks, Kt = FunctionField(PrimeField(5), "s"), f5()
    return CoverMap(Ks, Kt, Ks.gen ** 5)


REFUSALS = [
    ("elliptic", "characteristic-3",
     lambda: WeierstrassModel(FunctionField(SimpleNamespace(char=3), "t"), None, None, None),
     InputError, "characteristic 2 and 3 are not supported"),
    ("elliptic", "non-monic-cubic",
     lambda: WeierstrassModel.from_cubic(XPoly(qt(), [qt().gen, qt().zero, qt().zero, qt().from_int(2)])),
     InputError, "curve must be a monic cubic in x"),
    ("elliptic", "a4-of-long-model", lambda: legendre(qt()).a4,
     InputError, "a4 is only defined for a short model"),
    ("elliptic", "a6-of-long-model", lambda: legendre(qt()).a6,
     InputError, "a6 is only defined for a short model"),
    ("elliptic", "rescale-by-zero", lambda: legendre(qt()).rescale(qt().zero),
     InputError, "rescaling by zero"),
    ("elliptic", "add-across-models",
     lambda: add(CurvePoint.zero(legendre(qt())), CurvePoint.zero(legendre(qt()).depress()[0])),
     InputError, "points on different models"),
    ("elliptic", "unknown-fiber-type", lambda: KodairaType("V"),
     InputError, "unknown fiber type 'V'"),
    ("elliptic", "index-on-additive-type", lambda: KodairaType("II", 3),
     InputError, "only I and I\\* carry an index"),
    ("elliptic", "zero-section-with-itself",
     lambda: intersection_with_zero(legendre(qt()), CurvePoint.zero(legendre(qt())), qt().infinity()),
     InputError, "the zero section meets itself everywhere"),
    ("maninmap", "operator-with-zero-A",
     lambda: PFOperator(qt().zero, qt().one, qt().one, legendre_operator(qt())[1].F),
     InputError, "a second-order operator needs A != 0"),
    ("maninmap", "derivation-rescaled-by-zero",
     lambda: legendre_operator(qt())[1].rescale_derivation(qt().zero),
     InputError, "derivation rescaled by zero"),
    ("maninmap", "verify-pf-over-f5", lambda: verify_pf(*f5_operator()),
     InputError, "operators with exactness witnesses live in characteristic 0"),
    ("maninmap", "pullback-along-frobenius",
     lambda: pullback_pf(f5_operator()[1], frobenius_cover()),
     HypothesisError, "cover with identically vanishing derivative"),
    ("sections", "value-over-another-field",
     lambda: GradedSection(f5().gen, -1, 2, legendre(qt())),
     InputError, "section value and model live over different fields"),
    ("sections", "product-across-models",
     lambda: GradedSection(qt().one, 1, 0, legendre(qt()))
     * GradedSection(qt().one, 1, 0, legendre(qt()).rescale(qt().from_int(2))),
     InputError, "sections on different models"),
]


@pytest.mark.parametrize(
    "module, call, exc, message",
    [pytest.param(m, c, e, msg, id="%s-%s" % (m, name)) for m, name, c, e, msg in REFUSALS],
)
def test_refusal(module, call, exc, message):
    with pytest.raises(exc, match=message) as info:
        call()
    assert info.type is exc
    assert info.traceback[-1].path.name == module + ".py"


# ---------------------------------------------------------------------------
# internal checks, fired by fault injection


def impossible_orders(E, monkeypatch, orders):
    """Make the divisor kernel report ``orders`` for (a4, a6, Delta) at t = 0 only."""
    v = place(E.field, [0, 1])
    monkeypatch.setattr(elliptic, "_local_orders", lambda *fs: {v: orders})


def tangency_biquadratic():
    man = Manifest(str(MANIFESTS / "legendre-biquadratic.cfg"))
    return man.model, man.operator, man.pick_point()


def fault_fiber_without_index(monkeypatch):
    # 3 ord a4 < ord Delta = 5 asks for I_(-1)*: the two terms of Delta
    # cannot cancel at orders (1, 1)
    E = legendre(qt())
    impossible_orders(E, monkeypatch, [1, 1, 5])
    bad_places(E)


def fault_fiber_without_type(monkeypatch):
    E = legendre(qt())
    impossible_orders(E, monkeypatch, [2, 2, 5])
    bad_places(E)


def fault_point_off_the_curve(monkeypatch):
    K = qt()
    E = legendre(K)
    P = CurvePoint(E, 1 / K.gen, 1 / K.gen, check=False)
    intersection_with_zero(E, P, place(K, [0, 1]))


def fault_square_cubic(monkeypatch):
    K = qt()
    E = legendre(K)
    g = CurveFunction.x_coord(E) + CurveFunction.y_coord(E)
    monkeypatch.setattr(WeierstrassModel, "cubic", lambda self: XPoly.x(K) * XPoly.x(K))
    CurveFunction.const(E, K.one) / g


def fault_witness_residual(monkeypatch):
    witness = maninmap._witness
    monkeypatch.setattr(maninmap, "_witness", lambda *a: (witness(*a)[0], False))
    find_pf(legendre(qt()))


def fault_pole_off_the_exceptional_set(monkeypatch):
    E, L, P = tangency_biquadratic()
    v = place(E.field, [-7, 1])
    assert v not in exceptional_set(E)
    monkeypatch.setattr(maninmap, "_divisor", lambda S, d: DivisorReport([(v, -1)]))
    tangency_report(E, L, P)


def fault_deg_omega_in_report(monkeypatch):
    deg_omega = maninmap.deg_omega
    monkeypatch.setattr(maninmap, "deg_omega", lambda E: deg_omega(E) + 1)
    tangency_report(*tangency_biquadratic())


def fault_deg_omega_in_divisor(monkeypatch):
    E, L = legendre_operator(qt())
    deg_omega = sections.deg_omega
    monkeypatch.setattr(sections, "deg_omega", lambda E: deg_omega(E) + 1)
    divisor(GradedSection(L.A, -1, 2, E))


FAULTS = [
    ("elliptic", "fiber-without-index", fault_fiber_without_index,
     r"impossible valuations \(1, 5\) at t$"),
    ("elliptic", "fiber-without-type", fault_fiber_without_type,
     r"no fiber type for ord\(disc\) = 5 at t$"),
    ("elliptic", "point-off-the-curve", fault_point_off_the_curve,
     r"pole orders -1, -1 of x, y are inconsistent"),
    ("elliptic", "square-cubic", fault_square_cubic,
     r"zero norm for the nonzero curve function \(x\) \+ y\*\(\(1\)\)"),
    ("maninmap", "witness-residual", fault_witness_residual,
     r"solved operator failed verification on y\^2 = "),
    ("maninmap", "pole-off-the-exceptional-set", fault_pole_off_the_exceptional_set,
     r"negative order -1 away from the exceptional set at u - 7$"),
    ("sections", "deg-omega-in-report", fault_deg_omega_in_report,
     r"divisor degree -6 does not match -2m \+ weight\*deg_omega = -7"),
    ("sections", "deg-omega-in-divisor", fault_deg_omega_in_divisor,
     r"divisor degree -5 does not match -2m \+ weight\*deg_omega = -6"),
]


@pytest.mark.parametrize(
    "module, inject, message",
    [pytest.param(m, f, msg, id="%s-%s" % (m, name)) for m, name, f, msg in FAULTS],
)
def test_internal_check(module, inject, message, monkeypatch):
    with pytest.raises(ConsistencyError, match=message) as info:
        inject(monkeypatch)
    assert info.traceback[-1].path.name == module + ".py"


@pytest.mark.parametrize("command, manifest, patch, message", [
    ("tangency", "legendre-biquadratic.cfg", "deg_omega", "divisor degree -6 does not match"),
    ("find-pf", "legendre.cfg", "_witness", "solved operator failed verification"),
])
def test_internal_check_exits_three(capsys, monkeypatch, command, manifest, patch, message):
    real = getattr(maninmap, patch)
    fault = {
        "deg_omega": lambda E: real(E) + 1,
        "_witness": lambda *a: (real(*a)[0], False),
    }[patch]
    monkeypatch.setattr(maninmap, patch, fault)
    code = main([command, str(MANIFESTS / manifest)])
    doc = json.loads(capsys.readouterr().out)
    assert code == 3
    assert doc["error"].startswith(message)
