"""Every refusal and internal check of ``elliptic``, ``funcfield``, ``maninmap``,
``pdescent`` and ``sections``.

- Each ``InputError`` and ``HypothesisError`` is reached through the public
  API, with its exact type, its message and the module that raises it
  asserted; the table is parametrized by module.  The ``elliptic`` rows
  include the refusal and the pole-order check of ``intersection_with_zero``,
  the group-law oracle in ``tests/local_oracle.py``.  For ``funcfield`` the
  table holds the refusals no other test reaches, ``TypeError`` and
  ``ZeroDivisionError`` among them: a zero denominator, operands of another
  type or field, a constant place, the divisor of zero, the five cover
  refusals, division by the zero x-polynomial, evaluation at a pole in x
  and a repeated exponent.  Refusals that only drawn property tests
  reached (three parse errors, a scan of the zero section, division by
  zero in K(E)) get a row too, so a run that draws nothing still reaches
  them.  The constant cover is also followed through a manifest to the
  CLI's exit code 2.
- Each ``ConsistencyError`` is fired by fault injection: a kernel patched to
  return a wrong value, or an input no valid model produces.  Each guards a
  fact proved in the docstring of the function that checks it, so on valid
  input none of them fires.  Three of them are also followed to the CLI's
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
    FieldElement,
    FunctionField,
    GradedSection,
    HypothesisError,
    InputError,
    KodairaType,
    PFOperator,
    ParseError,
    Place,
    PrimeField,
    QQ,
    RatX,
    WeierstrassModel,
    XPoly,
    add,
    bad_places,
    component_order,
    divisor,
    divisor_of_function,
    exceptional_set,
    find_pf,
    parse,
    parse_curve_function,
    pullback_pf,
    tangency_report,
    tangency_scan,
    verify_pf,
)
from maninmaps import elliptic, funcfield, maninmap, pdescent, sections
from maninmaps.cli import Manifest, main

from conftest import legendre, legendre_cover_2, legendre_operator, place
from local_oracle import intersection_with_zero

MANIFESTS = Path(__file__).resolve().parent.parent / "manifests"


def qt():
    return FunctionField(QQ, "t")


def f5():
    return FunctionField(PrimeField(5), "t")


def f7():
    return FunctionField(PrimeField(7), "t")


def f5_operator():
    """A hand-built operator over F_5: PFOperator itself takes any field."""
    E = legendre(f5())
    K = E.field
    return E, PFOperator(K.one, K.zero, K.one, parse_curve_function("y", E))


def iv_star_f7(scale=0):
    """y^2 = x^3 - 2x + 4t^2 - 1 over F_7, IV* at infinity, with P = (-1, -2t),
    rescaled by c = t^scale."""
    K = f7()
    t, c = K.gen, K.gen ** scale
    E = WeierstrassModel.short(K, K.from_int(-2) * c ** 4, (4 * t ** 2 - 1) * c ** 6)
    return E, CurvePoint(E, -c ** 2, -2 * t * c ** 3)


def qs():
    return FunctionField(QQ, "s")


def one_over_x():
    K = qt()
    return RatX.const(K.one) / RatX.from_xpoly(XPoly.x(K))


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
    ("elliptic", "curve-function-over-zero",
     lambda: CurveFunction.const(legendre(qt()), qt().one) / CurveFunction.const(legendre(qt()), qt().zero),
     ZeroDivisionError, r"division by zero in K\(E\)"),
    ("elliptic", "unknown-fiber-type", lambda: KodairaType("V"),
     InputError, "unknown fiber type 'V'"),
    ("elliptic", "index-on-additive-type", lambda: KodairaType("II", 3),
     InputError, "only I and I\\* carry an index"),
    ("elliptic", "zero-section-with-itself",
     lambda: intersection_with_zero(legendre(qt()), CurvePoint.zero(legendre(qt())), qt().infinity()),
     InputError, "the zero section meets itself everywhere"),
    ("funcfield", "zero-denominator",
     lambda: FieldElement(qt(), qt().poly([1]), qt().poly([0])),
     ZeroDivisionError, "zero denominator"),
    ("funcfield", "add-a-string", lambda: qt().gen + "t",
     TypeError, "cannot combine FieldElement with 't'"),
    ("funcfield", "add-across-fields", lambda: qt().gen + f5().gen,
     InputError, "mixed function fields"),
    ("funcfield", "place-of-a-constant", lambda: Place(qt(), qt().poly([3])),
     InputError, "a finite place needs a non-constant polynomial"),
    ("funcfield", "divisor-of-zero", lambda: divisor_of_function(qt().zero),
     InputError, "the zero function has no divisor"),
    ("funcfield", "cover-image-in-the-target", lambda: CoverMap(qs(), qt(), qt().gen),
     InputError, "cover image must live in the source field"),
    ("funcfield", "cover-across-constant-fields",
     lambda: CoverMap(FunctionField(PrimeField(5), "s"), qt(), FunctionField(PrimeField(5), "s").gen),
     InputError, "cover must preserve the constant field"),
    ("funcfield", "constant-cover", lambda: CoverMap(qs(), qt(), qs().from_int(2)),
     InputError, "cover image must be non-constant"),
    ("funcfield", "pullback-from-the-source",
     lambda: CoverMap(qs(), qt(), qs().gen ** 2).pullback(qs().gen),
     InputError, "pullback input must live in the target field"),
    ("funcfield", "covers-that-do-not-chain",
     lambda: CoverMap(qs(), qt(), qs().gen ** 2).then(CoverMap(qs(), qt(), qs().gen + 1)),
     InputError, "covers do not chain"),
    ("funcfield", "xpoly-divmod-by-zero", lambda: divmod(XPoly.x(qt()), XPoly.zero(qt())),
     ZeroDivisionError, "XPoly division by zero"),
    ("funcfield", "ratx-at-a-pole", lambda: one_over_x().evaluate(qt().zero),
     ZeroDivisionError, "evaluation at a pole in x"),
    ("funcfield", "repeated-exponent", lambda: parse("t^2^3", qt()),
     ParseError, r"repeated exponent \(at position 3\)$"),
    ("funcfield", "trailing-input", lambda: parse("t)", qt()),
     ParseError, r"trailing input '\)' \(at position 1\)$"),
    ("funcfield", "unclosed-parenthesis", lambda: parse("(t", qt()),
     ParseError, r"expected '\)', found None \(at position 2\)$"),
    ("funcfield", "unexpected-token", lambda: parse("t+*2", qt()),
     ParseError, r"unexpected token '\*' \(at position 2\)$"),
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
    ("pdescent", "scan-of-the-zero-section",
     lambda: tangency_scan(legendre(f5()), CurvePoint.zero(legendre(f5())), 4),
     InputError, "the zero section cannot be scanned"),
    ("pdescent", "component-order-at-an-additive-place",
     lambda: component_order(*iv_star_f7(), f7().infinity()),
     HypothesisError, "component order computed only at semistable places"),
]


# intersection_with_zero, the group-law oracle of the tangency scan, lives in
# tests/local_oracle.py; its refusal and its check stay in the elliptic rows
IN_THE_ORACLE = {"zero-section-with-itself", "point-off-the-curve"}


def raised_in(module, name):
    """The file whose raise a row reaches."""
    return "local_oracle.py" if name in IN_THE_ORACLE else module + ".py"


@pytest.mark.parametrize(
    "source, call, exc, message",
    [pytest.param(raised_in(m, name), c, e, msg, id="%s-%s" % (m, name))
     for m, name, c, e, msg in REFUSALS],
)
def test_refusal(source, call, exc, message):
    with pytest.raises(exc, match=message) as info:
        call()
    assert info.type is exc
    assert info.traceback[-1].path.name == source


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
    # 1/t has a simple pole at t = 0, but on the curve 2 ord y = 3 ord x
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


def fault_factor_drops_a_factor(monkeypatch):
    # a correct factor() makes the degree 0: every place is counted once
    real = funcfield.factor
    monkeypatch.setattr(funcfield, "factor", lambda q: real(q)[1:])
    divisor_of_function(qt().gen - 1)


def fault_witness_residual(monkeypatch):
    witness = maninmap._witness
    monkeypatch.setattr(maninmap, "_witness", lambda *a: (witness(*a)[0], False))
    find_pf(legendre(qt()))


def fault_pole_off_the_exceptional_set(monkeypatch):
    E, L, P = tangency_biquadratic()
    v = place(E.field, [-7, 1])
    assert v not in exceptional_set(E)
    monkeypatch.setattr(maninmap, "_divisor", lambda S, d, rows: DivisorReport([(v, -1)]))
    tangency_report(E, L, P)


def fault_denominator_left_in_the_scan(monkeypatch):
    # without the factors of the denominators no clearing is found
    E, P = iv_star_f7(-1)
    monkeypatch.setattr(pdescent, "places_of_poly", lambda q, K: [])
    tangency_scan(E, P, 4)


def fault_odd_pole_in_the_scan(monkeypatch):
    real = pdescent._poly_order
    monkeypatch.setattr(pdescent, "_poly_order", lambda q, v: real(q, v) - 1)
    E, P, _ = legendre_cover_2(PrimeField(5))
    tangency_scan(E, P, 12)


def fault_deg_omega_in_report(monkeypatch):
    deg_omega = maninmap._deg_omega
    monkeypatch.setattr(maninmap, "_deg_omega", lambda E, rows: deg_omega(E, rows) + 1)
    tangency_report(*tangency_biquadratic())


def fault_deg_omega_in_divisor(monkeypatch):
    E, L = legendre_operator(qt())
    deg_omega = sections._deg_omega
    monkeypatch.setattr(sections, "_deg_omega", lambda E, rows: deg_omega(E, rows) + 1)
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
    ("funcfield", "factor-drops-a-factor", fault_factor_drops_a_factor,
     r"divisor of a function has degree -1$"),
    ("maninmap", "witness-residual", fault_witness_residual,
     r"solved operator failed verification on y\^2 = "),
    ("maninmap", "pole-off-the-exceptional-set", fault_pole_off_the_exceptional_set,
     r"negative order -1 away from the exceptional set at u - 7$"),
    ("pdescent", "denominator-left-in-the-scan", fault_denominator_left_in_the_scan,
     r"denominator clearing failed: a4 keeps the denominator t\^4$"),
    ("pdescent", "odd-pole-in-the-scan", fault_odd_pole_in_the_scan,
     r"odd pole order of x\(1P\) at infinity$"),
    ("sections", "deg-omega-in-report", fault_deg_omega_in_report,
     r"divisor degree -6 does not match -2m \+ weight\*deg_omega = -7"),
    ("sections", "deg-omega-in-divisor", fault_deg_omega_in_divisor,
     r"divisor degree -5 does not match -2m \+ weight\*deg_omega = -6"),
]


@pytest.mark.parametrize(
    "source, inject, message",
    [pytest.param(raised_in(m, name), f, msg, id="%s-%s" % (m, name))
     for m, name, f, msg in FAULTS],
)
def test_internal_check(source, inject, message, monkeypatch):
    with pytest.raises(ConsistencyError, match=message) as info:
        inject(monkeypatch)
    assert info.traceback[-1].path.name == source


@pytest.mark.parametrize("command, manifest, patch, message", [
    ("tangency", "legendre-biquadratic.cfg", "deg_omega", "divisor degree -6 does not match"),
    ("find-pf", "legendre.cfg", "_witness", "solved operator failed verification"),
    ("invariants", "legendre.cfg", "factor", "divisor of a function has degree"),
])
def test_internal_check_exits_three(capsys, monkeypatch, command, manifest, patch, message):
    # patch names the fault: deg omega off by one at its seam, a failed
    # residual, or a factorization that drops a factor
    name = {"deg_omega": "_deg_omega"}.get(patch, patch)
    owner = funcfield if patch == "factor" else maninmap
    real = getattr(owner, name)
    fault = {
        "deg_omega": lambda E, rows: real(E, rows) + 1,
        "_witness": lambda *a: (real(*a)[0], False),
        "factor": lambda q: real(q)[1:],
    }[patch]
    monkeypatch.setattr(owner, name, fault)
    code = main([command, str(MANIFESTS / manifest)])
    doc = json.loads(capsys.readouterr().out)
    assert code == 3
    assert doc["error"].startswith(message)


def test_constant_cover_in_a_manifest_exits_two(capsys, tmp_path):
    man = tmp_path / "constant-cover.cfg"
    man.write_text("[curve]\ncubic = x^3 - (1+t)*x^2 + t*x\n[cover]\nt = s - s\n")
    code = main(["invariants", str(man)])
    doc = json.loads(capsys.readouterr().out)
    assert code == 2
    assert doc["error"] == "cover image must be non-constant"
