import random

import pytest

from maninmaps import (
    CoverMap,
    CurveFunction,
    CurvePoint,
    FunctionField,
    HypothesisError,
    InputError,
    NotFoundError,
    PFOperator,
    QQ,
    RatX,
    WeierstrassModel,
    add,
    deg_omega,
    divisor,
    exceptional_set,
    find_pf,
    manin_section,
    manin_value,
    negate,
    parse_curve_function,
    pullback_pf,
    scalar_mul,
    tangency_report,
    verify_pf,
)
from maninmaps.maninmap import REASON_BAD, REASON_DJ, REASON_J1728

from conftest import (
    fresh,
    legendre,
    legendre_biquadratic,
    legendre_cover_2,
    legendre_cover_a,
    legendre_operator,
    place,
)


@pytest.fixture(scope="module")
def Kt():
    return FunctionField(QQ, "t")


@pytest.fixture(scope="module")
def base(Kt):
    return legendre_operator(Kt)


# -- verify_pf


def test_verify_known_operator(base):
    E, L = base
    assert verify_pf(E, L)


def test_verify_rejects_perturbations(base, Kt):
    E, L = base
    t = Kt.gen
    rng = random.Random(29)
    rejected = 0
    trials = 0
    while rejected < 20:
        trials += 1
        assert trials < 40
        kind = rng.randrange(5)
        A, B, C, F = L.A, L.B, L.C, L.F
        if kind == 0:
            A = A + rng.choice([t, Kt.one, t ** 2])
        elif kind == 1:
            B = B + rng.choice([Kt.one, t, 1 - t])
        elif kind == 2:
            C = C + Kt.from_fraction(rng.randrange(1, 5), rng.randrange(1, 5))
        elif kind == 3:
            F = CurveFunction(E, F.rx, F.ry * RatX.const(Kt.from_int(rng.randrange(2, 5))))
        else:
            F = F + parse_curve_function("y", E)
        try:
            Lbad = PFOperator(A, B, C, F)
        except InputError:
            continue
        if not verify_pf(E, Lbad):
            rejected += 1
    assert rejected == 20


def test_verify_pf_checks_each_operator_once(base, Kt, monkeypatch):
    import maninmaps.maninmap as mm

    E, L = base
    calls = []
    inner = mm._witness

    def counting(E, A, B, C):
        calls.append((A, B, C))
        return inner(E, A, B, C)

    monkeypatch.setattr(mm, "_witness", counting)
    L = fresh(L)
    assert verify_pf(E, L) and verify_pf(E, L)
    assert len(calls) == 1
    # a model other than the witness's is refused before any exactness work
    assert not verify_pf(legendre(Kt).rescale(Kt.from_int(2)), L)
    assert len(calls) == 1
    assert not hasattr(mm, "_VERIFIED")


def test_verify_allows_constant_shift_of_witness(base, Kt):
    # adding a constant to F changes nothing: dF is untouched
    E, L = base
    F2 = L.F + CurveFunction.const(E, Kt.from_int(7))
    assert verify_pf(E, PFOperator(L.A, L.B, L.C, F2))


# -- find_pf


def test_find_pf_recovers_known_operator(base, Kt):
    E, L = base
    found = find_pf(E, pole_bound=2)
    ratio = found.A / L.A
    assert not ratio.is_zero() and ratio.is_constant()
    assert found.B == L.B * ratio and found.C == L.C * ratio
    assert verify_pf(E, fresh(found))


def test_find_pf_on_tx_t(Kt):
    t = Kt.gen
    E = WeierstrassModel.short(Kt, t, t)
    L = find_pf(E, pole_bound=4)
    assert verify_pf(E, fresh(L))


def test_find_pf_rejects_isotrivial(Kt):
    E = WeierstrassModel.short(Kt, Kt.one, Kt.one)
    with pytest.raises(NotFoundError):
        find_pf(E)


# -- pullback of operators


def test_pullback_identity_cover(base, Kt):
    E, L = base
    ident = CoverMap(Kt, Kt, Kt.gen)
    Lid = pullback_pf(L, ident)
    assert Lid.A == L.A and Lid.B == L.B and Lid.C == L.C
    assert verify_pf(E, Lid)


def test_pullback_quadratic_cover(base):
    E, L = base
    Es, P, phi = legendre_cover_2(QQ)
    Ls = pullback_pf(L, phi)
    assert verify_pf(Es, Ls)


def test_pullback_biquadratic_cover(base):
    E, L = base
    Eu, P2, P3, phi = legendre_biquadratic(QQ)
    Lu = pullback_pf(L, phi)
    assert verify_pf(Eu, Lu)


# -- the map in coordinates


def test_manin_kills_zero_and_two_torsion(base, Kt):
    E, L = base
    assert manin_value(E, L, CurvePoint.zero(E)).is_zero()
    T = CurvePoint(E, Kt.gen, Kt.zero)
    assert manin_value(E, L, T).is_zero()


def test_manin_additive_on_biquadratic_points(base):
    E, L = base
    Eu, P2, P3, phi = legendre_biquadratic(QQ)
    Lu = pullback_pf(L, phi)
    v2 = manin_value(Eu, Lu, P2)
    v3 = manin_value(Eu, Lu, P3)
    assert manin_value(Eu, Lu, add(P2, P3)) == v2 + v3
    assert manin_value(Eu, Lu, add(P2, negate(P3))) == v2 - v3
    assert manin_value(Eu, Lu, scalar_mul(2, P3)) == 2 * v3


def test_manin_kills_torsion_combinations(base):
    E, L = base
    Eu, P2, P3, phi = legendre_biquadratic(QQ)
    Lu = pullback_pf(L, phi)
    K = P2.x.field
    tK = -Eu.c2 - 1
    for T in (CurvePoint(Eu, K.zero, K.zero), CurvePoint(Eu, K.one, K.zero),
              CurvePoint(Eu, tK, K.zero)):
        assert manin_value(Eu, Lu, T).is_zero()
        assert manin_value(Eu, Lu, add(P2, T)) == manin_value(Eu, Lu, P2)


def test_manin_requires_verified_operator(base, Kt):
    E, L = base
    broken = PFOperator(L.A, L.B, L.C + Kt.one, L.F)
    with pytest.raises(HypothesisError):
        manin_value(E, broken, CurvePoint(E, Kt.gen, Kt.zero))


# -- golden sections


def test_section_value_golden_1(base):
    E, L = base
    Es, P, phi = legendre_cover_2(QQ)
    Ls = pullback_pf(L, phi)
    sec = manin_section(Es, Ls, P)
    K = P.x.field
    s = K.gen
    assert sec.value == K.from_int(-8) / (s * (s ** 2 - 4) * (s ** 2 - 2))
    assert sec.weight == -1 and sec.diff_degree == 2


def test_section_value_golden_2(base):
    E, L = base
    for a in (3, 5, -1):
        Es, P, phi = legendre_cover_a(QQ, a)
        Ls = pullback_pf(L, phi)
        K = P.x.field
        s = K.gen
        av = K.from_int(a)
        sec = manin_section(Es, Ls, P)
        expected = (-2 * av ** 2 * (av - 1) ** 2) / (
            s * (s ** 2 - av ** 2 * (av - 1)) * (s ** 2 - av * (av - 1) ** 2)
        )
        assert sec.value == expected


# -- invariances of the section


def test_section_invariant_under_operator_scaling():
    from conftest import run_operator_rescaling_trials

    K = FunctionField(QQ, "s")
    run_operator_rescaling_trials([K.from_int(2), K.gen, K.from_fraction(3, 7) * K.gen ** 2])


def test_section_invariant_under_derivation_scaling():
    # with the derivation g*d, the operator transforms, every derivative picks
    # up g, and the dual differential shrinks by g: the section is unchanged
    from conftest import run_derivation_rescaling_trials

    K = FunctionField(QQ, "s")
    run_derivation_rescaling_trials([K.gen ** 2 + 1, K.from_int(5)])


def test_section_invariant_under_model_rescaling():
    # an x-shift or a (c^2, c^3)-rescaling changes coordinates only; a fresh
    # operator on the new model gives back the same section (values against
    # dx/y differ by the factor c the form picks up); the full ten-trial run
    # lives in the acceptance suite
    from conftest import run_model_rescaling_trials

    K = FunctionField(QQ, "s")
    run_model_rescaling_trials([K.gen, K.from_int(3), K.from_int(7)])


# -- exceptional sets


def test_exceptional_set_legendre_base(Kt):
    E = legendre(Kt)
    S = exceptional_set(E)
    reasons = dict((str(p), r) for p, r in S.entries)
    assert reasons["t"] == REASON_BAD
    assert reasons["t - 1"] == REASON_BAD
    assert reasons["infinity"] == REASON_BAD
    # j = 1728 at t = -1, 2, 1/2 with dj simple there: not exceptional;
    # j = 0 at the roots of t^2 - t + 1 with ord dj = 2: not exceptional
    assert "t + 1" not in reasons
    assert "t - 2" not in reasons
    assert "t^2 - t + 1" not in reasons


def test_exceptional_set_on_quadratic_cover():
    Es, P, phi = legendre_cover_2(QQ)
    S = exceptional_set(Es)
    K = P.x.field
    expected = {place(K, [0, 1]), place(K, [-2, 1]), place(K, [2, 1]),
                place(K, [-2, 0, 1]), K.infinity()}
    assert expected <= set(S.places())
    reasons = dict(S.entries)
    assert reasons[place(K, [0, 1])] == REASON_J1728


def test_exceptional_set_reason_clauses():
    # dj vanishes at s = 0 on the a = 3 cover because the cover ramifies there
    Es, P, phi = legendre_cover_a(QQ, 3)
    S = exceptional_set(Es)
    K = P.x.field
    reasons = dict(S.entries)
    assert reasons[place(K, [0, 1])] == REASON_DJ


def test_exceptional_set_isotrivial_refused(Kt):
    E = WeierstrassModel.short(Kt, Kt.one, Kt.one)
    with pytest.raises(HypothesisError):
        exceptional_set(E)


# -- tangency reports


def test_tangency_golden_1(base):
    E, L = base
    Es, P, phi = legendre_cover_2(QQ)
    Ls = pullback_pf(L, phi)
    rep = tangency_report(Es, Ls, P)
    assert rep.t_complex == []
    assert not rep.zero_section
    assert set(rep.section_divisor.support()) <= set(rep.exceptional.places())


def test_tangency_golden_2(base):
    E, L = base
    for a in (3, 5, -1):
        Es, P, phi = legendre_cover_a(QQ, a)
        Ls = pullback_pf(L, phi)
        rep = tangency_report(Es, Ls, P)
        assert rep.t_complex == [], a


def test_tangency_golden_3(base):
    E, L = base
    Eu, P2, P3, phi = legendre_biquadratic(QQ)
    Lu = pullback_pf(L, phi)
    Q = scalar_mul(3, P3) - P2
    rep = tangency_report(Eu, Lu, Q)
    K = P2.x.field
    u1 = place(K, [-1, 1])
    assert u1 not in rep.exceptional
    assert rep.orders[u1] == 1
    assert rep.contact_orders[u1] == 3
    assert u1 in rep.t_complex
    assert rep.weighted_count <= rep.bound


def test_tangency_zero_section_reported(base, Kt):
    E, L = base
    T = CurvePoint(E, Kt.zero, Kt.zero)
    rep = tangency_report(E, L, T)
    assert rep.zero_section
    assert rep.t_complex == []


def test_section_degree_identity(base):
    E, L = base
    Es, P, phi = legendre_cover_2(QQ)
    Ls = pullback_pf(L, phi)
    sec = manin_section(Es, Ls, P)
    assert divisor(sec).degree == -4 - deg_omega(Es)


def test_tangency_report_reads_deg_omega_once(monkeypatch):
    # one trial-division deg omega, passed to the section's divisor, and at
    # most three divisor-kernel passes: the exceptional set's fibers (with
    # delta), deg omega's curve places, and the divisor's twists
    from pathlib import Path

    import maninmaps
    from maninmaps.cli import Manifest

    man = Manifest(str(Path(__file__).resolve().parent.parent / "manifests" / "legendre-biquadratic.cfg"))
    E, L, P = man.model, man.operator, man.pick_point()
    calls = {"deg_omega": 0, "_local_orders": 0}
    for name in calls:
        for module in (maninmaps.elliptic, maninmaps.funcfield, maninmaps.maninmap, maninmaps.sections):
            if hasattr(module, name):
                def counting(*args, _inner=getattr(module, name), _name=name):
                    calls[_name] += 1
                    return _inner(*args)
                monkeypatch.setattr(module, name, counting)
    rep = tangency_report(E, L, P)
    assert not rep.zero_section
    assert calls["deg_omega"] == 1
    assert calls["_local_orders"] <= 3
