import pytest

from maninmaps import (
    CurvePoint,
    FunctionField,
    GradedSection,
    InputError,
    PrimeField,
    QQ,
    WeierstrassModel,
    deg_omega,
    divisor,
    kodaira_spencer_section,
    ord_at,
    ord_section,
    p_descent_section,
)

from conftest import legendre, legendre_cover_2, legendre_operator, place


@pytest.fixture
def Kt():
    return FunctionField(QQ, "t")


def test_ord_section_twist_removes_power(Kt):
    t = Kt.gen
    E = WeierstrassModel.short(Kt, t ** 4, t ** 6)
    S = GradedSection(E.a4, 4, 0, E)
    assert ord_section(S, place(Kt, [0, 1])) == 0


def test_ord_section_of_paper_value_at_s():
    # the weight -1, degree 2 section -8/(s(s^2-4)(s^2-2)) has a simple pole at (s)
    from maninmaps import manin_section, pullback_pf

    Kt = FunctionField(QQ, "t")
    E, P, phi = legendre_cover_2(QQ)
    _, L = legendre_operator(Kt)
    sec = manin_section(E, pullback_pf(L, phi), P)
    assert ord_section(sec, place(P.x.field, [0, 1])) == -1


def test_lambda_vanishing_order_zero_at_generic_place():
    K = FunctionField(PrimeField(5), "t")
    E, _ = legendre(K).depress()
    lam = kodaira_spencer_section(E)
    # every degree-1 point of the Legendre line over F_5 is bad or a dj-zero,
    # so a generic place must have degree 2
    v = place(K, [2, 0, 1])
    assert ord_at(E.j_invariant().derive(), v) == 0
    assert ord_section(lam, v) == 0


def test_divisor_of_dt_graded(Kt):
    E = legendre(Kt)
    S = GradedSection(Kt.one, 0, 1, E)
    assert divisor(S).degree == -2


def test_divisor_support_of_invariant_section():
    from maninmaps import manin_section, pullback_pf

    Kt = FunctionField(QQ, "t")
    E, P, phi = legendre_cover_2(QQ)
    _, L = legendre_operator(Kt)
    sec = manin_section(E, pullback_pf(L, phi), P)
    div = divisor(sec)
    K = P.x.field
    allowed = {place(K, [0, 1]), place(K, [-2, 1]), place(K, [2, 1]),
               place(K, [-2, 0, 1]), K.infinity()}
    assert set(div.support()) <= allowed
    assert div.degree == -4 - deg_omega(E)


def test_lambda_degree_identity_f5():
    K = FunctionField(PrimeField(5), "t")
    t = K.gen
    E = WeierstrassModel.short(K, t, t)
    lam = kodaira_spencer_section(E)
    assert divisor(lam).degree == -2 + (-2) * deg_omega(E)


def test_degree_identity_across_section_kinds():
    K = FunctionField(PrimeField(7), "t")
    E, _ = legendre(K).depress()
    d = deg_omega(E)
    lam = kodaira_spencer_section(E)
    assert divisor(lam).degree == -2 - 2 * d
    a4 = GradedSection(E.a4, 4, 0, E)
    a6 = GradedSection(E.a6, 6, 0, E)
    assert divisor(a4).degree == 4 * d
    assert divisor(a6).degree == 6 * d


def test_zero_section_rejected(Kt):
    E = legendre(Kt)
    S = GradedSection(Kt.zero, 1, 0, E)
    with pytest.raises(InputError):
        ord_section(S, Kt.infinity())
    with pytest.raises(InputError):
        divisor(S)


def test_model_independence_of_orders():
    # sections rebuilt from rescaled curve data have identical orders everywhere
    Ks = FunctionField(PrimeField(5), "s")
    E, P, _ = legendre_cover_2(PrimeField(5))
    s = Ks.gen
    lam = kodaira_spencer_section(E)
    nu = p_descent_section(E, P)
    base_places = set(divisor(lam).support()) | set(divisor(nu).support())
    Es, shift = E.depress()
    for c in (s, (s - 1) ** 2, Ks.from_int(3)):
        Ec = Es.rescale(c)
        Pc = CurvePoint(Ec, (P.x + shift) * c ** 2, P.y * c ** 3)
        lam_c = kodaira_spencer_section(Ec)
        nu_c = p_descent_section(Ec, Pc)
        for v in base_places:
            assert ord_section(lam_c, v) == ord_section(lam, v)
            assert ord_section(nu_c, v) == ord_section(nu, v)


def test_multiplicativity_of_divisors():
    K = FunctionField(PrimeField(5), "t")
    E, _ = legendre(K).depress()
    a4 = GradedSection(E.a4, 4, 0, E)
    lam = kodaira_spencer_section(E)
    prod = GradedSection(a4.value * lam.value, 4 + lam.weight, lam.diff_degree, E)
    assert prod.weight == 2 and prod.diff_degree == 1
    d1, d2, dp = divisor(a4), divisor(lam), divisor(prod)
    for v in set(d1.support()) | set(d2.support()) | set(dp.support()):
        assert dp.ord(v) == d1.ord(v) + d2.ord(v)
