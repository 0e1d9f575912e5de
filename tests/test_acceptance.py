"""Acceptance gate: the full exit criteria, one test per criterion.

Every expected value here is either copied from the worked examples the
package must reproduce bit for bit, or checked against an independent
computation (group law versus the explicit map, degree bookkeeping versus
divisor sums).  Each criterion prints one PASS line when it holds; any
failure fails the test outright.
"""

import random

from maninmaps import (
    CurvePoint,
    FunctionField,
    GradedSection,
    PFOperator,
    PrimeField,
    QQ,
    add,
    deg_omega,
    descent_bound_report,
    descent_divisor,
    divisor,
    divisor_of_function,
    hasse_data,
    kodaira_spencer_section,
    manin_section,
    manin_value,
    ord_section,
    p_descent_section,
    p_descent_value,
    parse_curve_function,
    pullback_pf,
    reduction_table_report,
    scalar_mul,
    tangency_report,
    verify_pf,
)
from maninmaps.elliptic import CurveFunction, RatX

from conftest import (
    legendre_biquadratic,
    legendre_cover_2,
    legendre_cover_a,
    legendre_operator,
    place,
    record_acceptance,
    reduction_corpus,
    run_derivation_rescaling_trials,
    run_model_rescaling_trials,
    run_operator_rescaling_trials,
    sextic_point_curve,
    tx_t_cover,
)


def report(n, text):
    record_acceptance("ACCEPTANCE %d: PASS - %s" % (n, text))


def test_criterion_1_golden_legendre_first_example():
    Kt = FunctionField(QQ, "t")
    _, L = legendre_operator(Kt)
    E, P, phi = legendre_cover_2(QQ)
    Ls = pullback_pf(L, phi)
    sec = manin_section(E, Ls, P)
    K = P.x.field
    s = K.gen
    expected = K.from_int(-8) / (s * (s ** 2 - 4) * (s ** 2 - 2))
    assert sec.value == expected  # bit-exact rational identity
    allowed = {place(K, [0, 1]), place(K, [-2, 1]), place(K, [2, 1]),
               place(K, [-2, 0, 1]), K.infinity()}
    div = divisor(sec)
    assert set(div.support()) <= allowed
    rep = tangency_report(E, Ls, P)
    assert rep.t_complex == []
    report(1, "section value -8/(s(s^2-4)(s^2-2)) exact; support and empty "
              "tangency set confirmed")


def test_criterion_2_golden_legendre_second_example():
    Kt = FunctionField(QQ, "t")
    _, L = legendre_operator(Kt)
    for a in (3, 5, -1):
        E, P, phi = legendre_cover_a(QQ, a)
        Ls = pullback_pf(L, phi)
        K = P.x.field
        s = K.gen
        av = K.from_int(a)
        expected = (-2 * av ** 2 * (av - 1) ** 2) / (
            s * (s ** 2 - av ** 2 * (av - 1)) * (s ** 2 - av * (av - 1) ** 2)
        )
        sec = manin_section(E, Ls, P)
        assert sec.value == expected, a
        assert tangency_report(E, Ls, P).t_complex == [], a
    report(2, "parametrized section values exact at a = 3, 5, -1 with empty "
              "tangency sets")


def test_criterion_3_golden_legendre_third_example():
    Kt = FunctionField(QQ, "t")
    _, L = legendre_operator(Kt)
    E, P2, P3, phi = legendre_biquadratic(QQ)
    Lu = pullback_pf(L, phi)
    Q = scalar_mul(3, P3) - P2
    rep = tangency_report(E, Lu, Q)
    K = P2.x.field
    u1 = place(K, [-1, 1])
    assert rep.orders[u1] == 1
    assert u1 not in rep.exceptional
    assert rep.contact_orders[u1] == 3
    report(3, "section of 3P3 - P2 vanishes to order exactly 1 at u = 1, "
              "off the exceptional set, contact order 3")


def test_criterion_4_verify_pf_golden_and_perturbations():
    Kt = FunctionField(QQ, "t")
    E, L = legendre_operator(Kt)
    assert verify_pf(E, L)
    t = Kt.gen
    rng = random.Random(97)
    rejected = 0
    attempts = 0
    while rejected < 20 and attempts < 60:
        attempts += 1
        A, B, C, F = L.A, L.B, L.C, L.F
        kind = rng.randrange(5)
        if kind == 0:
            A = A + rng.choice([Kt.one, t, t ** 2, 1 - t])
        elif kind == 1:
            B = B + rng.choice([Kt.one, t, t + 2])
        elif kind == 2:
            C = C + Kt.from_fraction(rng.randrange(1, 7), rng.randrange(1, 7))
        elif kind == 3:
            F = CurveFunction(E, F.rx,
                              F.ry * RatX.const(Kt.from_int(rng.randrange(2, 6))))
        else:
            F = F + parse_curve_function(rng.choice(["y", "y*x", "x"]), E)
        try:
            candidate = PFOperator(A, B, C, F)
        except Exception:
            continue
        assert not verify_pf(E, candidate)
        rejected += 1
    assert rejected == 20
    report(4, "known operator and witness accepted; 20 random perturbations "
              "all rejected")


def _manin_config_count():
    Kt = FunctionField(QQ, "t")
    _, L = legendre_operator(Kt)
    configs = 0
    for a in (3, 5, -1, 6, 7):
        E, P, phi = legendre_cover_a(QQ, a)
        Ls = pullback_pf(L, phi)
        K = P.x.field
        tK = phi.image
        vals = {}

        def M(pt):
            key = (pt.x, pt.y) if not pt.is_zero else None
            if key not in vals:
                vals[key] = manin_value(E, Ls, pt)
            return vals[key]

        P2, P3m = scalar_mul(2, P), scalar_mul(3, P)
        torsion = [CurvePoint(E, K.zero, K.zero), CurvePoint(E, K.one, K.zero),
                   CurvePoint(E, tK, K.zero)]
        assert M(P2) == 2 * M(P); configs += 1
        assert M(P3m) == M(P) + M(P2); configs += 1
        assert M(-P) == -M(P); configs += 1
        for T in torsion:
            assert M(T).is_zero(); configs += 1
            assert M(add(P, T)) == M(P); configs += 1
        assert M(add(torsion[0], torsion[1])).is_zero(); configs += 1
        assert M(CurvePoint.zero(E)).is_zero(); configs += 1
    # genuinely independent points on the biquadratic cover
    E, P2, P3, phi = legendre_biquadratic(QQ)
    Lu = pullback_pf(L, phi)
    v2, v3 = manin_value(E, Lu, P2), manin_value(E, Lu, P3)
    assert manin_value(E, Lu, add(P2, P3)) == v2 + v3; configs += 1
    assert manin_value(E, Lu, add(P2, -P3)) == v2 - v3; configs += 1
    assert manin_value(E, Lu, scalar_mul(2, P3)) == 2 * v3; configs += 1
    return configs


def _descent_config_count():
    configs = 0
    for p in (5, 7, 11):
        for builder in (legendre_cover_2, tx_t_cover):
            E, P, _ = builder(PrimeField(p))
            K = P.x.field
            vals = {}

            def mu(pt):
                key = (pt.x, pt.y) if not pt.is_zero else None
                if key not in vals:
                    vals[key] = p_descent_value(E, pt)
                return vals[key]

            P2, P3, P4 = (scalar_mul(n, P) for n in (2, 3, 4))
            assert mu(P2) == 2 * mu(P); configs += 1
            assert mu(P3) == mu(P) + mu(P2); configs += 1
            assert mu(P4) == mu(P) + mu(P3); configs += 1
            assert mu(-P) == -mu(P); configs += 1
            assert mu(add(P2, P2)) == 2 * mu(P2); configs += 1
            assert mu(CurvePoint.zero(E)).is_zero(); configs += 1
            if builder is legendre_cover_2:
                tK = -E.c2 - 1
                for T in (CurvePoint(E, K.zero, K.zero),
                          CurvePoint(E, K.one, K.zero),
                          CurvePoint(E, tK, K.zero)):
                    assert mu(T).is_zero(); configs += 1
                    assert mu(add(P, T)) == mu(P); configs += 1
    return configs


def test_criterion_5_homomorphism_suites():
    m_configs = _manin_config_count()
    assert m_configs >= 50
    mu_configs = _descent_config_count()
    assert mu_configs >= 50
    # the kernel contains every p-th multiple
    kernel = 0
    for p, builder, ks in ((5, legendre_cover_2, (1, 2, 3)),
                           (5, tx_t_cover, (1, 2)),
                           (7, legendre_cover_2, (1, 2)),
                           (7, tx_t_cover, (1,)),
                           (11, tx_t_cover, (1,)),
                           (11, legendre_cover_2, (1,))):
        E, P, _ = builder(PrimeField(p))
        for k in ks:
            assert p_descent_value(E, scalar_mul(p * k, P)).is_zero()
            kernel += 1
    assert kernel >= 10
    report(5, "additivity and torsion kill on %d + %d configurations; "
              "%d p-multiples in the kernel" % (m_configs, mu_configs, kernel))


def test_criterion_6_reduction_table_corpus():
    seen = set()
    curves = 0
    for label, E in reduction_corpus():
        rows = reduction_table_report(E)
        assert all(r.ok for r in rows), label
        curves += 1
        p = E.field.char
        for r in rows:
            kind = r.ktype.kind
            if kind in ("I", "I*"):
                kind += "|div" if r.ktype.m % p == 0 else "|prime"
            seen.add(kind)
    assert curves >= 10
    assert seen == {"I|div", "I|prime", "II", "III", "IV",
                    "I*|div", "I*|prime", "IV*", "III*", "II*"}
    report(6, "order table holds at every place of %d curves spanning all "
              "fiber-type columns" % curves)


def test_criterion_7_semistable_bound_suite():
    E5, P5, _ = legendre_cover_2(PrimeField(5))
    K5 = P5.x.field
    t5 = -E5.c2 - 1
    shifted = add(P5, CurvePoint(E5, t5, K5.zero))  # a second sampled section
    cases = [
        ("legendre cover F5", (E5, P5)),
        ("legendre cover F5, P + torsion", (E5, shifted)),
        ("legendre cover F7", legendre_cover_2(PrimeField(7))[:2]),
        ("legendre cover F11", legendre_cover_2(PrimeField(11))[:2]),
        ("sextic point curve F5", sextic_point_curve(5)),
    ]
    for label, (E, P) in cases:
        p = E.field.char
        rep = descent_bound_report(E, P, n_max=30)
        assert not rep.mu_zero, label
        assert rep.ok, (label, [c.name for c in rep.checks if not c.ok])
        # independent re-check of the membership statement
        nu = p_descent_section(E, P)
        dd = descent_divisor(E, P)
        nu_div = divisor(nu)
        for v in set(nu_div.support()) | set(dd.total.support()):
            assert nu_div.ord(v) >= -dd.total.ord(v), (label, str(v))
        w_o = sum(v.degree for v in rep.t_ordinary)
        w_s = sum(v.degree for v in rep.t_special)
        assert w_o + p * w_s <= rep.bound, label
    report(7, "membership and the weighted tangency bound hold on %d "
              "semistable curves at n_max = 30" % len(cases))


def test_criterion_8_degree_identities():
    checked = 0
    # graded sections across both characteristics
    for p in (5, 7):
        E, P, _ = legendre_cover_2(PrimeField(p))
        d = deg_omega(E)
        lam = kodaira_spencer_section(E)
        assert divisor(lam).degree == -2 - 2 * d
        nu = p_descent_section(E, P)
        assert divisor(nu).degree == -2 + (p - 2) * d
        A = hasse_data(E).section()
        assert divisor(A).degree == (p - 1) * d
        Es = lam.model
        assert divisor(GradedSection(Es.a4, 4, 0, Es)).degree == 4 * d
        assert divisor(GradedSection(Es.a6, 6, 0, Es)).degree == 6 * d
        checked += 5
    Kt = FunctionField(QQ, "t")
    Et, L = legendre_operator(Kt)
    for builder in (lambda: legendre_cover_2(QQ), lambda: legendre_cover_a(QQ, 3)):
        E, P, phi = builder()
        sec = manin_section(E, pullback_pf(L, phi), P)
        assert divisor(sec).degree == -4 - deg_omega(E)
        checked += 1
    E, P2, P3, phi = legendre_biquadratic(QQ)
    Q = scalar_mul(3, P3) - P2
    sec = manin_section(E, pullback_pf(L, phi), Q)
    assert divisor(sec).degree == -4 - deg_omega(E)
    checked += 1
    # rational functions have degree-0 divisors, differentials degree -2
    rng = random.Random(53)
    for _ in range(10):
        num = Kt.poly([rng.randrange(-9, 10) for _ in range(rng.randrange(1, 5))])
        den = Kt.poly([rng.randrange(-9, 10) for _ in range(rng.randrange(1, 5))])
        if num.is_zero() or den.is_zero():
            continue
        f = Kt.element(num, den)
        if f.is_constant():
            continue
        assert sum(p_.degree * m for p_, m in divisor_of_function(f)) == 0
        assert divisor(GradedSection(f, 0, 1, Et)).degree == -2
        checked += 2
    report(8, "degree identities exact for %d sections, functions and "
              "differentials" % checked)


def test_criterion_9_invariances():
    K = FunctionField(QQ, "s")
    s = K.gen
    rng = random.Random(59)
    model_trials = [s, s - 1] + [K.from_int(rng.randrange(2, 23)) for _ in range(8)]
    run_model_rescaling_trials(model_trials)
    derivation_trials = [s ** 2 + 1, s, s + 3, s ** 2 - 2] + [
        K.from_int(rng.randrange(2, 17)) for _ in range(6)
    ]
    run_derivation_rescaling_trials(derivation_trials)
    operator_trials = [K.from_int(2), s, K.from_fraction(3, 7) * s ** 2,
                       s ** 3 - 5] + [
        K.from_fraction(rng.randrange(1, 9), rng.randrange(1, 9)) for _ in range(6)
    ]
    run_operator_rescaling_trials(operator_trials)
    # characteristic p: orders of the twisted differential and of the descent
    # section are model-independent
    Ks = FunctionField(PrimeField(5), "s")
    E, P, _ = legendre_cover_2(PrimeField(5))
    lam = kodaira_spencer_section(E)
    nu = p_descent_section(E, P)
    places = set(divisor(lam).support()) | set(divisor(nu).support())
    Es, shift = E.depress()
    s5 = Ks.gen
    pool = [s5, (s5 - 1) ** 2, Ks.from_int(3), s5 ** 2 + 2, s5 + 1]
    trials = pool + [Ks.from_int(rng.randrange(2, 5)) * s5 ** rng.randrange(0, 3)
                     for _ in range(5)]
    for c in trials:
        Ec = Es.rescale(c)
        Pc = CurvePoint(Ec, (P.x + shift) * c ** 2, P.y * c ** 3)
        lam_c = kodaira_spencer_section(Ec)
        nu_c = p_descent_section(Ec, Pc)
        for v in places:
            assert ord_section(lam_c, v) == ord_section(lam, v)
            assert ord_section(nu_c, v) == ord_section(nu, v)
    report(9, "ten model, derivation and operator rescaling trials each leave "
              "the sections and all orders unchanged")
