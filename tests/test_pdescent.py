import random
from pathlib import Path

import pytest

from maninmaps import (
    CoverMap,
    CurvePoint,
    FunctionField,
    HypothesisError,
    InputError,
    PrimeField,
    QQ,
    WeierstrassModel,
    XPoly,
    component_order,
    deg_omega,
    descent_bound_report,
    descent_divisor,
    divisor,
    hasse_data,
    kodaira_spencer_section,
    kodaira_type,
    ord_section,
    p_descent_section,
    p_descent_value,
    parse_element,
    reduction_table_report,
    scalar_mul,
    tangency_scan,
)
from maninmaps.cli import Manifest
from maninmaps.elliptic import _fiber_at, _fibers, twist_exponent
from maninmaps.pdescent import _node_contact, _short_with_point, _table_expectation
from maninmaps.polynomials import _DensePoly

import local_oracle
import twisted_oracle
from conftest import (
    legendre,
    legendre_cover_2,
    legendre_cover_a,
    place,
    reduction_corpus,
    sextic_point_curve,
    tx_t_cover,
)


@pytest.fixture
def K5():
    return FunctionField(PrimeField(5), "t")


# -- Hasse data


def test_hasse_split_f5_example(K5):
    t = K5.gen
    E = WeierstrassModel.short(K5, t, t)
    hd = hasse_data(E)
    assert hd.A == 2 * t
    assert hd.M == XPoly(K5, [K5.zero, K5.one])


def test_hasse_supersingular_constant(K5):
    E = WeierstrassModel.short(K5, K5.zero, K5.one)
    assert hasse_data(E).A.is_zero()


def test_hasse_rejects_char_zero():
    K = FunctionField(QQ, "t")
    with pytest.raises(InputError):
        hasse_data(WeierstrassModel.short(K, K.gen, K.gen))


def test_hasse_reexpansion_random_models():
    # (A, M) against the power f^((p-1)/2) expanded in full, 20 draws per p
    rng = random.Random(17)
    count = 0
    primes = (5, 7, 11, 13, 17)
    for p in primes:
        K = FunctionField(PrimeField(p), "t")
        while count % 20 or count // 20 < primes.index(p) + 1:
            a4 = K.poly([rng.randrange(p) for _ in range(rng.randrange(1, 4))])
            a6 = K.poly([rng.randrange(p) for _ in range(rng.randrange(1, 4))])
            try:
                E = WeierstrassModel.short(K, K.element(a4), K.element(a6))
            except HypothesisError:
                continue
            hd = hasse_data(E)
            assert (hd.A, hd.M) == twisted_oracle.hasse_split(E), (p, E.a4, E.a6)
            count += 1
    assert count == 100


@pytest.mark.parametrize("p", [101, 211])
def test_hasse_split_matches_the_power_on_legendre_covers(p):
    E, _, _ = legendre_cover_2(PrimeField(p))
    hd = hasse_data(E)
    assert hd.M.degree == (p - 3) // 2
    assert (hd.A, hd.M) == twisted_oracle.hasse_split(E)


def test_hasse_data_forms_no_power_in_x(monkeypatch):
    E, _, _ = legendre_cover_2(PrimeField(13))
    E.depress()  # kept on the model; depressing takes powers of c2
    calls = []

    def spy(name, fn):
        def wrapped(*args):
            calls.append(name)
            return fn(*args)
        return wrapped

    monkeypatch.setattr(XPoly, "__mul__", spy("XPoly.__mul__", XPoly.__mul__))
    monkeypatch.setattr(_DensePoly, "__pow__", spy("_DensePoly.__pow__", _DensePoly.__pow__))
    hasse_data(E)
    assert calls == []


# -- the twisted differential


def test_lambda_formula_f5(K5):
    t = K5.gen
    E = WeierstrassModel.short(K5, t, t)
    lam = kodaira_spencer_section(E)
    j = E.j_invariant()
    # 1/18 = 2 in F_5 and a4/a6 = 1
    assert lam.value == 2 * j.derive() / j
    assert lam.weight == -2 and lam.diff_degree == 1


def test_lambda_order_at_multiplicative_place(K5):
    E = legendre(K5)
    lam = kodaira_spencer_section(E)
    v = place(K5, [0, 1])
    assert kodaira_type(E, v).symbol() == "I2"
    assert ord_section(lam, v) == -1


def test_lambda_rejects_isotrivial(K5):
    E = WeierstrassModel.short(K5, K5.one, K5.one)
    with pytest.raises(HypothesisError):
        kodaira_spencer_section(E)


def test_lambda_rejects_a6_zero(K5):
    E = WeierstrassModel.short(K5, K5.gen, K5.zero)
    with pytest.raises(HypothesisError):
        kodaira_spencer_section(E)


def test_lambda_rejects_pth_power_j(K5):
    t = K5.gen
    # a6 = 2 + t^5 makes j a 5th power while the curve is not isotrivial
    E = WeierstrassModel.short(K5, K5.from_int(-3), K5.from_int(2) + t ** 5)
    assert not E.is_isotrivial()
    with pytest.raises(HypothesisError):
        kodaira_spencer_section(E)


# -- the order table


def test_reduction_table_on_corpus():
    seen = set()
    for label, E in reduction_corpus():
        rows = reduction_table_report(E)
        p = E.field.char
        for r in rows:
            assert r.ok, (label, str(r.place), r.ktype.symbol(), r.ell, r.expected)
            kind = r.ktype.kind
            if kind in ("I", "I*"):
                kind += "|p divides m" if (r.ktype.m % p == 0) else "|p prime to m"
            seen.add(kind)
    assert seen == {
        "I|p divides m", "I|p prime to m", "II", "III", "IV",
        "I*|p divides m", "I*|p prime to m", "IV*", "III*", "II*",
    }


def test_reduction_table_negative_detection():
    # a corrupted order must be flagged by the table predicate
    from maninmaps.elliptic import KodairaType

    _, pred = _table_expectation(KodairaType("I", 2), 5)
    assert pred(-1) and not pred(0) and not pred(-2)
    _, pred = _table_expectation(KodairaType("I*", 1), 7)
    assert pred(-2) and not pred(-1)
    _, pred = _table_expectation(KodairaType("II*"), 5)
    assert pred(-2) and pred(-1) and not pred(-3)


# -- the descent map


def test_mu_kills_two_torsion(K5):
    E, P, _ = legendre_cover_2(PrimeField(5))
    K = P.x.field
    tK = -E.c2 - 1
    T = CurvePoint(E, tK, K.zero)
    assert p_descent_value(E, T).is_zero()
    assert p_descent_value(E, CurvePoint.zero(E)).is_zero()


def test_mu_kills_p_multiples():
    for p in (5, 7):
        E, P, _ = legendre_cover_2(PrimeField(p))
        assert p_descent_value(E, scalar_mul(p, P)).is_zero()


def test_mu_additive_on_samples():
    rng = random.Random(23)
    for p in (5, 7, 11):
        E, P, _ = tx_t_cover(PrimeField(p))
        vals = {}
        for n in (1, 2, 3, 4):
            vals[n] = p_descent_value(E, scalar_mul(n, P))
        assert vals[2] == 2 * vals[1]
        assert vals[3] == vals[1] + vals[2]
        assert vals[4] == vals[1] + vals[3]


def test_mu_nonzero_on_generator():
    E, P, _ = legendre_cover_2(PrimeField(5))
    assert not p_descent_value(E, P).is_zero()


def test_mu_derivation_independent(K5):
    # the two differential ratios in the formula are derivation-independent:
    # recompute with the derivation scaled by g = t^2 + 1 and compare
    E, P, _ = legendre_cover_2(PrimeField(5))
    Es, shift = E.depress()
    Ps = CurvePoint(Es, P.x + shift, P.y, check=False)
    K = Ps.x.field
    g = K.gen ** 2 + 1
    lam = kodaira_spencer_section(Es).value
    hd = hasse_data(Es)
    x, y = Ps.x, Ps.y
    disc = Es.discriminant()
    # scaled derivation: every derivative and the differential coefficient
    # pick up the same factor g, which cancels in both ratios
    z = (g * x.derive()) / (y * 2 * (g * lam)) - (
        x * x * 12 + ((g * disc.derive() / disc) / (g * lam)) * x + Es.a4 * 8
    ) / (y * 12)
    mu_scaled = y * hd.M.evaluate(x) + z ** E.field.char - hd.A * z
    assert mu_scaled == p_descent_value(E, P)


# -- nu and its divisor


def test_nu_zero_for_p_multiple():
    E, P, _ = legendre_cover_2(PrimeField(5))
    nu = p_descent_section(E, scalar_mul(5, P))
    assert nu.is_zero()


def test_nu_degree_identity():
    for p in (5, 7):
        E, P, _ = legendre_cover_2(PrimeField(p))
        nu = p_descent_section(E, P)
        assert divisor(nu).degree == -2 + (p - 2) * deg_omega(E)


def test_nu_bounded_by_descent_divisor():
    E, P, _ = legendre_cover_2(PrimeField(5))
    nu = p_descent_section(E, P)
    dd = descent_divisor(E, P)
    nu_div = divisor(nu)
    for v in set(nu_div.support()) | set(dd.total.support()):
        assert nu_div.ord(v) >= -dd.total.ord(v)


# -- component groups and the divisor D


def on_identity_component(E, P, v):
    """Whether P reduces to a smooth point of the v-minimal fiber at a
    semistable place v: no contact with the node."""
    return _node_contact(E, P, v, *_fiber_at(E, v)) == 0


def test_component_order_divides_two_at_i2():
    E, P, _ = legendre_cover_2(PrimeField(5))
    K = P.x.field
    v = place(K, [2, 1])
    assert kodaira_type(E, v).symbol() == "I2"
    order = component_order(E, P, v)
    assert order in (1, 2)
    assert on_identity_component(E, scalar_mul(order, P), v)


def test_component_test_refuses_additive(K5):
    t = K5.gen
    E = WeierstrassModel.short(K5, t, t)
    P = CurvePoint(E, K5.from_int(-1), K5.from_int(2))
    with pytest.raises(HypothesisError, match="component order computed only at semistable places"):
        component_order(E, P, place(K5, [0, 1]))


@pytest.mark.parametrize(
    "a4, a6, x, y",
    [
        # a4 vanishes at t, but the discriminant 4t^3 + 27 does not
        ("t", "1", "0", "1"),
        # x(P) = t reduces to the node (-3b/2a, 0) of y^2 = x^3 + x + 0,
        # which a good fiber does not have
        ("1", "4*t^3 + t^2 + 4*t", "t", "t"),
    ],
)
def test_component_test_at_good_places(K5, a4, a6, x, y):
    # the fiber at t is I0, so P is on the identity component and its
    # component order is 1; the test used to read "additive" from a4 alone
    E = WeierstrassModel.short(K5, parse_element(a4, K5), parse_element(a6, K5))
    P = CurvePoint(E, parse_element(x, K5), parse_element(y, K5))
    v = place(K5, [0, 1])
    assert kodaira_type(E, v).symbol() == "I0"
    assert on_identity_component(E, P, v) is True
    assert local_oracle.in_identity_component(E, P, v) is True
    assert component_order(E, P, v) == 1


def test_descent_divisor_no_p_part():
    E, P, _ = legendre_cover_2(PrimeField(5))
    dd = descent_divisor(E, P)
    assert dd.p_part.entries == []
    assert dd.total.entries == dd.zeros.scale(4).entries


def test_descent_divisor_needs_semistable(K5):
    t = K5.gen
    E = WeierstrassModel.short(K5, t, t)
    P = CurvePoint(E, K5.from_int(-1), K5.from_int(2))
    with pytest.raises(HypothesisError):
        descent_divisor(E, P)


# -- the tangency scan and the global bound


def test_scan_agrees_with_group_law_oracle():
    from maninmaps.funcfield import _local_orders

    from local_oracle import intersection_with_zero

    E, P, _ = legendre_cover_2(PrimeField(5))
    Es, Ps = _short_with_point(E, P)
    scan = tangency_scan(Es, Ps, n_max=8)
    oracle = {}
    for n in (1, 2, 3, 4, 6, 7, 8):
        Q = scalar_mul(n, P)
        for v in _local_orders(Q.x):
            i = intersection_with_zero(E, Q, v)
            if i > 0:
                oracle[v] = max(oracle.get(v, 0), i)
        i = intersection_with_zero(E, Q, P.x.field.infinity())
        if i > 0:
            inf = P.x.field.infinity()
            oracle[inf] = max(oracle.get(inf, 0), i)
    # everything with contact >= 2 matches exactly; order-1 contacts are only
    # tracked at watched places
    for v, i in oracle.items():
        if i >= 2:
            assert scan.iotas.get(v) == i
    for v, i in scan.iotas.items():
        assert oracle.get(v, 0) == i


def test_bound_report_legendre_chars():
    for p in (5, 7, 11):
        E, P, _ = legendre_cover_2(PrimeField(p))
        rep = descent_bound_report(E, P, n_max=30)
        assert rep.d == 1 and rep.delta == 5
        assert rep.bound == p * (-2 - rep.d) + (p - 1) * rep.delta
        assert not rep.mu_zero
        assert rep.ok, [c.name for c in rep.checks if not c.ok]


def test_bound_report_sextic_curve():
    E, P = sextic_point_curve(5)
    rep = descent_bound_report(E, P, n_max=30)
    assert rep.ok, [(c.name, c.detail) for c in rep.checks if not c.ok]
    assert rep.delta == 12 and rep.d == 1


def test_bound_report_refuses_additive():
    K = FunctionField(PrimeField(5), "t")
    t = K.gen
    E = WeierstrassModel.short(K, t, t)
    P = CurvePoint(E, K.from_int(-1), K.from_int(2))
    with pytest.raises(HypothesisError):
        descent_bound_report(E, P, n_max=10)


def _tangent_legendre_cover(p, k=3):
    """Legendre pulled back along t = x - y^2/(x(x-1)) with x = -u^2k(2+u^2k) and
    y = u^k(2+u^2k)(1+u), so that P = (x, y) is a point.  P meets the 2-torsion
    section (0, 0) at u = 0 with contact k, so 2P meets O there with contact k."""
    K = FunctionField(PrimeField(p), "u")
    u = K.gen
    x = -u ** (2 * k) * (u ** (2 * k) + 2)
    y = u ** k * (u ** (2 * k) + 2) * (u + 1)
    phi = CoverMap(K, FunctionField(PrimeField(p), "t"), x - y ** 2 / (x * (x - 1)))
    E = legendre(phi.target).pullback(phi)
    return E, CurvePoint(E, x, y)


def _check_known_tangency(p, k):
    E, P = _tangent_legendre_cover(p, k)
    u = place(P.x.field, [0, 1])
    rep = descent_bound_report(E, P, 12)
    assert rep.iotas[u] == k
    assert u in rep.t_ordinary
    assert not rep.mu_zero
    # equality, attained by iota - 1 + ord_u A with A a unit at u
    assert ord_section(hasse_data(E).section(), u) == 0
    (check,) = [c for c in rep.checks if c.name == "refined local bound at u"]
    assert check.ok
    assert check.detail == (
        "ord(nu) = %d >= min(p(iota-1) - ord D, iota - 1 + ord A) = %d (iota=%d)"
        % (k - 1, k - 1, k)
    )


@pytest.mark.parametrize("p", [5, 7])
def test_bound_report_known_tangency_off_s(p):
    _check_known_tangency(p, 3)


@pytest.mark.parametrize("p", [5, 7])
def test_bound_report_known_tangency_of_contact_four(p):
    _check_known_tangency(p, 4)


def test_bound_report_refuses_the_contact_five_cover_over_f5():
    # the fiber at u = -2 is I20, and the bound needs p prime to 20
    E, P = _tangent_legendre_cover(5, 5)
    with pytest.raises(HypothesisError, match="p divides the component group order 20 at u \\+ 2"):
        descent_bound_report(E, P, 12)


def test_hasse_section_degree():
    E, _, _ = legendre_cover_2(PrimeField(5))
    sec = hasse_data(E).section()
    assert divisor(sec).degree == 4 * deg_omega(E)


# -- local data against the minimal-model oracle

MANIFESTS = Path(__file__).resolve().parent.parent / "manifests"


def _outcome(fn, *args):
    try:
        return fn(*args)
    except HypothesisError:
        return "refused"


def _local_mismatches(E, P, seen):
    """Compare kodaira_type and component_order(nP) at every curve place, and
    the identity-component test of nP at the semistable ones, n <= 6 or until
    nP = O, with the minimal-model oracle.

    Returns the mismatches; adds to ``seen`` the cases the comparison met.
    """
    multiples = [P]
    # x(nP) grows like n^2 deg x(P): stop once it passes degree 60, which only
    # the combination 3 P3 - P2 of the biquadratic manifest does (at n = 2)
    while len(multiples) < 6 and multiples[-1].x.num.degree <= 60:
        multiples.append(multiples[-1] + P)
        if multiples[-1].is_zero:
            break
    mismatches = []
    for v, *_ in _fibers(E):
        k = twist_exponent(E, v)
        if k and not v.is_infinity:
            seen.add("finite k > 0" if k > 0 else "finite k < 0")
        kt = kodaira_type(E, v)
        if kt != local_oracle.kodaira_type(E, v):
            mismatches.append(("kodaira_type", E, v))
        for n, Q in enumerate(multiples, 1):
            if kt.is_semistable:
                got = on_identity_component(E, Q, v)
                if got != local_oracle.in_identity_component(E, Q, v):
                    mismatches.append(("identity component", E, n, P, v))
                if not got:
                    seen.add("on node")
            order = _outcome(component_order, E, Q, v)
            if order != _outcome(local_oracle.component_order, E, Q, v):
                mismatches.append(("component_order", E, n, P, v))
            if kt.is_semistable and kt.m >= 2:
                seen.add("component order")
            elif order == "refused" and not kt.is_semistable:
                seen.add("additive refusal")
    return mismatches


def _twist(E, P, c):
    """The model and point moved by (a4, a6, x, y) -> (c^4 a4, c^6 a6, c^2 x, c^3 y)."""
    E, P = _short_with_point(E, P)
    Ec = WeierstrassModel.short(E.field, E.a4 * c ** 4, E.a6 * c ** 6)
    return Ec, CurvePoint(Ec, P.x * c ** 2, P.y * c ** 3)


def _oracle_corpus():
    """[(model, point)]: the bundled manifests, Legendre with its 2-torsion
    and Legendre covers over F_5..F_13, the covers also twisted by
    (s + 1)^(+-1) so that finite places with k != 0 occur."""
    out = []
    for path in sorted(MANIFESTS.glob("*.cfg")):
        man = Manifest(str(path))
        out.extend((man.model, P) for P in man.points.values())
    for constants in (QQ, PrimeField(5)):
        K = FunctionField(constants, "t")
        E = legendre(K)
        out.extend((E, CurvePoint(E, x, K.zero)) for x in (K.zero, K.one, K.gen))
    for p in (5, 7, 11, 13):
        for E, P, _ in (legendre_cover_2(PrimeField(p)), legendre_cover_a(PrimeField(p), 3)):
            c = P.x.field.gen + 1
            out += [(E, P), _twist(E, P, c), _twist(E, P, c.field.one / c)]
    return out


def test_local_data_matches_minimal_model_oracle():
    seen = set()
    mismatches = []
    for E, P in _oracle_corpus():
        mismatches += _local_mismatches(E, P, seen)
    assert mismatches == []
    assert seen == {"finite k > 0", "finite k < 0", "on node", "additive refusal",
                    "component order"}


def test_local_data_matches_oracle_on_drawn_curves():
    pytest.importorskip("hypothesis")
    from hypothesis import assume, given, settings
    from hypothesis import strategies as st

    fields = [FunctionField(PrimeField(p), "u") for p in (5, 7, 11, 13)]
    fields.append(FunctionField(QQ, "t"))
    # (a + b T + c T^2) / (T + d)^e, e in {0, 1}
    element = st.tuples(
        st.integers(-3, 3), st.integers(-3, 3), st.integers(-2, 2),
        st.integers(-2, 2), st.booleans(),
    )

    def make(K, data):
        a, b, c, d, divide = data
        T = K.gen
        e = K.from_int(a) + K.from_int(b) * T + K.from_int(c) * T * T
        return e / (T + K.from_int(d)) if divide else e

    @settings(max_examples=25, deadline=None)
    @given(st.sampled_from(fields), element, element, element)
    def check(K, a4_data, x_data, y_data):
        a4, x, y = make(K, a4_data), make(K, x_data), make(K, y_data)
        a6 = y * y - x ** 3 - a4 * x
        assume(not (a4 ** 3 * 4 + a6 ** 2 * 27).is_zero())
        E = WeierstrassModel.short(K, a4, a6)
        assert _local_mismatches(E, CurvePoint(E, x, y), set()) == []

    check()
