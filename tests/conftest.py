"""Shared builders for the test corpus.

Curves are constructed over covers picked so that every point has small,
often polynomial, coordinates; place constructors take integer coefficient
lists, ascending.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import pytest

from maninmaps import (
    CoverMap,
    CurvePoint,
    FunctionField,
    PFOperator,
    PrimeField,
    QQ,
    WeierstrassModel,
    XPoly,
    parse_curve_function,
    pullback_pf,
)


def field_over(constants, var):
    return FunctionField(constants, var)


def legendre(K):
    """y^2 = x(x-1)(x-t) over the given function field (variable name free)."""
    t = K.gen
    return WeierstrassModel.from_cubic(
        XPoly(K, [K.zero, t, -(K.one + t), K.one])
    )


def legendre_operator(K):
    """The known second-order operator for the Legendre family over K."""
    E = legendre(K)
    t = K.gen
    F = parse_curve_function("y/(2*(x-t)^2)", E)
    return E, PFOperator(t * (1 - t), 1 - 2 * t, K.from_fraction(-1, 4), F)


def fresh(L):
    """L as a new, unverified operator: ``find_pf`` returns its result verified."""
    return PFOperator(L.A, L.B, L.C, L.F)


def perturbed_operators(E, L):
    """(kind, operator) for L with one of A, B, C or the witness F changed."""
    from maninmaps import CurveFunction, RatX

    K = E.field
    F = L.F
    x_part = F.rx + RatX.from_xpoly(XPoly.x(K))
    return [
        ("A + t", PFOperator(L.A + K.gen, L.B, L.C, F)),
        ("B + 1", PFOperator(L.A, L.B + 1, L.C, F)),
        ("2C", PFOperator(L.A, L.B, L.C * 2, F)),
        ("2 ry", PFOperator(L.A, L.B, L.C, CurveFunction(E, F.rx, F.ry + F.ry))),
        ("rx + x", PFOperator(L.A, L.B, L.C, CurveFunction(E, x_part, F.ry))),
    ]


def legendre_cover_2(constants, var="s"):
    """Legendre pulled back along t = 2 - s^2/2, with P = (2, s)."""
    K = FunctionField(constants, var)
    s = K.gen
    Kt = FunctionField(constants, "t")
    phi = CoverMap(K, Kt, K.from_int(2) - s ** 2 / 2)
    E = legendre(Kt).pullback(phi)
    P = CurvePoint(E, K.from_int(2), s)
    return E, P, phi


def legendre_cover_a(constants, a, var="s"):
    """Legendre pulled back so that (a, s) is a point: s^2 = a(a-1)(a-t)."""
    K = FunctionField(constants, var)
    s = K.gen
    av = K.from_int(a)
    Kt = FunctionField(constants, "t")
    phi = CoverMap(K, Kt, (av ** 2 * (av - 1) - s ** 2) / (av * (av - 1)))
    E = legendre(Kt).pullback(phi)
    P = CurvePoint(E, av, s)
    return E, P, phi


def legendre_biquadratic(constants):
    """The rational biquadratic cover carrying P2 = (2, s2) and P3 = (3, s3)."""
    K = FunctionField(constants, "u")
    u = K.gen
    s2 = (u ** 2 - 6 * u + 3) / (u ** 2 - 3)
    s3 = (-3 * u ** 2 + 6 * u - 9) / (u ** 2 - 3)
    Kt = FunctionField(constants, "t")
    phi = CoverMap(K, Kt, K.from_int(2) - s2 ** 2 / 2)
    E = legendre(Kt).pullback(phi)
    return E, CurvePoint(E, K.from_int(2), s2), CurvePoint(E, K.from_int(3), s3), phi


def tx_t_cover(constants, var="u"):
    """y^2 = x^3 + t x + t pulled back along t = (u^2-1)/2, with P = (1, u)."""
    K = FunctionField(constants, var)
    u = K.gen
    Kt = FunctionField(constants, "t")
    phi = CoverMap(K, Kt, (u ** 2 - 1) / 2)
    t = Kt.gen
    E = WeierstrassModel.short(Kt, t, t).pullback(phi)
    return E, CurvePoint(E, K.one, u), phi


def sextic_point_curve(p=5):
    """y^2 = x^3 - 3x + (u^6 - u^3 + 3u) over F_p(u): semistable, P = (u, u^3)."""
    K = FunctionField(PrimeField(p), "u")
    u = K.gen
    E = WeierstrassModel.short(K, K.from_int(-3), u ** 6 - u ** 3 + 3 * u)
    return E, CurvePoint(E, u, u ** 3)


def inflate(h, i, e):
    """x^i h(x^e) as an ascending coefficient list."""
    out = [0] * (i + e * (len(h) - 1) + 1)
    out[i::e] = h
    return out


def place(K, ints):
    """Finite place from ascending integer coefficients."""
    return K.place(K.poly(ints))


def count_calls(monkeypatch, names):
    """{name: 0} for library functions, each wrapped where a library module
    binds it so that every call through the library adds 1."""
    from maninmaps import elliptic, funcfield, maninmap, pdescent, sections

    calls = dict.fromkeys(names, 0)
    for name in names:
        for module in (elliptic, funcfield, maninmap, pdescent, sections):
            if hasattr(module, name):
                def counting(*args, _inner=getattr(module, name), _name=name):
                    calls[_name] += 1
                    return _inner(*args)
                monkeypatch.setattr(module, name, counting)
    return calls


def reduction_corpus():
    """Curves spanning every reduction type the order table distinguishes.

    Returns [(label, model)]; expected types are asserted in the tests that
    consume this corpus.
    """
    out = []
    for p in (5, 7, 11):
        K = FunctionField(PrimeField(p), "t")
        out.append(("legendre/F%d" % p, legendre(K)))
    for p in (5, 7):
        K = FunctionField(PrimeField(p), "t")
        t = K.gen
        out.append(("x^3+tx+t/F%d" % p, WeierstrassModel.short(K, t, t)))
    K5 = FunctionField(PrimeField(5), "t")
    t = K5.gen
    out.append(("IV at 0/F5", WeierstrassModel.short(K5, t ** 2, t ** 2)))
    out.append(("IV* at 0/F5", WeierstrassModel.short(K5, t ** 3, t ** 4)))
    out.append(("II* at 0/F5", WeierstrassModel.short(K5, t ** 4, t ** 5)))
    # I_5 at (t) with p = 5 dividing m, j not a 5th power
    out.append((
        "I5 at 0/F5",
        WeierstrassModel.short(K5, K5.from_int(-3), 2 + t ** 5 * (1 + t)),
    ))
    # I_5* at (t)
    out.append((
        "I5* at 0/F5",
        WeierstrassModel.short(K5, 3 * t ** 2, t ** 3 * (1 + t ** 5 + t ** 6)),
    ))
    K7 = FunctionField(PrimeField(7), "t")
    t7 = K7.gen
    out.append(("I1* at 0/F7", WeierstrassModel.short(K7, t7 ** 2, t7 ** 3 * (2 + t7))))
    E, _ = sextic_point_curve(5)
    out.append(("sextic point curve/F5", E))
    ELs, _, _ = legendre_cover_2(PrimeField(5))
    out.append(("legendre cover/F5(s)", ELs))
    return out


@pytest.fixture(scope="session")
def rationals():
    return QQ


ACCEPTANCE_LINES = []


def record_acceptance(line):
    ACCEPTANCE_LINES.append(line)
    print(line, flush=True)


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


# -- shared invariance drivers (used by unit tests and the acceptance gate)


def compose_xpoly(p, q):
    acc = XPoly.zero(p.field)
    for coeff in reversed(p.coeffs):
        acc = acc * q + XPoly.const(coeff.field, coeff)
    return acc


def rescale_operator_const(L, E_new, c):
    """Transport an operator along (x, y) -> (c^2 x, c^3 y), c constant."""
    from maninmaps import CurveFunction, RatX

    K = E_new.field
    sub = XPoly(K, [K.zero, K.one / (c * c)])

    def move(r, extra):
        num = compose_xpoly(r.num, sub).scale(extra)
        den = compose_xpoly(r.den, sub)
        return RatX(K, num, den)

    F = CurveFunction(E_new, move(L.F.rx, K.one), move(L.F.ry, K.one / c ** 3))
    return PFOperator(L.A * c, L.B * c, L.C * c, F)


def run_model_rescaling_trials(trials):
    """The invariant section survives x-shifts and (c^2, c^3)-rescalings.

    ``trials`` is a list of rescaling elements; non-constant entries get a
    freshly solved operator, constant ones a transported witness.
    """
    from maninmaps import divisor, find_pf, manin_section, ord_section, verify_pf

    Kt = FunctionField(QQ, "t")
    E, L = legendre_operator(Kt)
    Es, P, phi = legendre_cover_2(QQ)
    Ls = pullback_pf(L, phi)
    base_sec = manin_section(Es, Ls, P)
    places = divisor(base_sec).support()
    Ed, shift = Es.depress()
    Pd = CurvePoint(Ed, P.x + shift, P.y)
    Ld = find_pf(Ed, pole_bound=12)
    assert manin_section(Ed, Ld, Pd).value == base_sec.value
    for c in trials:
        Ec = Ed.rescale(c)
        Pc = CurvePoint(Ec, Pd.x * c ** 2, Pd.y * c ** 3)
        if c.is_constant():
            Lc = rescale_operator_const(Ld, Ec, c)
            assert verify_pf(Ec, Lc)
        else:
            Lc = find_pf(Ec, pole_bound=40)
            assert verify_pf(Ec, fresh(Lc))
        sec_c = manin_section(Ec, Lc, Pc)
        assert sec_c.value * c == base_sec.value
        for v in places:
            assert ord_section(sec_c, v) == ord_section(base_sec, v)


def run_derivation_rescaling_trials(scales):
    """Recompute the section with the derivation g * d/ds and compare."""
    from maninmaps import manin_section, pullback_pf, value_at_O

    Kt = FunctionField(QQ, "t")
    E, L = legendre_operator(Kt)
    Es, P, phi = legendre_cover_2(QQ)
    Ls = pullback_pf(L, phi)
    base_sec = manin_section(Es, Ls, P)
    for g in scales:
        Lg = Ls.rescale_derivation(g)
        x, y = P.x, P.y
        xp = g * x.derive()
        df_at = Es.cubic().map_coeffs(lambda c: g * c.derive()).evaluate(x)
        FP = Lg.F.evaluate(P)
        FO = value_at_O(Lg.F)
        inner = xp * (-df_at) / (y ** 3 * 2) + g * (xp / y).derive()
        m_scaled = FP - FO + Lg.A * inner + Lg.B * (xp / y)
        assert m_scaled / Lg.A / (g * g) == base_sec.value


def run_operator_rescaling_trials(consts):
    from maninmaps import manin_section, pullback_pf

    Kt = FunctionField(QQ, "t")
    E, L = legendre_operator(Kt)
    Es, P, phi = legendre_cover_2(QQ)
    Ls = pullback_pf(L, phi)
    base_sec = manin_section(Es, Ls, P)
    for c in consts:
        assert manin_section(Es, Ls.scale(c), P).value == base_sec.value
