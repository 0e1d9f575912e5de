"""The tangency scan against a test-only oracle: the per-place scan.

``reference_tangency_scan`` is the scan as it was first written: for every
special place it rebuilds x(nP) = phi_n / psi_n^2 for every multiple n and
takes valuations of fresh field elements, and it takes the maximum over all
n.  The library stops at each place's first contact, never forms phi_n, and
reads ord_v x(nP) off the valuations of psi_n-1, psi_n and psi_n+1 only
where psi_n leaves room for a pole; both must report the same contacts and
torsion order.
"""

import hashlib
import json
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import pytest

from maninmaps import (
    CurvePoint,
    FieldElement,
    FunctionField,
    PrimeField,
    WeierstrassModel,
    add,
    divisor,
    hasse_invariant_section,
    kodaira_spencer_section,
    tangency_scan,
)
from maninmaps import pdescent
from maninmaps.cli import Manifest, run
from maninmaps.elliptic import curve_places, twist_exponent
from maninmaps.errors import ConsistencyError, InputError
from maninmaps.funcfield import ord_at, places_of_poly
from maninmaps.pdescent import _short_with_point, _ward, _ward_start
from maninmaps.polynomials import Poly

from conftest import legendre_cover_2, sextic_point_curve
from scan_oracle import division_values_oracle

MANIFESTS = Path(__file__).resolve().parent.parent / "manifests"


def cleared_model(E, P):
    """(Escan, x0, y0, need): the smallest twist of a short model and point
    that makes a4, a6, x(P), y(P) polynomials, and its exponent per place."""
    K = E.field
    need = {}
    for den, w in ((E.a4.den, 4), (E.a6.den, 6), (P.x.den, 2), (P.y.den, 3)):
        if den.is_one():
            continue
        for pi, e in places_of_poly(den, K):
            need[pi] = max(need.get(pi, 0), -(-e // w))
    cpoly = Poly.one(K.constants)
    for pi, e in need.items():
        cpoly = cpoly * pi.pi ** e
    c = FieldElement(K, cpoly)
    a4 = E.a4 * c ** 4
    a6 = E.a6 * c ** 6
    x0 = P.x * c ** 2
    y0 = P.y * c ** 3
    return WeierstrassModel.short(K, a4, a6), x0, y0, need


def reference_contacts(E, P, n_max, watch_places=()):
    """(contacts, iotas, torsion_order) by the per-place loop over all
    multiples: contacts[v][n] = (nP . O)_v at every special place v and
    scanned n with x(nP) defined and nonzero; iotas holds the contacts of
    order >= 2 found elsewhere, each maximized over n.  The division values
    come from the textbook recurrence of ``scan_oracle``."""
    p = E.field.char
    E, P = _short_with_point(E, P)
    K = E.field
    Escan, x0, y0, need = cleared_model(E, P)
    a4, a6 = Escan.a4, Escan.a6

    special = set(curve_places(Escan))
    special.update(watch_places)
    special.update(need)
    special.add(K.infinity())

    psi = division_values_oracle(a4.num, a6.num, x0.num, y0.num, n_max + 1)
    torsion_order = None
    iotas = {}
    ns = [n for n in range(1, n_max + 1) if n % p]
    for n in ns:
        if psi[n].is_zero():
            torsion_order = n if torsion_order is None else torsion_order
            continue
        if n >= 2:
            w = psi[n].gcd(psi[n].derivative())
            if not w.is_constant():
                for q, _ in places_of_poly(w, K):
                    if q in special:
                        continue
                    iota = psi[n].multiplicity_of(q.pi)
                    if iota > iotas.get(q, 0):
                        iotas[q] = iota
    contacts = {}
    for v in special:
        kv = twist_exponent(Escan, v)
        by_n = contacts[v] = {}
        for n in ns:
            if psi[n].is_zero():
                continue
            phi = x0.num * psi[n] * psi[n] - psi[n + 1] * psi[n - 1]
            if phi.is_zero():
                continue
            ox = (
                ord_at(FieldElement(K, phi), v)
                - 2 * ord_at(FieldElement(K, psi[n]), v)
                + 2 * kv
            )
            if ox < 0 and ox % 2:
                raise ConsistencyError("odd pole order of x(%dP) at %s" % (n, v))
            by_n[n] = max(0, -ox // 2)
    return contacts, iotas, torsion_order


def reference_tangency_scan(E, P, n_max, watch_places=()):
    """(iotas, torsion_order): the contacts of reference_contacts, each
    maximized over every scanned n."""
    contacts, iotas, torsion_order = reference_contacts(E, P, n_max, watch_places)
    for v, by_n in contacts.items():
        best = max(by_n.values(), default=0)
        if best:
            iotas[v] = max(best, iotas.get(v, 0))
    return iotas, torsion_order


def _watch(E):
    # the places descent_bound_report watches
    lam = kodaira_spencer_section(E)
    return set(divisor(lam).support()) | set(divisor(hasse_invariant_section(E)).support())


def _criterion_7_cases():
    E5, P5, _ = legendre_cover_2(PrimeField(5))
    K5 = P5.x.field
    t5 = -E5.c2 - 1
    return [
        ("legendre cover F5", (E5, P5)),
        ("legendre cover F5, P + torsion", (E5, add(P5, CurvePoint(E5, t5, K5.zero)))),
        ("legendre cover F7", legendre_cover_2(PrimeField(7))[:2]),
        ("legendre cover F11", legendre_cover_2(PrimeField(11))[:2]),
        ("sextic point curve F5", sextic_point_curve(5)),
    ]


def _manifest_cases():
    out = []
    for name in ("legendre-f5.cfg", "charp-3x.cfg"):
        man = Manifest(str(MANIFESTS / name))
        out.append((name, (man.model, man.pick_point())))
    return out


def _scan_against_oracle(E, P, n_max, watch=None):
    Es, Ps = _short_with_point(E, P)
    watch = _watch(Es) if watch is None else watch
    scan = tangency_scan(Es, Ps, n_max, watch_places=watch)
    iotas, torsion_order = reference_tangency_scan(Es, Ps, n_max, watch_places=watch)
    assert scan.iotas == iotas
    assert scan.torsion_order == torsion_order
    return scan


@pytest.mark.parametrize(
    "curve",
    [pytest.param(curve, id=label) for label, curve in _criterion_7_cases() + _manifest_cases()],
)
def test_scan_matches_per_place_oracle(curve):
    _scan_against_oracle(*curve, 30)


def _short_through_point(p, g, h, A):
    """y^2 = x^3 + A x + (h^2 - g^3 - A g) over F_p(u), through (g, h)."""
    K = FunctionField(PrimeField(p), "u")
    g, h, A = (FieldElement(K, K.poly(cs)) for cs in (g, h, A))
    E = WeierstrassModel.short(K, A, h * h - g ** 3 - A * g)
    return E, CurvePoint(E, g, h)


@pytest.mark.parametrize("p", [7, 11])
def test_scan_matches_oracle_where_the_twist_is_negative(p):
    # 2P on the Legendre cover has a pole at s = 0; clearing it overshoots
    # the minimal model there, so kv < 0 at that finite place: x(nP) can
    # have a pole there where psi_n does not vanish, which a scan that
    # skipped every multiple with ord_v(psi_n) = 0 would miss.  That pole
    # is a contact of Q itself, found at n_max = 1 from x(Q) alone
    E, P, _ = legendre_cover_2(PrimeField(p))
    Q = add(P, P)
    Es, Qs = _short_with_point(E, Q)
    Escan, _, _, need = cleared_model(Es, Qs)
    negative = {v for v in need if twist_exponent(Escan, v) < 0}
    assert negative
    assert _scan_against_oracle(E, Q, 30).iotas
    assert negative <= set(_scan_against_oracle(E, Q, 1).iotas)


def test_scan_matches_oracle_at_the_top_descent_rung():
    man = Manifest(str(MANIFESTS / "charp-3x.cfg"))
    scan = _scan_against_oracle(man.model, man.pick_point(), 45)
    assert max(scan.iotas.values()) == 3


def test_scan_matches_oracle_on_a_short_curve_through_a_point():
    # g = u + 2, h = u^3 + 3u + 1, A = u + 1 over F_7: semistable, with
    # contacts of order 2 at three finite places
    E, P = _short_through_point(7, [2, 1], [1, 3, 0, 1], [1, 1])
    scan = _scan_against_oracle(E, P, 30)
    assert sorted(scan.iotas.values()).count(2) == 3


@pytest.mark.parametrize(
    "p, g, h, A",
    [
        # short/F5/g=3u+4/h=4u^3+4u/A=3: I_2 place u + 2 where P meets the
        # non-identity component, so ord(psi_n) grows like n^2/4
        pytest.param(5, [4, 3], [0, 4, 0, 4], [3], id="F5/g=3u+4/h=4u^3+4u/A=3"),
        pytest.param(7, [0, 4], [3, 2, 4, 4], [6, 2], id="F7/g=4u/h=4u^3+4u^2+2u+3/A=2u+6"),
        pytest.param(5, [1, 4], [0, 3, 2, 4], [2], id="F5/g=4u+1/h=4u^3+2u^2+3u/A=2"),
    ],
)
def test_scan_matches_oracle_on_the_slowest_descent_jobs(p, g, h, A):
    # the slowest fp-descent jobs of benchmark seeds 2 and 3
    E, P = _short_through_point(p, g, h, A)
    assert _scan_against_oracle(E, P, 30).iotas


def test_scan_watching_the_zeros_of_y():
    # where pi_v | y0, pi_v divides every even psi_n = 2 y0 f_n whatever
    # f_n is, and 2P meets the zero section there; watched, these places
    # are k_v = 0 places the scan must not skip at even n
    E, P = _short_through_point(5, [4, 3], [0, 4, 0, 4], [3])
    watch = {v for v, _ in places_of_poly(P.y.num, P.y.field)}
    assert len(watch) == 3
    scan = _scan_against_oracle(E, P, 20, watch)
    assert all(scan.iotas.get(v) for v in watch)


def test_scan_takes_no_valuation_where_psi_n_is_a_unit(monkeypatch):
    # at a k_v = 0 place the residue of f_n mod pi_v shows whether pi_v
    # divides psi_n; only at such n are valuations taken there, and only of
    # psi_n-1, psi_n and psi_n+1
    E, P = _short_with_point(*_short_through_point(5, [4, 3], [0, 4, 0, 4], [3]))
    watch = _watch(E)
    Escan, x0, y0, need = cleared_model(E, P)
    psi = division_values_oracle(Escan.a4.num, Escan.a6.num, x0.num, y0.num, 31)
    kv0 = {v for v in set(curve_places(Escan)) | watch | set(need)
           if twist_exponent(Escan, v) == 0 and not v.is_infinity}
    calls = []
    orig = pdescent._poly_order

    def spy(q, v):
        if v in kv0:
            calls.append((q, v))
        return orig(q, v)

    monkeypatch.setattr(pdescent, "_poly_order", spy)
    tangency_scan(E, P, 30, watch_places=watch)
    assert len(kv0) >= 5 and calls and len(calls) % 3 == 0
    for k in range(0, len(calls), 3):
        (v,) = {v for _, v in calls[k:k + 3]}
        triple = Counter(q for q, _ in calls[k:k + 3])
        assert any(triple == Counter(psi[n - 1:n + 2]) and (psi[n] % v.pi).is_zero()
                   for n in range(2, 31) if n % 5)


@pytest.mark.parametrize("place", ["finite", "infinity"])
def test_poly_order_of_zero_is_infinite(place):
    # a torsion neighbour psi_n+-1 = 0 gives x(nP) = x(P), never a pole
    K = FunctionField(PrimeField(5), "t")
    v = K.infinity() if place == "infinity" else places_of_poly(K.poly([1, 1]), K)[0][0]
    assert pdescent._poly_order(Poly.zero(K.constants), v) == float("inf")
    assert pdescent._poly_order(K.poly([1, 1]), v) == (-1 if place == "infinity" else 1)


@pytest.mark.parametrize("name, n_max, digest", [
    ("charp-3x", 45, "2dd44252e663dee97279fb7d399fd6f22ed8c12d7119d82599bfd945c4ca6734"),
    ("legendre-f5", 90, "4477cda33581ae21dde9efc27efd1612080b01aaf8e9a4cdc36eb5acb101d7ee"),
])
def test_descent_bound_bytes_at_large_n_max(name, n_max, digest):
    # the CLI's JSON document, recorded before the scan took residues
    args = SimpleNamespace(n_max=n_max, pole_bound=None, point=None)
    code, payload = run("descent-bound", str(MANIFESTS / (name + ".cfg")), args)
    assert code == 0
    text = json.dumps(payload, indent=2, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_scan_oracle_sees_torsion():
    # the 2-torsion point (t, 0) of the Legendre cover: every even multiple
    # is the origin, and both scans report the order
    E, P, _ = legendre_cover_2(PrimeField(7))
    K = P.x.field
    T = CurvePoint(E, -E.c2 - 1, K.zero)
    Es, Ts = _short_with_point(E, T)
    scan = tangency_scan(Es, Ts, 6)
    iotas, torsion_order = reference_tangency_scan(Es, Ts, 6)
    assert scan.torsion_order == torsion_order == 2
    assert scan.iotas == iotas


@pytest.mark.parametrize("n_max", [0, -3])
def test_scan_rejects_empty_range(n_max):
    E, P, _ = legendre_cover_2(PrimeField(5))
    with pytest.raises(InputError):
        tangency_scan(E, P, n_max)


@pytest.mark.parametrize("name", ["legendre-f5", "charp-3x"])
def test_squarefree_test_sees_only_the_new_part_at_even_n(name, monkeypatch):
    # psi_n = f_n at odd n; at even n = 2m >= 6 the test gets Ward's bracket
    # K_m = f_n / f_m, of degree deg f_n - deg f_m, and never psi_n itself
    man = Manifest(str(MANIFESTS / (name + ".cfg")))
    E, P = _short_with_point(man.model, man.pick_point())
    Escan, x0, y0, _ = cleared_model(E, P)
    start, G = _ward_start(Escan.a4.num, Escan.a6.num, x0.num, y0.num)
    brackets = {}
    f = _ward(list(start), G, 25, brackets=brackets)
    tested, gcd = [], Poly.gcd

    def spy(a, b):
        if not b.is_zero() and b == a.derivative():
            tested.append(a)
        return gcd(a, b)

    monkeypatch.setattr(Poly, "gcd", spy)
    tangency_scan(E, P, 24)
    monkeypatch.undo()
    p = E.field.char
    want = [None, None, y0.num, f[3], f[4]] + [
        f[n] if n % 2 else brackets[n] for n in range(5, 25)]
    for n in range(2, 25):
        if n % p == 0:
            continue
        assert any(q == want[n] for q in tested), n
        if n % 2 == 0:
            assert not any(q == y0.num.scale(2) * f[n] for q in tested), n
        if n % 2 == 0 and n >= 6:
            assert want[n].degree == f[n].degree - f[n // 2].degree < f[n].degree
