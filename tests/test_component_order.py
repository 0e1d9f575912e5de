"""The closed-form component order against the scalar-multiple search.

``component_order`` reads the order of P in the component group Z/m of an
I_m fiber off d = ord_v(x(P) - x_node); ``local_oracle.component_order``
searches the divisors n of m for the least nP on the identity component.
Both run on fibers built with a known component: y^2 = (x - a)^2 (x + 2a) +
eps(u) with ord_u eps = m has an I_m fiber at u = 0 with its node at x = a,
and the point with x = a + u^i lies on component i (or m - i) for 2i < m and
on component m/2 for 2i >= m.
"""

import hashlib
from math import gcd

import pytest

from maninmaps import (
    CurvePoint,
    FieldElement,
    FunctionField,
    PrimeField,
    QQ,
    WeierstrassModel,
    add,
    bad_places,
    component_order,
    descent_divisor,
    kodaira_type,
    scalar_mul,
)
from maninmaps.polynomials import Poly

import local_oracle


def _sqrt_series(F, h, n):
    """The first n coefficients of the square root of h = 1 + ... (ascending)."""
    h = list(h) + [F.from_int(0)] * n
    s = [F.from_int(1)]
    for k in range(1, n):
        acc = h[k] - sum((s[j] * s[k - j] for j in range(1, k)), F.from_int(0))
        s.append(F.div(acc, F.from_int(2)))
    return s


def built_fiber(F, m, i, r=0):
    """(E, P, v, c): an I_m fiber at v = (u) over F(u) with its node at
    x = a = 1/3 + u^(2r), and P = (a + u^i, y) on component c (up to sign).

    For 2i < m, y = u^i s with s the square root of 3a + u^i truncated past
    u^(m-2i) and its last coefficient raised by 1, so that y^2 - (x - a)^2
    (x + 2a) = u^(2i) (s^2 - 3a - u^i) has order exactly m; for 2i >= m,
    y = u^(m/2) (u + 2).  With r >= 1 and 6r >= deg eps the fiber at infinity
    is semistable too.
    """
    K = FunctionField(F, "u")
    u = K.gen
    a = K.one / 3 + (u ** (2 * r) if r else K.zero)
    x = a + u ** i
    if 2 * i < m:
        h = (a * 3 + u ** i).num
        s = _sqrt_series(F, [h[k] for k in range(h.degree + 1)], m - 2 * i + 1)
        s[-1] = s[-1] + F.from_int(1)
        y = u ** i * FieldElement(K, Poly(F, s))
    else:
        y = u ** (m // 2) * (u + 2)
    eps = y * y - (x - a) ** 2 * (x + a * 2)
    E = WeierstrassModel.short(K, -a * a * 3, a ** 3 * 2 + eps)
    v = K.place(K.poly([0, 1]))
    assert kodaira_type(E, v).symbol() == "I%d" % m
    return E, CurvePoint(E, x, y), v, (i if 2 * i < m else m // 2)


def _cases(ms):
    """(m, i) for every component class of I_m, and i past m/2 for even m."""
    return [(m, i) for m in ms for i in range(1, m + 2) if 2 * i < m or m % 2 == 0]


FIELDS = [PrimeField(7), PrimeField(13), QQ]


@pytest.mark.parametrize("F", FIELDS, ids=str)
def test_component_order_on_every_component(F):
    # m <= 20; x(P) - a of order i > m/2 still puts P on component m/2
    for m, i in _cases(range(2, 21)):
        E, P, v, c = built_fiber(F, m, i)
        assert component_order(E, P, v) == m // gcd(m, c), (m, i)
        assert local_oracle.in_identity_component(E, P, v) is False


def _oracle_affordable(F, order):
    # the search forms scalar multiples up to the order; over Q their
    # coefficients grow fast, and order 10 takes half a minute
    return order <= (12 if F.char else 8)


@pytest.mark.parametrize("F", FIELDS, ids=str)
def test_component_order_matches_the_search(F):
    checked = 0
    for m, i in _cases(range(2, 21)):
        E, P, v, c = built_fiber(F, m, i)
        order = m // gcd(m, c)
        if _oracle_affordable(F, order):
            assert local_oracle.component_order(E, P, v) == component_order(E, P, v), (m, i)
            checked += 1
    assert checked >= (100 if F.char else 107)


@pytest.mark.parametrize("F", FIELDS, ids=str)
def test_component_order_of_multiples(F):
    # nP lies on component n c: its order is m / gcd(m, n c), and once nP is
    # on the identity component the closed form and the search both say 1
    top = 4 if F.char else 3
    for m, i in _cases((5, 6, 8, 9, 12) if F.char else (5, 6, 8)):
        E, P, v, c = built_fiber(F, m, i)
        Q = P
        for n in range(2, top + 1):
            Q = add(Q, P)
            want = m // gcd(m, n * c)
            assert component_order(E, Q, v) == want, (m, i, n)
            if want <= 3 and m <= 8:
                assert local_oracle.component_order(E, Q, v) == want, (m, i, n)


def test_fifth_multiple_over_q_on_an_i20_fiber():
    # x(4P) has degree 179 and x(5P) degree 285: the canonical forms of the
    # group law must not scale their exact divisions by lc^(deg difference)
    E, P, v, c = built_fiber(QQ, 20, 1)
    Q = add(scalar_mul(4, P), P)
    assert Q.y * Q.y == E.cubic().evaluate(Q.x)
    assert component_order(E, Q, v) == 20 // gcd(20, 5 * c)
    # and 5P itself, pinned byte for byte
    assert hashlib.sha256(str(Q).encode()).hexdigest()[:16] == "bab33babec116c9b"


@pytest.mark.parametrize("i, order", [(5, 7), (7, 5)])
def test_descent_divisor_past_thirty_components(i, order):
    # an everywhere semistable curve over F_7 with an I_35 fiber: the search
    # capped at n_max = 30 refused it; v is in D' exactly when 7 | the order
    E, P, v, c = built_fiber(PrimeField(7), 35, i, r=12)
    assert all(kt.is_semistable for _, kt in bad_places(E))
    assert component_order(E, P, v) == local_oracle.component_order(E, P, v) == order
    assert descent_divisor(E, P).p_part.ord(v) == (order % 7 == 0)
