"""``Poly`` over Q on its integer form against the Fraction-tuple oracle.

A Q polynomial stores a primitive integer tuple with a positive leading entry
under one rational content, the reduced pair (n, d) of ints.  Every operation
must give the coefficients ``qpoly_oracle`` computes on plain Fraction tuples,
every result must be in that canonical form, and every coefficient read out
must be a Fraction, on inputs drawn with zero, constants, negative leading
coefficients and 200-digit numerators and denominators, built from ints and
from Fractions.
"""

import math
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from maninmaps.polynomials import Poly, QQ

import qpoly_oracle as oracle

BIG = 10 ** 200
integer = st.one_of(st.integers(-9, 9), st.integers(-BIG, BIG))
rational = st.builds(Fraction, integer, st.one_of(st.integers(1, 9), st.integers(1, BIG)))
coeff = st.one_of(integer, rational)
coeff_lists = st.lists(coeff, max_size=6)


def canonical(p: Poly) -> Poly:
    """p, after checking its integer form."""
    assert type(p.terms) is tuple and all(type(c) is int for c in p.terms)
    assert type(p.content) is tuple and [type(c) for c in p.content] == [int, int]
    n, d = p.content
    assert d > 0 and math.gcd(n, d) == 1
    if not p.terms:
        assert p.content == (0, 1)
    else:
        assert math.gcd(*p.terms) == 1 and p.terms[-1] > 0 and n != 0
    assert all(type(c) is Fraction for c in p.coeffs)
    return p


def q(cs) -> Poly:
    return canonical(Poly(QQ, cs))


@settings(max_examples=150, deadline=None)
@given(coeff_lists, coeff_lists)
def test_ring_operations_match_oracle(a, b):
    pa, pb = q(a), q(b)
    oa, ob = oracle.poly(a), oracle.poly(b)
    assert pa.coeffs == oa and pb.coeffs == ob
    assert canonical(pa + pb).coeffs == oracle.add(oa, ob)
    assert canonical(pa - pb).coeffs == oracle.sub(oa, ob)
    assert canonical(-pa).coeffs == oracle.neg(oa)
    assert canonical(pa * pb).coeffs == oracle.mul(oa, ob)
    assert canonical(pa.derivative()).coeffs == oracle.derivative(oa)
    assert canonical(pa.monic()).coeffs == oracle.monic(oa)
    assert (pa == pb) == (oa == ob)
    if pa == pb:
        assert hash(pa) == hash(pb)


@settings(max_examples=100, deadline=None)
@given(coeff_lists, coeff)
def test_scale_evaluate_and_print_match_oracle(a, c):
    pa, oa = q(a), oracle.poly(a)
    assert canonical(pa.scale(c)).coeffs == oracle.scale(oa, c)
    assert pa.evaluate(Fraction(c)) == oracle.evaluate(oa, Fraction(c))
    assert type(pa.evaluate(Fraction(c))) is Fraction
    assert pa.to_str("t") == oracle.to_str(oa, "t")
    assert pa.leading == (oa[-1] if oa else 0) and type(pa.leading) is Fraction
    for i in range(len(oa) + 1):
        assert pa[i] == (oa[i] if i < len(oa) else 0) and type(pa[i]) is Fraction
    const = canonical(Poly.const(QQ, c))
    assert const.coeffs == oracle.poly([c]) and type(const.leading) is Fraction


@settings(max_examples=100, deadline=None)
@given(coeff_lists, coeff_lists.filter(lambda b: oracle.poly(b)))
def test_divmod_matches_oracle(a, b):
    pq, pr = divmod(q(a), q(b))
    wq, wr = oracle.divmod_(oracle.poly(a), oracle.poly(b))
    assert (canonical(pq).coeffs, canonical(pr).coeffs) == (wq, wr)


short_lists = st.lists(coeff, max_size=4)


@settings(max_examples=80, deadline=None)
@given(short_lists, short_lists, short_lists, st.integers(0, 3))
def test_gcd_and_multiplicity_match_oracle(g, u, w, k):
    og = oracle.poly(g)
    a, b = oracle.mul(og, oracle.poly(u)), oracle.mul(og, oracle.poly(w))
    pa, pb = q(a), q(b)
    h, qa, qb = pa.cofactors(pb)
    oh = oracle.gcd(a, b)
    assert canonical(pa.gcd(pb)).coeffs == canonical(h).coeffs == oh
    if oh:
        assert canonical(qa).coeffs == oracle.divmod_(a, oh)[0]
        assert canonical(qb).coeffs == oracle.divmod_(b, oh)[0]
    assume(len(og) > 1 and oracle.poly(u))
    f = oracle.poly(u)
    for _ in range(k):
        f = oracle.mul(f, og)
    assert q(f).multiplicity_of(q(og)) == oracle.multiplicity(f, og)


@pytest.mark.parametrize(
    "cs", [[], [0], [5], [-5], [0, 0, -3], [Fraction(2, 3), -4], [BIG, -BIG - 1]])
def test_ints_and_fractions_build_one_form(cs):
    a, b = Poly(QQ, cs), Poly(QQ, [Fraction(c) for c in cs])
    assert a == b and hash(a) == hash(b) and canonical(a).terms == b.terms
    assert a.coeffs == oracle.poly(cs)
