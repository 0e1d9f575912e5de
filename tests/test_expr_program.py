"""The expression parser's postfix program and its one stack evaluator.

- On drawn expressions (ints, the base variable, x, y and an unknown name,
  unary minus, + - * /, ^k, chains up to 50 terms and nesting up to 6
  levels, sometimes cut or given a stray character), ``parse``,
  ``parse_element`` and ``parse_curve_function`` return what the tree
  parser and recursive evaluator of ``expr_oracle`` return, or raise the
  same error class with the same message.
- Inputs past that oracle's recursion: a printed value of about 1,000
  terms re-parses to itself, chains of 3,000 terms evaluate, parentheses
  parse up to ``MAX_DEPTH`` levels and one more is a ``ParseError`` at its
  position, and through the CLI a manifest nested 3,000 levels deep exits 2.
- Degrees are bounded as the program is written: a power or product past
  ``MAX_DEGREE`` is a ``ParseError`` at its exponent or operator, and a
  manifest asking for t^1000000000 exits 2 at once.
"""

import time
from types import SimpleNamespace

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

import expr_oracle
from conftest import legendre
from maninmaps import (
    FunctionField,
    PrimeField,
    QQ,
    XPoly,
    parse,
    parse_curve_function,
    parse_element,
)
from maninmaps.cli import run
from maninmaps.errors import InputError, ParseError
from maninmaps.funcfield import MAX_DEGREE, MAX_DEPTH, eval_ast, parse_ast

FIELDS = {"Q": FunctionField(QQ, "t"), "F7": FunctionField(PrimeField(7), "t")}
MODELS = {name: legendre(K) for name, K in FIELDS.items()}
# name sets an expression draws from; w is never a variable
NAMES = (("t",), ("t", "x"), ("t", "x"), ("t", "x", "y"), ("t", "x", "y", "w"))


@st.composite
def expressions(draw):
    """Expression text from the grammar, with at most about 2 * budget atoms."""
    budget = [draw(st.integers(1, 60))]
    names = draw(st.sampled_from(NAMES))

    def take(most):
        n = draw(st.integers(1, max(1, min(most, budget[0]))))
        budget[0] -= n
        return n

    def chain(ops, item, depth):
        out = item(depth)
        for _ in range(take(50) - 1):
            out += draw(st.sampled_from(ops)) + item(depth)
        return out

    def factor(depth):
        if depth < 6 and budget[0] > 0 and draw(st.integers(0, 3)) == 0:
            out = "(%s)" % expr(depth + 1)
        elif draw(st.booleans()):
            out = str(draw(st.integers(0, 12) | st.just(10 ** 30)))
        else:
            out = draw(st.sampled_from(names))
        if draw(st.integers(0, 4)) == 0:
            out += "^%d" % draw(st.integers(0, 3))
        return out

    def term(depth):
        return chain(("*", " * ", "/"), factor, depth)

    def expr(depth):
        sign = "-" if draw(st.integers(0, 3)) == 0 else ""
        return sign + chain(("+", " - ", "-"), term, depth)

    text = expr(0)
    if draw(st.integers(0, 5)) == 0:  # cut it, or insert a stray character
        i = draw(st.integers(0, len(text)))
        stray = draw(st.sampled_from(["", "(", ")", "^", "*", "-", "2", " ", ",", "^-"]))
        text = text[:i] + stray + (text[i:] if draw(st.booleans()) else "")
    return text


def outcome(fn, text, over):
    try:
        return "value", fn(text, over)
    except InputError as exc:  # ParseError is one
        return type(exc), str(exc)


@settings(max_examples=120, deadline=None)
@given(expressions(), st.sampled_from(sorted(FIELDS)))
def test_program_matches_tree_oracle(text, name):
    K, E = FIELDS[name], MODELS[name]
    assert outcome(parse_element, text, K) == outcome(expr_oracle.parse_element, text, K)
    assert outcome(parse, text, K) == outcome(expr_oracle.parse, text, K)
    got = outcome(parse_curve_function, text, E)
    assert got == outcome(expr_oracle.parse_curve_function, text, E)


def test_program_is_flat_postfix():
    assert parse_ast("-t*2 + x^3/(t - 1)") == [
        ("name", "t"), ("int", 2), ("mul",), ("neg",),
        ("name", "x"), ("pow", 3), ("name", "t"), ("int", 1), ("sub",), ("div",),
        ("add",),
    ]


def test_unknown_variable_is_first_in_sorted_order_and_checked_first():
    K = FIELDS["Q"]
    for fn, over in ((parse_element, K), (parse, K), (parse_curve_function, MODELS["Q"])):
        with pytest.raises(ParseError, match="unknown variable 'b'"):
            fn("1/0 + c + b", over)
    with pytest.raises(ParseError, match="unknown variable 'x'"):
        eval_ast(parse_ast("t + x"), {"t": K.gen}, K.from_int)


def test_long_printed_value_reparses_to_itself(tmp_path):
    path = tmp_path / "legendre-f2003.cfg"
    path.write_text(
        "[field]\ncharacteristic = 2003\n\n[curve]\nvariable = t\n"
        "cubic = x^3 - (1+t)*x^2 + t*x\n\n[cover]\nt = 2 - s^2/2\n\n[points]\nP = 2, s\n"
    )
    code, payload = run("mu", str(path), SimpleNamespace(n_max=None, pole_bound=None, point=None))
    value = payload["results"]["value"]
    assert code == 0 and value.count(" + ") >= 1000
    assert str(parse(value, FunctionField(PrimeField(2003), "s"))) == value


def test_chains_of_three_thousand_terms_evaluate():
    K = FIELDS["Q"]
    assert parse_element("+".join(["t"] * 3000), K) == 3000 * K.gen
    assert parse("*".join(["x"] * 3000), K) == XPoly.x(K) ** 3000


def test_parentheses_nest_up_to_the_limit():
    K = FIELDS["F7"]
    assert parse_element("(" * MAX_DEPTH + "t" + ")" * MAX_DEPTH, K) == K.gen
    with pytest.raises(ParseError) as err:
        parse_element("2*" + "(" * (MAX_DEPTH + 1) + "t" + ")" * (MAX_DEPTH + 1), K)
    assert err.value.position == 2 + MAX_DEPTH
    assert "parentheses nest deeper than %d" % MAX_DEPTH in str(err.value)


def test_deeply_nested_manifest_exits_two(tmp_path):
    path = tmp_path / "deep.cfg"
    path.write_text(
        "[field]\ncharacteristic = 5\n\n[curve]\nvariable = t\n"
        "cubic = x^3 + %st%s\n" % ("(" * 3000, ")" * 3000)
    )
    args = SimpleNamespace(n_max=None, pole_bound=None, point=None)
    code, payload = run("invariants", str(path), args)
    assert code == 2 and "parentheses nest deeper" in payload["error"]


def test_degree_is_bounded_where_the_program_is_written():
    K = FIELDS["F7"]
    assert parse_element("(2*t^%d)^1 - 1" % MAX_DEGREE, K) == K.gen ** MAX_DEGREE * 2 - 1
    cases = (
        ("t^%d" % (MAX_DEGREE + 1), 2),
        ("((t^1000)^1000)^1000", 10),
        ("(t + 1)^60000*t^60000", 13),
        ("x^3 - x + t^1000000000", 12),
    )
    for text, position in cases:
        with pytest.raises(ParseError) as err:
            parse(text, K)
        assert err.value.position == position
        assert "degree past %d" % MAX_DEGREE in str(err.value)
    # constants have degree 0 at any power
    assert parse_element("3^1000000 * t", K) == pow(3, 10 ** 6, 7) * K.gen


def test_huge_power_in_a_manifest_exits_two_at_once(tmp_path):
    path = tmp_path / "power.cfg"
    path.write_text("[curve]\ncubic = x^3 - x + t^1000000000\n")
    start = time.perf_counter()
    code, payload = run("invariants", str(path), SimpleNamespace(n_max=None, pole_bound=None, point=None))
    assert time.perf_counter() - start < 1
    assert code == 2 and "degree past" in payload["error"]
