"""The CLI's contract on drawn characteristic-p manifests.

Manifests are written as a user writes them: short curves
y^2 = x^3 + A x + (h^2 - g^3 - A g) through (g, h) over F_p(u), and Legendre
covers t = (a^2 (a - 1) - s^2)/(a (a - 1)) through (a, s), for p in
{5, 7, 11, 13}, with the point in each form the README allows: `g, h`,
`(g, h)` and `(g), (h)`.  Some manifests add a [combinations] section,
Q = m*P + n*P for small m and n and the zero combination Z = P - P, and the
commands then act on the point --point names.  Every characteristic-p
command runs through ``cli.run``, descent-bound at a drawn n_max <= 20, and
must
- exit with 0, 1 or 2 (3 is an internal failure, never valid input);
- carry an "error" key exactly when it exits nonzero, and render as a
  --table text with an "error:" line exactly then;
- print field elements and places that re-parse to themselves;
- print the same bytes, as JSON and as a table, when run again.

Drawn short curves may be singular or additive, and one point in six is
moved off its curve; those must be refused with exit 1 or 2.  The
characteristic-0 half of this contract waits until the tangency report
handles additive fibers.
"""

import json
import os
import tempfile
from types import SimpleNamespace

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from maninmaps import FunctionField, PrimeField, parse
from maninmaps.cli import _render_table, run

COMMANDS = ("invariants", "lambda", "mu", "nu", "check-tau", "descent-bound")
POINT_FORMS = ("%s, %s", "(%s, %s)", "(%s), (%s)")
# result keys whose values are field elements or places of the final field
FIELD_KEYS = {"value", "discriminant", "j_invariant", "place",
              "t_ordinary", "t_special", "points", "cover"}


def with_combinations(draw, text):
    """(text, point) with Q = m*P + n*P and Z = P - P added, or (text, None)."""
    if not draw(st.booleans()):
        return text, None
    m, n = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
    text += "\n[combinations]\nQ = %d*P %s %d*P\nZ = P - P\n" % (m, "-+"[n >= 0], abs(n))
    return text, draw(st.sampled_from([None, "P", "Q", "Z"]))


@st.composite
def charp_manifest(draw):
    """(manifest text, final field, base field, point to act on)."""
    p = draw(st.sampled_from([5, 7, 11, 13]))
    form = draw(st.sampled_from(POINT_FORMS))
    off = " + 1" if draw(st.integers(0, 5)) == 0 else ""  # an off-curve point: exit 2
    head = "[field]\ncharacteristic = %d\n\n[curve]\n" % p
    if draw(st.booleans()):
        K = FunctionField(PrimeField(p), "u")

        def elt(deg):
            digits = st.lists(st.integers(0, p - 1), min_size=1, max_size=deg + 1)
            return K.poly(draw(digits))

        g, h, A = elt(1), elt(3), elt(1)
        a6 = h * h - g ** 3 - A * g
        text = head + "variable = u\ncubic = x^3 + (%s)*x + (%s)\n" % (
            K.element(A), K.element(a6))
        point = form % (K.element(g), "%s%s" % (K.element(h), off))
        text, name = with_combinations(draw, text + "\n[points]\nP = " + point + "\n")
        return text, K, K, name
    a = draw(st.integers(2, p - 1))
    text = head + ("variable = t\ncubic = x^3 - (1+t)*x^2 + t*x\n\n[cover]\n"
                   "t = (%d - s^2)/%d\n" % (a * a * (a - 1), a * (a - 1)))
    text, name = with_combinations(draw, text + "\n[points]\nP = " + form % (a, "s" + off) + "\n")
    return text, FunctionField(PrimeField(p), "s"), FunctionField(PrimeField(p), "t"), name


def reparse_problems(doc, field, base_field):
    problems = []

    def check(text, over):
        if isinstance(text, str) and text != "infinity":
            back = str(parse(text, over))
            if back != text:
                problems.append("%r re-parses to %r" % (text, back))

    def walk(node, key=None):
        if isinstance(node, dict):
            for k, v in node.items():
                walk(v, key if key in ("points", "cover") else k)
        elif isinstance(node, list):
            for item in node:
                walk(item, key)
        elif key == "cubic":
            check(node, base_field)
        elif key in FIELD_KEYS:
            check(node, field)

    walk(doc)
    return problems


@settings(max_examples=60, deadline=None)
@given(charp_manifest(), st.integers(1, 20))
def test_charp_commands_keep_the_cli_contract(drawn, n_max):
    text, field, base_field, point = drawn
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "drawn.cfg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        for command in COMMANDS:
            outputs = []
            for _ in range(2):
                args = SimpleNamespace(n_max=n_max, pole_bound=None, point=point)
                code, payload = run(command, path, args)
                table = _render_table(payload)
                outputs.append((code, json.dumps(payload, indent=2, sort_keys=True), table))
            assert outputs[0] == outputs[1], command
            assert code in (0, 1, 2), (command, payload.get("error"))
            assert ("error" in payload) == (code != 0), (command, payload)
            has_error_line = any(line.startswith("error: ") for line in table.splitlines())
            assert has_error_line == (code != 0), (command, table)
            assert reparse_problems(payload, field, base_field) == [], command
