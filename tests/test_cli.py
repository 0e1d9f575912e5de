import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from maninmaps import FunctionField, PrimeField, QQ, parse_element
from maninmaps.cli import main

MANIFESTS = Path(__file__).resolve().parent.parent / "manifests"


def run_json(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_invariants_legendre(capsys):
    code, doc = run_json(capsys, "invariants", str(MANIFESTS / "legendre.cfg"))
    assert code == 0
    res = doc["results"]
    assert res["deg_omega"] == 1
    bad = {b["place"]: b["kodaira"] for b in res["bad_places"]}
    assert bad == {"t": "I2", "t - 1": "I2", "infinity": "I2*"}
    K = FunctionField(QQ, "t")
    t = K.gen
    assert parse_element(res["discriminant"], K) == 16 * t ** 2 * (t - 1) ** 2


def test_verify_pf_true_and_false(capsys, tmp_path):
    code, doc = run_json(capsys, "verify-pf", str(MANIFESTS / "legendre.cfg"))
    assert code == 0 and doc["results"]["verified"] is True
    text = (MANIFESTS / "legendre.cfg").read_text().replace("-1/4", "-1/3")
    bad = tmp_path / "perturbed.cfg"
    bad.write_text(text)
    code, doc = run_json(capsys, "verify-pf", str(bad))
    assert code == 0 and doc["results"]["verified"] is False


def test_find_pf_matches_manifest_operator(capsys):
    code, doc = run_json(capsys, "find-pf", str(MANIFESTS / "legendre.cfg"),
                         "--pole-bound", "2")
    assert code == 0
    K = FunctionField(QQ, "t")
    t = K.gen
    A = parse_element(doc["results"]["A"], K)
    B = parse_element(doc["results"]["B"], K)
    ratio = A / (t * (1 - t))
    assert ratio.is_constant()
    assert B == (1 - 2 * t) * ratio


def test_manin_reports_golden_value(capsys):
    code, doc = run_json(capsys, "manin", str(MANIFESTS / "legendre-p2.cfg"))
    assert code == 0
    K = FunctionField(QQ, "s")
    s = K.gen
    got = parse_element(doc["results"]["section"]["value"], K)
    assert got == K.from_int(-8) / (s * (s ** 2 - 4) * (s ** 2 - 2))
    support = {e["place"] for e in doc["results"]["section"]["divisor"]["entries"]}
    assert support <= {"s", "s + 2", "s - 2", "s^2 - 2", "infinity"}


def test_manin_evaluates_the_witness_once(capsys, monkeypatch):
    from maninmaps.funcfield import RatX

    # manin_value reads F(P) - F(O) as y ry(x): the one evaluation is of ry
    calls = []
    inner = RatX.evaluate
    monkeypatch.setattr(RatX, "evaluate", lambda r, x: calls.append(x) or inner(r, x))
    code, _ = run_json(capsys, "manin", str(MANIFESTS / "legendre-p2.cfg"))
    assert code == 0 and len(calls) == 1


def test_tangency_reports_contact_three(capsys):
    code, doc = run_json(capsys, "tangency", str(MANIFESTS / "legendre-biquadratic.cfg"))
    assert code == 0
    orders = {o["place"]: o for o in doc["results"]["orders"]}
    row = orders["u - 1"]
    assert row["J"] == 1 and row["I"] == 3 and row["in_exceptional"] is False
    assert "u - 1" in doc["results"]["t_complex"]
    assert all(c["pass"] for c in doc["checks"])


def test_exceptional_set_command(capsys):
    code, doc = run_json(capsys, "exceptional-set", str(MANIFESTS / "legendre-p2.cfg"))
    assert code == 0
    places = {e["place"]: e["reason"] for e in doc["results"]["entries"]}
    assert places["s + 2"] == "bad-reduction"
    assert places["s"] == "j=1728-excess"


def test_charp_commands(capsys):
    code, doc = run_json(capsys, "lambda", str(MANIFESTS / "legendre-f5.cfg"))
    assert code == 0 and doc["results"]["weight"] == -2
    code, doc = run_json(capsys, "mu", str(MANIFESTS / "legendre-f5.cfg"))
    assert code == 0
    K = FunctionField(PrimeField(5), "s")
    assert not parse_element(doc["results"]["value"], K).is_zero()
    code, doc = run_json(capsys, "nu", str(MANIFESTS / "legendre-f5.cfg"))
    assert code == 0 and doc["results"]["weight"] == 3
    code, doc = run_json(capsys, "check-tau", str(MANIFESTS / "charp-3x.cfg"))
    assert code == 0 and all(r["pass"] for r in doc["results"]["rows"])


def test_charp_manifest_with_operator_and_cover(capsys, tmp_path):
    # the operator is pulled back along the cover but never asked to be exact
    text = (MANIFESTS / "legendre-f5.cfg").read_text() + (
        "\n[operator]\nA = t*(1-t)\nB = 1 - 2*t\nC = -1/4\nF = y/(2*(x-t)^2)\n"
    )
    man = tmp_path / "f5-operator.cfg"
    man.write_text(text)
    code, doc = run_json(capsys, "mu", str(man))
    assert code == 0
    K = FunctionField(PrimeField(5), "s")
    assert not parse_element(doc["results"]["value"], K).is_zero()
    code, doc = run_json(capsys, "verify-pf", str(man))
    assert code == 2
    assert "operators with exactness witnesses live in characteristic 0" in doc["error"]


def test_descent_bound_command(capsys):
    code, doc = run_json(capsys, "descent-bound", str(MANIFESTS / "legendre-f5.cfg"),
                         "--n-max", "12")
    assert code == 0
    assert doc["results"]["bound"] == 5
    assert all(c["pass"] for c in doc["checks"])


def test_round_trip_of_reported_functions(capsys):
    code, doc = run_json(capsys, "manin", str(MANIFESTS / "legendre-p2.cfg"))
    K = FunctionField(QQ, "s")
    for text in (doc["results"]["value"], doc["results"]["section"]["value"]):
        back = parse_element(text, K)
        assert str(back) == text


def test_determinism_byte_identical(capsys):
    args = ("tangency", str(MANIFESTS / "legendre-p2.cfg"))
    main(list(args))
    first = capsys.readouterr().out
    main(list(args))
    second = capsys.readouterr().out
    assert first == second


def test_exit_two_on_off_curve_point(capsys, tmp_path):
    bad = tmp_path / "off.cfg"
    bad.write_text(
        "[field]\ncharacteristic = 0\n[curve]\nvariable = t\n"
        "cubic = x^3 - (1+t)*x^2 + t*x\n[points]\nP = 5, 1\n"
    )
    code, doc = run_json(capsys, "invariants", str(bad))
    assert code == 2
    assert "not on curve" in doc["error"]


@pytest.mark.parametrize("text, coords", [
    ("(0), (0)", ["0", "0"]),
    ("(t), (0)", ["t", "0"]),
    ("(0, 0)", ["0", "0"]),
    ("0, 0", ["0", "0"]),
    ("(0", None),
])
def test_point_pair_parentheses(capsys, tmp_path, text, coords):
    # the outer parentheses are stripped only when they wrap the whole pair
    man = tmp_path / "pair.cfg"
    man.write_text(
        "[field]\ncharacteristic = 0\n[curve]\nvariable = t\n"
        "cubic = x^3 - (1+t)*x^2 + t*x\n[points]\nP = %s\n" % text
    )
    code, doc = run_json(capsys, "invariants", str(man))
    if coords is None:
        assert code == 2 and "two comma-separated coordinates" in doc["error"]
    else:
        assert code == 0 and doc["inputs"]["points"] == {"P": coords}


def test_exit_two_on_syntax_error(capsys, tmp_path):
    bad = tmp_path / "syntax.cfg"
    bad.write_text(
        "[field]\ncharacteristic = 0\n[curve]\nvariable = t\ncubic = x^^3\n"
    )
    code, doc = run_json(capsys, "invariants", str(bad))
    assert code == 2


def test_exit_two_on_unreadable_integers(capsys, tmp_path):
    bad = tmp_path / "superscript.cfg"
    bad.write_text("[field]\ncharacteristic = 0\n[curve]\nvariable = t\n"
                   "cubic = x^3 + t*x^\u00b2\n", encoding="utf-8")
    code, doc = run_json(capsys, "invariants", str(bad))
    assert code == 2
    assert "error" in doc


# 4,000-digit coefficients: the discriminant prints 24,033 characters, past
# CPython's default limit of 4,300 digits for int/str conversions
BIG_CUBIC = "[curve]\ncubic = x^3 - x + %s*t^2 + %s*t\n" % ("9" * 4000, "7" * 4000)


def test_integers_past_the_digit_limit_parse_and_print(capsys, tmp_path):
    # a literal's own length is its only bound: it parses to its exact value,
    # and every printed value re-parses to itself
    long = tmp_path / "long.cfg"
    long.write_text("[curve]\nvariable = t\ncubic = x^3 + %s\n" % ("7" * 5000))
    code, doc = run_json(capsys, "invariants", str(long))
    K = FunctionField(QQ, "t")
    assert code == 0
    b = 7 * (10 ** 5000 - 1) // 9
    assert parse_element(doc["results"]["discriminant"], K) == K.from_int(-432 * b * b)
    big = tmp_path / "big.cfg"
    big.write_text(BIG_CUBIC)
    code, doc = run_json(capsys, "invariants", str(big))
    assert code == 0
    for key in ("discriminant", "j_invariant"):
        value = doc["results"][key]
        assert str(parse_element(value, K)) == value


def test_output_does_not_depend_on_the_digit_limit(tmp_path):
    # PYTHONINTMAXSTRDIGITS sets the interpreter's limit (640 is its least
    # nonzero value, 0 lifts it); the bytes must be the same under each
    big = tmp_path / "big.cfg"
    big.write_text(BIG_CUBIC)
    env = dict(os.environ, PYTHONPATH=str(MANIFESTS.parent / "src"))
    env.pop("PYTHONINTMAXSTRDIGITS", None)
    outs = []
    for limit in ("640", None, "0"):
        proc = subprocess.run([sys.executable, "-m", "maninmaps.cli", "invariants", str(big)],
                              capture_output=True, timeout=120,
                              env=env if limit is None else dict(env, PYTHONINTMAXSTRDIGITS=limit))
        assert proc.returncode == 0, proc.stderr.decode("utf-8", "replace")
        outs.append(proc.stdout)
    assert outs[0] == outs[1] == outs[2]


def test_exit_two_on_non_ascii_manifest_integers(capsys, tmp_path):
    # int() reads any Unicode decimal digit and "_" separators: "\u0665" would
    # silently select F_5 and "1_0" would be read as 10
    legendre = "[curve]\nvariable = t\ncubic = x^3 - (1+t)*x^2 + t*x\n"
    for name, text, key in (
        ("arabic-char", "[field]\ncharacteristic = \u0665\n" + legendre, "characteristic"),
        ("arabic-nmax", legendre + "[params]\nn_max = \u0663\u0660\n", "n_max"),
        ("underscore", legendre + "[params]\nn_max = 1_0\n", "n_max"),
    ):
        man = tmp_path / (name + ".cfg")
        man.write_text(text, encoding="utf-8")
        code, doc = run_json(capsys, "invariants", str(man))
        assert code == 2, name
        assert key in doc["error"]
    man = tmp_path / "negative.cfg"
    man.write_text(legendre + "[params]\npole_bound = -2\n")
    code, doc = run_json(capsys, "find-pf", str(man))
    assert code == 2 and "pole_bound" in doc["error"]


def test_exit_two_on_undecodable_manifest_under_c_locale(tmp_path):
    # the manifest is read as UTF-8 whatever the locale; bytes that are not
    # UTF-8 are unusable input, not a traceback
    cubic = "[field]\ncharacteristic = 0\n[curve]\nvariable = t\ncubic = %s\n"
    utf8 = tmp_path / "superscript.cfg"
    utf8.write_bytes((cubic % "x^3 + t*x^\u00b2").encode("utf-8"))
    latin1 = tmp_path / "latin1.cfg"
    latin1.write_bytes(("# caf\u00e9\n" + cubic % "x^3 + t*x").encode("latin-1"))
    env = dict(os.environ, LC_ALL="C", LANG="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0",
               PYTHONPATH=str(MANIFESTS.parent / "src"))
    for man in (utf8, latin1):
        proc = subprocess.run(
            [sys.executable, "-m", "maninmaps.cli", "invariants", str(man)],
            capture_output=True, env=env, timeout=60,
        )
        assert proc.returncode == 2, proc.stderr.decode("utf-8", "replace")
        assert "error" in json.loads(proc.stdout)
        assert b"Traceback" not in proc.stderr


def test_closed_stdout_exits_141_without_traceback(tmp_path):
    # mu on a cover over F_2003 writes about 14 kB into a pipe of 4 kB whose
    # reader takes one byte and leaves, as `| head -c 1` would
    fcntl = pytest.importorskip("fcntl")
    man = tmp_path / "legendre-f2003.cfg"
    man.write_text("[field]\ncharacteristic = 2003\n[curve]\ncubic = x^3 - (1+t)*x^2 + t*x\n"
                   "[cover]\nt = 2 - s^2/2\n[points]\nP = 2, s\n")
    r, w = os.pipe()
    fcntl.fcntl(w, fcntl.F_SETPIPE_SZ, 4096)
    env = dict(os.environ, PYTHONPATH=str(MANIFESTS.parent / "src"))
    proc = subprocess.Popen([sys.executable, "-m", "maninmaps.cli", "mu", str(man)],
                            stdout=w, stderr=subprocess.PIPE, env=env)
    os.close(w)
    try:
        assert os.read(r, 1) == b"{"
    finally:
        os.close(r)
    err = proc.stderr.read()
    assert proc.wait(timeout=120) == 141
    assert b"Traceback" not in err, err.decode("utf-8", "replace")


def test_exit_two_on_non_ascii_option_integers(capsys):
    # int() would read "\u0661\u0662" and "1_2" as 12; the options follow the
    # manifest's rule: an optional "-" and ASCII digits
    for option in ("--n-max", "--pole-bound"):
        for text in ("\u0661\u0662", "1_2"):
            with pytest.raises(SystemExit) as exc:
                main(["descent-bound", str(MANIFESTS / "legendre-f5.cfg"), option, text])
            assert exc.value.code == 2, (option, text)
            assert "invalid integer" in capsys.readouterr().err


def test_exit_two_on_manifest_integer_past_the_digit_limit(capsys, tmp_path):
    # a 5,000-digit n_max is an integer, refused for its length, which the
    # message gives instead of echoing the digits
    digits = "9" * 5000
    man = tmp_path / "long-nmax.cfg"
    man.write_text(_LEGENDRE + "[params]\nn_max = %s\n" % digits)
    code, doc = run_json(capsys, "invariants", str(man))
    assert code == 2
    assert doc["error"] == "n_max has 5000 digits, past the limit of 640 digits for an integer"


def test_exit_two_on_option_integer_past_the_digit_limit(capsys):
    digits = "9" * 5000
    with pytest.raises(SystemExit) as exc:
        main(["descent-bound", str(MANIFESTS / "legendre-f5.cfg"), "--n-max", digits])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert "argument --n-max: the value has 5000 digits, past the limit of 640" in err
    assert digits not in err


def test_integer_settings_do_not_depend_on_the_digit_limit(tmp_path):
    # the 640-digit bound is CPython's least nonzero limit: a longer setting
    # is refused and a shorter one read, whatever PYTHONINTMAXSTRDIGITS says
    env = dict(os.environ, PYTHONPATH=str(MANIFESTS.parent / "src"))
    env.pop("PYTHONINTMAXSTRDIGITS", None)
    for length, want in ((5000, 2), (700, 2), (600, 0)):
        man = tmp_path / ("nmax-%d.cfg" % length)
        man.write_text(_LEGENDRE + "[params]\nn_max = %s\n" % ("9" * length))
        outs = set()
        for limit in ("640", None, "0"):
            proc = subprocess.run([sys.executable, "-m", "maninmaps.cli", "invariants", str(man)],
                                  capture_output=True, timeout=120,
                                  env=env if limit is None else dict(env, PYTHONINTMAXSTRDIGITS=limit))
            assert proc.returncode == want, (length, limit, proc.stderr.decode("utf-8", "replace"))
            outs.add(proc.stdout)
        assert len(outs) == 1, length


def test_descent_bound_names_the_iv_star_fiber_at_infinity(capsys, tmp_path):
    # over F_7, at infinity ord a4 = 0 and ord a6 = -2 give k = 1 and a minimal
    # discriminant of order -4 + 12 = 8: type IV*, the one additive fiber
    man = tmp_path / "ivstar-f7.cfg"
    man.write_text("[field]\ncharacteristic = 7\n[curve]\ncubic = x^3 - 2*x + 4*t^2 - 1\n"
                   "[points]\nP = -1, -2*t\n")
    code, doc = run_json(capsys, "descent-bound", str(man))
    assert code == 1
    assert doc["error"] == "the tangency bound needs semistable reduction; IV* at infinity"


def test_exit_one_on_hypothesis_failure(capsys, tmp_path):
    # additive reduction: the semistable tangency bound must refuse
    man = tmp_path / "additive.cfg"
    man.write_text(
        "[field]\ncharacteristic = 5\n[curve]\nvariable = t\n"
        "cubic = x^3 + t*x + t\n[points]\nP = -1, 2\n"
    )
    code, doc = run_json(capsys, "descent-bound", str(man))
    assert code == 1
    assert "semistable" in doc["error"]


def test_exit_two_on_vacuous_bounds(capsys, tmp_path):
    # a scan over no multiples, or a negative pole bound, would make every
    # check pass vacuously
    for n_max in ("0", "-3"):
        code, doc = run_json(capsys, "descent-bound", str(MANIFESTS / "legendre-f5.cfg"),
                             "--n-max", n_max)
        assert code == 2
        assert "n_max" in doc["error"]
    code, doc = run_json(capsys, "find-pf", str(MANIFESTS / "legendre.cfg"),
                         "--pole-bound", "-1")
    assert code == 2
    assert "pole_bound" in doc["error"]
    man = tmp_path / "zero-nmax.cfg"
    man.write_text((MANIFESTS / "legendre-f5.cfg").read_text() + "\n[params]\nn_max = 0\n")
    code, doc = run_json(capsys, "descent-bound", str(man))
    assert code == 2


def test_table_rendering(capsys):
    code = main(["invariants", str(MANIFESTS / "legendre.cfg"), "--table"])
    out = capsys.readouterr().out
    assert code == 0
    assert "deg_omega = 1" in out


def test_manin_without_operator_solves_one(capsys, tmp_path):
    man = tmp_path / "noop.cfg"
    man.write_text(
        "[field]\ncharacteristic = 0\n[curve]\nvariable = t\n"
        "cubic = x^3 - (1+t)*x^2 + t*x\n[cover]\nt = 2 - s^2/2\n"
        "[points]\nP = 2, s\n"
    )
    code, doc = run_json(capsys, "manin", str(man))
    assert code == 0
    K = FunctionField(QQ, "s")
    s = K.gen
    got = parse_element(doc["results"]["section"]["value"], K)
    assert got == K.from_int(-8) / (s * (s ** 2 - 4) * (s ** 2 - 2))


def test_manin_on_torsion_reports_zero_section(capsys, tmp_path):
    man = tmp_path / "torsion.cfg"
    man.write_text(
        "[field]\ncharacteristic = 0\n[curve]\nvariable = t\n"
        "cubic = x^3 - (1+t)*x^2 + t*x\n[points]\nT = 0, 0\n"
        "[operator]\nA = t*(1-t)\nB = 1 - 2*t\nC = -1/4\nF = y/(2*(x-t)^2)\n"
    )
    code, doc = run_json(capsys, "manin", str(man))
    assert code == 0
    assert doc["results"]["value"] == "0"
    assert "divisor" not in doc["results"]["section"]


_LEGENDRE = "[curve]\ncubic = x^3 - (1+t)*x^2 + t*x\n"
_POINT = _LEGENDRE + "[points]\nP = 0, 0\n"


@pytest.mark.parametrize("text, argv, error", [
    (_LEGENDRE + "[params]\nn_max = soon\n", (), "n_max must be an integer, got 'soon'"),
    ("characteristic = 0\n", (), "bad manifest: "),
    (None, (), "cannot read manifest "),
    ("[field]\ncharacteristic = 0\n", (), "manifest needs a [curve] section"),
    ("[curve]\nvariable = t\n", (), "[curve] needs a cubic"),
    ("[curve]\ncubic = t^3 + 1\n", (), "the curve must be a cubic in x"),
    (_LEGENDRE + "[cover]\nu = s^2\n", (),
     "cover replaces 'u' but the current variable is 't'"),
    (_LEGENDRE + "[cover]\nt = s*r\n", (),
     "cover expression must use exactly one new variable: 's*r'"),
    (_POINT + "[combinations]\nQ = 2*R\n", (), "unknown point 'R'"),
    (_POINT + "[combinations]\nQ = P*P\n", (), "bad point combination 'P*P'"),
    (_POINT + "[combinations]\nQ = 3\n", (), "combination '3' is not a point"),
    (_LEGENDRE + "[operator]\nA = t*(1-t)\nB = 1 - 2*t\nC = -1/4\n", (),
     "[operator] needs A, B, C and F: "),
    (_LEGENDRE + "[params]\nfoo = 1\n", (), "unknown parameter 'foo'"),
    (MANIFESTS / "legendre-p2.cfg", ("manin", "--point", "Z"),
     "no point named 'Z' in the manifest"),
], ids=["n_max", "no-header", "unreadable", "no-curve", "no-cubic", "not-cubic",
        "cover-variable", "cover-new-variables", "unknown-point", "point-product",
        "not-a-point", "operator-without-F", "unknown-parameter", "no-such-point"])
def test_bad_manifest_values_exit_two(capsys, tmp_path, text, argv, error):
    command, *options = argv or ("invariants",)
    if text is None:
        path = tmp_path / "missing.cfg"
    elif isinstance(text, Path):
        path = text
    else:
        path = tmp_path / "bad.cfg"
        path.write_text(text)
    code, doc = run_json(capsys, command, str(path), *options)
    assert code == 2
    assert doc["error"].startswith(error)


def test_cover_chain_two_steps(capsys, tmp_path):
    man = tmp_path / "chain.cfg"
    man.write_text(
        "[field]\ncharacteristic = 0\n[curve]\nvariable = t\n"
        "cubic = x^3 - (1+t)*x^2 + t*x\n"
        "[cover]\nt = 2 - s^2/2\ns = (u^2 - 6*u + 3)/(u^2 - 3)\n"
        "[points]\nP = 2, (u^2 - 6*u + 3)/(u^2 - 3)\n"
    )
    code, doc = run_json(capsys, "invariants", str(man))
    assert code == 0
    assert len(doc["inputs"]["cover"]) == 2


def test_exit_three_on_internal_inconsistency(capsys, monkeypatch):
    from maninmaps import cli
    from maninmaps.errors import ConsistencyError

    def broken(man, args):
        raise ConsistencyError("sum of minimal discriminant orders is not 12-divisible")

    monkeypatch.setitem(cli._HANDLERS, "invariants", broken)
    code, doc = run_json(capsys, "invariants", str(MANIFESTS / "legendre.cfg"))
    assert code == 3
    assert "12-divisible" in doc["error"]


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
def test_tangency_with_iv_star_at_infinity_exits_zero_or_one(capsys, tmp_path):
    # the fiber at infinity is IV*; the report exits 3 with
    # "order -2 < -1 at exceptional infinity" until additive places get a floor
    man = tmp_path / "iv-star.cfg"
    man.write_text("[curve]\ncubic = x^3 - 2*x + 4*t^2 - 1\n[points]\nP = -1, -2*t\n")
    code, doc = run_json(capsys, "tangency", str(man), "--pole-bound", "12")
    assert code in (0, 1), doc["error"]


def test_exit_three_on_escaping_zero_division(capsys, monkeypatch):
    # every legitimate pole becomes a ParseError or a HypothesisError first,
    # so a ZeroDivisionError that reaches run is an internal failure
    from maninmaps import cli

    def broken(man, args):
        raise ZeroDivisionError("zero denominator")

    monkeypatch.setitem(cli._HANDLERS, "invariants", broken)
    code, doc = run_json(capsys, "invariants", str(MANIFESTS / "legendre.cfg"))
    assert code == 3
    assert doc["error"] == "zero denominator"


@pytest.mark.parametrize("var", ["x", "y"])
def test_curve_coordinate_as_base_variable_exits_two(capsys, tmp_path, var):
    man = tmp_path / "var.cfg"
    man.write_text(
        "[field]\ncharacteristic = 0\n[curve]\nvariable = %s\n"
        "cubic = x^3 - (1+%s)*x^2 + %s*x\n" % (var, var, var)
    )
    code, doc = run_json(capsys, "find-pf", str(man))
    assert code == 2
    assert "error" in doc


def test_pseudoprime_characteristic_exits_two(capsys, tmp_path):
    # psi_12 = 399165290221 * 798330580441, a strong pseudoprime to bases 2..37
    man = tmp_path / "psi12.cfg"
    man.write_text(
        "[field]\ncharacteristic = 318665857834031151167461\n[curve]\nvariable = t\n"
        "cubic = x^3 - (1+t)*x^2 + t*x\n"
    )
    code, doc = run_json(capsys, "invariants", str(man))
    assert code == 2
    assert "error" in doc
