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
    from maninmaps.elliptic import CurveFunction

    calls = []
    inner = CurveFunction.evaluate
    monkeypatch.setattr(CurveFunction, "evaluate", lambda F, P: calls.append(P) or inner(F, P))
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
    for name, cubic in (("superscript", "x^3 + t*x^\u00b2"), ("long", "x^3 + " + "7" * 5000)):
        bad = tmp_path / (name + ".cfg")
        bad.write_text(
            "[field]\ncharacteristic = 0\n[curve]\nvariable = t\ncubic = %s\n" % cubic,
            encoding="utf-8",
        )
        code, doc = run_json(capsys, "invariants", str(bad))
        assert code == 2
        assert "error" in doc


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


def test_exit_two_on_non_ascii_option_integers(capsys):
    # int() would read "\u0661\u0662" and "1_2" as 12; the options follow the
    # manifest's rule: an optional "-" and ASCII digits
    for option in ("--n-max", "--pole-bound"):
        for text in ("\u0661\u0662", "1_2"):
            with pytest.raises(SystemExit) as exc:
                main(["descent-bound", str(MANIFESTS / "legendre-f5.cfg"), option, text])
            assert exc.value.code == 2, (option, text)
            assert "invalid integer" in capsys.readouterr().err


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


def test_bad_manifest_values_exit_two(capsys, tmp_path):
    man = tmp_path / "badparams.cfg"
    man.write_text(
        "[field]\ncharacteristic = 0\n[curve]\nvariable = t\n"
        "cubic = x^3 - (1+t)*x^2 + t*x\n[params]\nn_max = soon\n"
    )
    code, doc = run_json(capsys, "invariants", str(man))
    assert code == 2
    man2 = tmp_path / "noheader.cfg"
    man2.write_text("characteristic = 0\n")
    code, doc = run_json(capsys, "invariants", str(man2))
    assert code == 2


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
