"""Command-line front end.

A manifest is a flat key/value text file with section headers, read by
configparser: [field] fixes the characteristic, [curve] the variable and the
monic cubic, [cover] an ordered chain of substitutions old_var = expr(new
var), [points] named coordinate pairs over the final base field,
[combinations] integer combinations of named points, [operator] the A, B, C,
F data attached to the curve as first written (transported along the covers
automatically), and [params] defaults for n_max, pole_bound and the point a
command acts on.

Every command prints one JSON document on standard output:
{"command", "inputs", "results", "checks"}; --table renders the same data
as text.  Exit codes: 0 success, 1 a mathematical hypothesis failed,
2 unusable input, 3 an internal invariant failed.
"""

from __future__ import annotations

import argparse
import configparser
import json
import os
import sys

from . import elliptic, maninmap, pdescent
from .elliptic import CurvePoint, WeierstrassModel, parse_curve_function
from .errors import (
    ConsistencyError,
    HypothesisError,
    InputError,
    NotFoundError,
)
from .funcfield import (
    CoverMap,
    FunctionField,
    XPoly as XPolyType,
    ast_names,
    eval_ast,
    parse,
    parse_ast,
    parse_element,
)
from .maninmap import PFOperator
from .polynomials import PrimeField, QQ
from .sections import divisor

class Manifest:
    """Parsed manifest: fields, curve, covers, points, operator, params."""

    def __init__(self, path: str):
        cp = configparser.ConfigParser(interpolation=None, delimiters=("=",))
        cp.optionxform = str
        try:
            read = cp.read(path, encoding="utf-8")
        except (configparser.Error, UnicodeDecodeError) as exc:
            raise InputError("bad manifest: %s" % exc)
        if not read:
            raise InputError("cannot read manifest %r" % path)
        self.path = path
        char = _manifest_int(cp.get("field", "characteristic", fallback="0"),
                             "characteristic", "characteristic must be an integer")
        constants = QQ if char == 0 else PrimeField(char)
        if not cp.has_section("curve"):
            raise InputError("manifest needs a [curve] section")
        var0 = cp.get("curve", "variable", fallback="t").strip()
        self.base_field = FunctionField(constants, var0)
        cubic_text = cp.get("curve", "cubic", fallback=None)
        if cubic_text is None:
            raise InputError("[curve] needs a cubic")
        cubic = parse(cubic_text, self.base_field)
        if not isinstance(cubic, XPolyType):
            raise InputError("the curve must be a cubic in x")
        self.base_model = WeierstrassModel.from_cubic(cubic)
        self.inputs = {
            "characteristic": char,
            "curve": {"variable": var0, "cubic": str(cubic)},
        }

        # cover chain: each entry substitutes the current base variable
        self.cover = None
        field = self.base_field
        covers_in = []
        if cp.has_section("cover"):
            for old, expr in cp.items("cover"):
                if old != field.var:
                    raise InputError(
                        "cover replaces %r but the current variable is %r"
                        % (old, field.var)
                    )
                ast = parse_ast(expr)
                new_names = sorted(ast_names(ast) - {"x", "y", old})
                if len(new_names) != 1:
                    raise InputError(
                        "cover expression must use exactly one new variable: %r" % expr
                    )
                new_field = FunctionField(constants, new_names[0])
                image = eval_ast(ast, {new_field.var: new_field.gen}, new_field.from_int)
                step = CoverMap(new_field, field, image)
                self.cover = step if self.cover is None else self.cover.then(step)
                field = new_field
                covers_in.append({old: str(image)})
        self.field = field
        self.model = (
            self.base_model if self.cover is None else self.base_model.pullback(self.cover)
        )
        if covers_in:
            self.inputs["cover"] = covers_in

        self.points = {}
        if cp.has_section("points"):
            for name, text in cp.items("points"):
                xs, ys = _split_pair(text)
                x = parse_element(xs, field)
                y = parse_element(ys, field)
                self.points[name] = CurvePoint(self.model, x, y)  # on-curve check
        if cp.has_section("combinations"):
            for name, text in cp.items("combinations"):
                ast = parse_ast(text)
                missing = ast_names(ast) - set(self.points)
                if missing:
                    raise InputError("unknown point %r" % sorted(missing)[0])
                try:
                    value = eval_ast(ast, dict(self.points), lambda n: n)
                except (TypeError, AttributeError):
                    raise InputError("bad point combination %r" % text)
                if not isinstance(value, CurvePoint):
                    raise InputError("combination %r is not a point" % text)
                self.points[name] = value
        self.inputs["points"] = {
            name: [str(P.x), str(P.y)] for name, P in sorted(self.points.items())
            if not P.is_zero
        }

        self.operator = None
        if cp.has_section("operator"):
            try:
                A = parse_element(cp.get("operator", "A"), self.base_field)
                B = parse_element(cp.get("operator", "B"), self.base_field)
                C = parse_element(cp.get("operator", "C"), self.base_field)
                F = parse_curve_function(cp.get("operator", "F"), self.base_model)
            except configparser.NoOptionError as exc:
                raise InputError("[operator] needs A, B, C and F: %s" % exc)
            L = PFOperator(A, B, C, F)
            if self.cover is not None:
                L = maninmap.pullback_pf(L, self.cover)
            self.operator = L
            self.inputs["operator"] = {
                "A": str(L.A), "B": str(L.B), "C": str(L.C), "F": str(L.F),
            }

        self.params = {"n_max": 30, "pole_bound": 4, "point": None}
        if cp.has_section("params"):
            for key, val in cp.items("params"):
                if key in ("n_max", "pole_bound"):
                    self.params[key] = _manifest_int(
                        val, key, "%s must be an integer, got %r" % (key, val))
                elif key == "point":
                    self.params[key] = val.strip()
                else:
                    raise InputError("unknown parameter %r" % key)

    def pick_point(self, name=None) -> CurvePoint:
        name = name or self.params["point"]
        if name is None:
            if len(self.points) == 1:
                return next(iter(self.points.values()))
            raise InputError("several points defined; choose one with --point")
        if name not in self.points:
            raise InputError("no point named %r in the manifest" % name)
        return self.points[name]


# An integer setting has at most this many digits, CPython's least nonzero
# limit for int(str), so every accepted value reads and prints whatever
# PYTHONINTMAXSTRDIGITS says.
MAX_INT_DIGITS = 640


def _manifest_int(text: str, name: str, message: str) -> int:
    """An optional '-' and at most ``MAX_INT_DIGITS`` ASCII digits, else
    InputError; int() alone also takes other Unicode digits and '_'."""
    body = text[1:] if text.startswith("-") else text
    if not (body.isascii() and body.isdigit()):
        raise InputError(message)
    if len(body) > MAX_INT_DIGITS:  # name the length, not the digits
        raise InputError("%s has %d digits, past the limit of %d digits for an integer"
                         % (name, len(body), MAX_INT_DIGITS))
    return int(text)


def _option_int(text: str) -> int:
    """An --n-max or --pole-bound value, read by the manifest's integer rule."""
    try:
        return _manifest_int(text, "the value", "invalid integer %r" % text)
    except InputError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _split_pair(text: str):
    s = text.strip()
    depth = 0
    for i, ch in enumerate(s):
        depth += (ch == "(") - (ch == ")")
        if not depth:
            break
    if s.startswith("(") and not depth and i == len(s) - 1:
        s = s[1:-1]  # the first parenthesis closes at the end: it wraps the pair
    depth = 0
    for i, ch in enumerate(s):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "," and depth == 0:
            return s[:i], s[i + 1:]
    raise InputError("a point needs two comma-separated coordinates: %r" % text)


def _divisor_json(report) -> dict:
    return {"entries": report.serialize(), "degree": report.degree}


def _section_json(sec) -> dict:
    out = {"value": str(sec.value), "weight": sec.weight, "diff_degree": sec.diff_degree}
    if not sec.is_zero():
        out["divisor"] = _divisor_json(divisor(sec))
    return out


def _check_json(checks) -> list:
    return [{"name": c.name, "pass": c.ok, "detail": c.detail} for c in checks]


# ---------------------------------------------------------------------------
# command implementations: each returns (results dict, checks list)


def _cmd_invariants(man: Manifest, args):
    E = man.model
    fibers = elliptic._fibers(E)  # one pass for the bad places and deg omega
    results = {
        "discriminant": str(E.discriminant()),
        "j_invariant": str(E.j_invariant()),
        "deg_omega": elliptic._deg_omega(E, fibers),
        "bad_places": [
            {"place": str(v), "degree": v.degree, "kodaira": kt.symbol()}
            for v, _, kt, _ in fibers if not kt.is_good
        ],
    }
    return results, []


def _cmd_lambda(man: Manifest, args):
    return _section_json(pdescent.kodaira_spencer_section(man.model)), []


def _cmd_mu(man: Manifest, args):
    P = man.pick_point(args.point)
    value = pdescent.p_descent_value(man.model, P)
    return {"value": str(value)}, []


def _cmd_nu(man: Manifest, args):
    P = man.pick_point(args.point)
    return _section_json(pdescent.p_descent_section(man.model, P)), []


def _cmd_descent_bound(man: Manifest, args):
    P = man.pick_point(args.point)
    rep = pdescent.descent_bound_report(man.model, P, n_max=args.n_max)
    results = {
        "p": rep.p,
        "genus": rep.genus,
        "deg_omega": rep.d,
        "delta": rep.delta,
        "bound": rep.bound,
        "n_max": rep.n_max,
        "mu_zero": rep.mu_zero,
        "contacts": [
            {"place": str(v), "degree": v.degree, "iota": i}
            for v, i in sorted(rep.iotas.items(), key=lambda vi: vi[0].sort_key())
        ],
        "t_ordinary": [str(v) for v in rep.t_ordinary],
        "t_special": [str(v) for v in rep.t_special],
        "descent_divisor": {
            "zeros": _divisor_json(rep.descent.zeros),
            "poles": _divisor_json(rep.descent.poles),
            "p_part": _divisor_json(rep.descent.p_part),
            "total": _divisor_json(rep.descent.total),
        },
    }
    return results, rep.checks


def _cmd_check_tau(man: Manifest, args):
    rows = pdescent.reduction_table_report(man.model)
    results = {
        "rows": [
            {
                "place": str(r.place),
                "degree": r.place.degree,
                "kodaira": r.ktype.symbol(),
                "ell": r.ell,
                "expected": r.expected,
                "pass": r.ok,
            }
            for r in rows
        ]
    }
    checks = [
        pdescent.Check(
            "order table satisfied at every place",
            all(r.ok for r in rows),
            "%d places checked" % len(rows),
        )
    ]
    return results, checks


def _cmd_verify_pf(man: Manifest, args):
    if man.operator is None:
        raise InputError("verify-pf needs an [operator] section")
    ok = maninmap.verify_pf(man.model, man.operator)
    return {"verified": ok}, []


def _cmd_find_pf(man: Manifest, args):
    L = maninmap.find_pf(man.model, pole_bound=args.pole_bound)
    results = {
        "A": str(L.A),
        "B": str(L.B),
        "C": str(L.C),
        "F": str(L.F),
        "verified": True,
    }
    return results, []


def _operator_or_find(man: Manifest, args) -> PFOperator:
    if man.operator is not None:
        return man.operator
    # solve on the curve as written, then transport along the covers
    L = maninmap.find_pf(man.base_model, pole_bound=args.pole_bound)
    if man.cover is not None:
        L = maninmap.pullback_pf(L, man.cover)
    return L


def _cmd_manin(man: Manifest, args):
    P = man.pick_point(args.point)
    L = _operator_or_find(man, args)
    value = maninmap.manin_value(man.model, L, P)
    sec = maninmap._section_of(man.model, L, value)
    return {"value": str(value), "section": _section_json(sec)}, []


def _cmd_exceptional_set(man: Manifest, args):
    S = maninmap.exceptional_set(man.model)
    return {"entries": S.serialize(), "size": S.size}, []


def _cmd_tangency(man: Manifest, args):
    P = man.pick_point(args.point)
    L = _operator_or_find(man, args)
    rep = maninmap.tangency_report(man.model, L, P)
    results = {
        "zero_section": rep.zero_section,
        "deg_omega": rep.d,
        "exceptional": rep.exceptional.serialize(),
        "exceptional_size": rep.exceptional.size,
        "bound": rep.bound,
    }
    checks = []
    if not rep.zero_section:
        ordered = sorted(rep.orders.items(), key=lambda vj: vj[0].sort_key())
        results["orders"] = [
            {
                "place": str(v),
                "degree": v.degree,
                "J": J,
                "in_exceptional": v in rep.exceptional,
                **({"I": rep.contact_orders[v]} if v in rep.contact_orders else {}),
            }
            for v, J in ordered
        ]
        results["t_complex"] = [str(v) for v in rep.t_complex]
        results["weighted_count"] = rep.weighted_count
        checks.append(pdescent.Check(
            "tangency count respects the bound",
            rep.weighted_count <= rep.bound,
            "%d <= %d" % (rep.weighted_count, rep.bound),
        ))
    return results, checks


_HANDLERS = {
    "invariants": _cmd_invariants,
    "lambda": _cmd_lambda,
    "mu": _cmd_mu,
    "nu": _cmd_nu,
    "descent-bound": _cmd_descent_bound,
    "check-tau": _cmd_check_tau,
    "verify-pf": _cmd_verify_pf,
    "find-pf": _cmd_find_pf,
    "manin": _cmd_manin,
    "exceptional-set": _cmd_exceptional_set,
    "tangency": _cmd_tangency,
}
COMMANDS = tuple(_HANDLERS)


def run(command: str, manifest_path: str, args) -> tuple:
    """Execute one command; returns (exit code, payload dict)."""
    payload = {"command": command}
    try:
        man = Manifest(manifest_path)
        if args.n_max is None:
            args.n_max = man.params["n_max"]
        if args.pole_bound is None:
            args.pole_bound = man.params["pole_bound"]
        payload["inputs"] = man.inputs
        results, checks = _HANDLERS[command](man, args)
        payload["results"] = results
        payload["checks"] = _check_json(checks)
    except InputError as exc:  # ParseError included
        payload["error"] = str(exc)
        return 2, payload
    except (HypothesisError, NotFoundError) as exc:
        payload["error"] = str(exc)
        return 1, payload
    except (ConsistencyError, ZeroDivisionError) as exc:  # a genuine pole raises earlier
        payload["error"] = str(exc)
        return 3, payload
    if any(not c["pass"] for c in payload["checks"]):
        return 1, payload
    return 0, payload


def _render_table(payload: dict) -> str:
    lines = ["command: %s" % payload["command"]]
    if "error" in payload:
        lines.append("error: %s" % payload["error"])
        return "\n".join(lines)

    def emit(prefix, value):
        if isinstance(value, dict):
            for k in sorted(value):
                emit("%s%s." % (prefix, k), value[k])
        elif isinstance(value, list):
            for i, item in enumerate(value):
                emit("%s%d." % (prefix, i), item)
        else:
            lines.append("%s%s" % (prefix.rstrip("."), " = %s" % value))

    emit("", payload.get("results", {}))
    for check in payload.get("checks", []):
        lines.append(
            "check: %-50s %s  %s"
            % (check["name"], "pass" if check["pass"] else "FAIL", check["detail"])
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="maninmaps",
        description="Exact descent and tangency computations on elliptic "
        "surfaces over rational function fields.",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("manifest", help="path to a manifest file")
    parser.add_argument("--point", default=None, help="named point to act on")
    parser.add_argument("--n-max", dest="n_max", type=_option_int, default=None,
                        help="largest multiple scanned for contacts (default 30)")
    parser.add_argument("--pole-bound", dest="pole_bound", type=_option_int, default=None,
                        help="degree bound for operator coefficients (default 4)")
    parser.add_argument("--table", action="store_true")
    args = parser.parse_args(argv)

    code, payload = run(args.command, args.manifest, args)
    text = _render_table(payload) if args.table else json.dumps(payload, indent=2, sort_keys=True)
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:  # the reader left: quiet the final flush, exit as SIGPIPE would
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    return code


if __name__ == "__main__":
    sys.exit(main())
