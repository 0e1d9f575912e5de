"""Seeded inputs, jobs and output checks for the three workloads.

Every input is drawn from ``random.Random`` seeded by the workload seed and
the cycle number, so one seed gives the same inputs in every process.  The
library sees only the constructed curves, points and manifests.

A job is run in three steps: ``run`` (timed), ``render`` to a canonical JSON
document (untimed) and ``check`` against the library's own assertions
(untimed).  Digests of the rendered documents on the default seed are
committed in ``digests.json``.
"""

import hashlib
import json
import random
from pathlib import Path

import maninmaps as mm
from maninmaps import cli as mcli
from maninmaps.elliptic import bad_places
from maninmaps.errors import Error

ROOT = Path(__file__).resolve().parent.parent
MANIFESTS = ROOT / "manifests"

FP_PRIMES = (5, 7, 11)
FP_LADDER = (20, 30, 45)

# keys whose string values are canonical field elements, places or cubics
FIELD_KEYS = {"value", "discriminant", "j_invariant", "A", "B", "C", "place",
              "cubic", "t_complex", "t_ordinary", "t_special", "points"}


class Job:
    """One unit of closed-loop work; ``run`` is the only timed step."""

    __slots__ = ("key", "kind", "run", "render", "check", "field", "rung")

    def __init__(self, key, kind, run, render, check, field, rung=None):
        self.key = key
        self.kind = kind
        self.run = run
        self.render = render
        self.check = check
        self.field = field
        self.rung = rung


def digest(doc) -> str:
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:20]


def _rng(seed, cycle, salt):
    return random.Random("%s/%d/%s" % (seed, cycle, salt))


# ---------------------------------------------------------------------------
# curve builders


def _legendre(K):
    t = K.gen
    return mm.WeierstrassModel.from_cubic(mm.XPoly(K, [K.zero, t, -(K.one + t), K.one]))


def legendre_cover(constants, a, var="s"):
    """Legendre pulled back along t = (a^2(a-1) - s^2)/(a(a-1)), point (a, s)."""
    K = mm.FunctionField(constants, var)
    s, av = K.gen, K.from_int(a)
    Kt = mm.FunctionField(constants, "t")
    phi = mm.CoverMap(K, Kt, (av ** 2 * (av - 1) - s ** 2) / (av * (av - 1)))
    E = _legendre(Kt).pullback(phi)
    return E, mm.CurvePoint(E, av, s), phi


def _poly(rng, K, deg, coeff):
    """A random polynomial of exact degree ``deg`` with coefficients from coeff()."""
    cs = [coeff() for _ in range(deg)]
    lead = 0
    while lead == 0 or K.constants.from_int(lead) == K.constants.zero:
        lead = coeff()
    return mm.FieldElement(K, K.poly(cs + [lead]))


def short_through_point(K, g, h, A):
    """y^2 = x^3 + A x + (h^2 - g^3 - A g), which passes through (g, h)."""
    E = mm.WeierstrassModel.short(K, A, h * h - g ** 3 - A * g)
    return E, mm.CurvePoint(E, g, h)


def semistable_prime_to_p(E) -> bool:
    """The descent bound's hypothesis: semistable with p prime to every m."""
    p = E.field.char
    return all(kt.is_semistable and not (kt.m and kt.m % p == 0)
               for _, kt in bad_places(E))


def bundled(name):
    man = mcli.Manifest(str(MANIFESTS / (name + ".cfg")))
    return man, man.model, man.pick_point()


# ---------------------------------------------------------------------------
# fp-descent


def fp_setup(seed, n_cycles):
    """Curves over F_5, F_7, F_11 screened by the bound's hypothesis.

    Returns (cycles of jobs, stats).  Each cycle holds two Legendre covers
    per prime, one short curve through a polynomial point (its prime rotates
    with the cycle) and the two bundled curves, each on the n_max ladder.
    Legendre covers are most of the jobs because their cost barely depends
    on the drawn a, which keeps the quantiles steady across seeds.
    """
    bundles = {name: bundled(name)[1:] for name in ("legendre-f5", "charp-3x")}
    drawn = screened = 0
    cycles = []
    for cycle in range(n_cycles):
        rng = _rng(seed, cycle, "fp")
        curves = []
        for p in FP_PRIMES:
            for a in rng.sample(range(2, p), 2):
                E, P, _ = legendre_cover(mm.PrimeField(p), a)
                drawn += 1
                if semistable_prime_to_p(E):
                    curves.append(("legendre-cover/F%d/a=%d" % (p, a), E, P))
                else:
                    screened += 1
        p = FP_PRIMES[cycle % len(FP_PRIMES)]
        K = mm.FunctionField(mm.PrimeField(p), "u")
        coeff = lambda: rng.randrange(p)  # noqa: E731
        while True:
            g = _poly(rng, K, 1, coeff)
            h = _poly(rng, K, 3, coeff)
            A = _poly(rng, K, rng.choice((0, 1)), coeff)
            drawn += 1
            try:
                E, P = short_through_point(K, g, h, A)
            except mm.HypothesisError:  # singular model: no curve was drawn
                screened += 1
                continue
            if semistable_prime_to_p(E):
                curves.append(("short/F%d/g=%s/h=%s/A=%s" % (p, g, h, A), E, P))
                break
            screened += 1
        for name in ("legendre-f5", "charp-3x"):
            E, P = bundles[name]
            drawn += 1
            if semistable_prime_to_p(E):
                curves.append((name, E, P))
            else:
                screened += 1
        cycles.append([_fp_job(label, E, P, n) for label, E, P in curves for n in FP_LADDER])
    return cycles, {"drawn": drawn, "screened": screened,
                  "screened_share": screened / drawn}


def _fp_job(label, E, P, n):
    def run():
        return mm.descent_bound_report(E, P, n_max=n)

    return Job("%s/n=%d" % (label, n), label.split("/")[0], run, render_descent,
               check_descent, E.field, rung=n)


def _divisor_doc(rep):
    return {"entries": rep.serialize(), "degree": rep.degree}


def _places(vs):
    return [str(v) for v in sorted(vs, key=lambda v: v.sort_key())]


def render_descent(rep):
    return {
        "p": rep.p, "genus": rep.genus, "deg_omega": rep.d, "delta": rep.delta,
        "bound": rep.bound, "n_max": rep.n_max, "mu_zero": rep.mu_zero,
        "contacts": [{"place": str(v), "degree": v.degree, "iota": i}
                     for v, i in sorted(rep.iotas.items(), key=lambda vi: vi[0].sort_key())],
        "t_ordinary": _places(rep.t_ordinary),
        "t_special": _places(rep.t_special),
        "descent_divisor": {k: _divisor_doc(getattr(rep.descent, k))
                            for k in ("zeros", "poles", "p_part", "total")},
        "checks": [[c.name, c.ok] for c in rep.checks],
    }


def check_descent(rep, doc):
    return [] if rep.ok else ["descent_bound_report checks failed: %s" % [
        c.name for c in rep.checks if not c.ok]]


# ---------------------------------------------------------------------------
# q-tangency


def q_setup(seed, n_cycles):
    """Curves over Q(t) and their points; the operator is part of each job.

    Each cycle holds five Legendre covers with a drawn a (operator carried
    over by pullback_pf), three combinations m*P2 + n*P3 (|m|, |n| <= 1) on the one
    biquadratic cover (curve-level caches are reused), and one short curve
    through a polynomial point (operator solved by find_pf).
    """
    Kt = mm.FunctionField(mm.QQ, "t")
    E0 = _legendre(Kt)
    t = Kt.gen
    L0 = mm.PFOperator(t * (1 - t), 1 - 2 * t, Kt.from_fraction(-1, 4),
                       mm.parse_curve_function("y/(2*(x-t)^2)", E0))
    man, Eb, _ = bundled("legendre-biquadratic")
    P2, P3, phib = man.points["P2"], man.points["P3"], man.cover
    cycles = []
    for cycle in range(n_cycles):
        rng = _rng(seed, cycle, "q")
        jobs = []
        for a in rng.sample([a for a in range(-12, 13) if a not in (0, 1)], 5):
            E, P, phi = legendre_cover(mm.QQ, a)
            jobs.append(_q_job("legendre-cover/a=%d" % a, E, P,
                               lambda phi=phi: mm.pullback_pf(L0, phi)))
        for _ in range(3):
            m, n = 0, 0
            while (m, n) == (0, 0):
                m, n = rng.randint(-1, 1), rng.randint(-1, 1)
            jobs.append(_q_job("biquadratic/%d*P2%+d*P3" % (m, n), Eb, (m, n, P2, P3),
                               lambda: mm.pullback_pf(L0, phib)))
        coeff = lambda: rng.randint(-3, 3)  # noqa: E731
        while True:
            g = _poly(rng, Kt, rng.choice((0, 1)), coeff)
            h = _poly(rng, Kt, rng.choice((1, 2)), coeff)
            A = _poly(rng, Kt, rng.choice((0, 1)), coeff)
            try:
                E, P = short_through_point(Kt, g, h, A)
            except mm.HypothesisError:  # singular model: no curve was drawn
                continue
            if not E.is_isotrivial():
                break
        jobs.append(_q_job("short/g=%s/h=%s/A=%s" % (g, h, A), E, P,
                           lambda E=E: mm.find_pf(E, pole_bound=12)))
        cycles.append(jobs)
    return cycles, {}


def _q_job(label, E, point, operator):
    def run():
        L = operator()
        if isinstance(point, tuple):  # m*P2 + n*P3, formed by the group law
            m, n, P2, P3 = point
            P = mm.add(mm.scalar_mul(m, P2), mm.scalar_mul(n, P3))
        else:
            P = point
        value = mm.manin_value(E, L, P)
        section = mm.manin_section(E, L, P)
        exc = mm.exceptional_set(E)
        rep = mm.tangency_report(E, L, P)
        return E, L, P, value, section, exc, rep

    return Job(label, label.split("/")[0], run, render_tangency, check_tangency, E.field)


def render_tangency(result):
    E, L, P, value, section, exc, rep = result
    doc = {
        "operator": {"A": str(L.A), "B": str(L.B), "C": str(L.C)},
        "points": [] if P.is_zero else [str(P.x), str(P.y)],
        "value": str(value),
        "section": {"weight": section.weight, "diff_degree": section.diff_degree},
        "exceptional": exc.serialize(),
        "exceptional_size": exc.size,
        "zero_section": rep.zero_section,
        "deg_omega": rep.d,
        "bound": rep.bound,
    }
    if not rep.zero_section:
        doc["orders"] = [
            {"place": str(v), "degree": v.degree, "J": J, "I": rep.contact_orders.get(v)}
            for v, J in sorted(rep.orders.items(), key=lambda vj: vj[0].sort_key())]
        doc["t_complex"] = _places(rep.t_complex)
        doc["weighted_count"] = rep.weighted_count
    return doc


def check_tangency(result, doc):
    E, L, P, value, section, exc, rep = result
    problems = []
    if not mm.verify_pf(E, L):
        problems.append("verify_pf rejected the operator")
    if not rep.zero_section and rep.weighted_count > rep.bound:
        problems.append("tangency count %d exceeds bound %d" % (rep.weighted_count, rep.bound))
    if exc.serialize() != rep.exceptional.serialize():
        problems.append("exceptional set differs between the two calls")
    return problems


# ---------------------------------------------------------------------------
# cli-oneshot

# (command, manifest, expected exit code); 2 = wrong characteristic,
# 1 = find-pf on legendre-p2 at the default pole bound
CLI_BUNDLED = (
    ("invariants", "legendre", 0), ("verify-pf", "legendre", 0),
    ("find-pf", "legendre", 0), ("exceptional-set", "legendre", 0),
    ("mu", "legendre", 2),
    ("invariants", "legendre-p2", 0), ("verify-pf", "legendre-p2", 0),
    ("manin", "legendre-p2", 0), ("exceptional-set", "legendre-p2", 0),
    ("find-pf", "legendre-p2", 1),
    ("invariants", "legendre-pa3", 0), ("manin", "legendre-pa3", 0),
    ("invariants", "legendre-biquadratic", 0), ("verify-pf", "legendre-biquadratic", 0),
    ("invariants", "legendre-f5", 0), ("lambda", "legendre-f5", 0),
    ("mu", "legendre-f5", 0), ("nu", "legendre-f5", 0), ("check-tau", "legendre-f5", 0),
    ("verify-pf", "legendre-f5", 2),
    ("invariants", "charp-3x", 0), ("mu", "charp-3x", 0), ("check-tau", "charp-3x", 0),
    ("exceptional-set", "charp-3x", 2),
)
CLI_CHAR0 = ("invariants", "verify-pf", "manin", "exceptional-set")
CLI_CHARP = ("invariants", "lambda", "mu", "nu", "check-tau")

_OPERATOR = """
[operator]
A = t*(1-t)
B = 1 - 2*t
C = -1/4
F = y/(2*(x-t)^2)
"""


def _legendre_manifest(char, a):
    return ("[field]\ncharacteristic = %d\n\n[curve]\nvariable = t\n"
            "cubic = x^3 - (1+t)*x^2 + t*x\n\n[cover]\nt = (%d - s^2)/%d\n\n"
            "[points]\nP = %d, s\n" % (char, a * a * (a - 1), a * (a - 1), a)
            + (_OPERATOR if char == 0 else ""))


def cli_setup(seed, workdir):
    """Bundled and generated (command, manifest) pairs, shuffled by seed.

    Generated manifests: two Legendre covers over Q with a drawn a, and over
    F_5/F_7/F_11 one Legendre cover and one short curve through a
    polynomial point each, screened like fp-descent.
    """
    rng = _rng(seed, 0, "cli")
    pairs = [(c, str(MANIFESTS / (m + ".cfg")), m, code) for c, m, code in CLI_BUNDLED]
    generated = []
    for a in rng.sample([a for a in range(-12, 13) if a not in (0, 1)], 2):
        generated.append(("q-legendre-a%d" % a, _legendre_manifest(0, a), CLI_CHAR0))
    for p in FP_PRIMES:
        a = rng.randrange(2, p)
        generated.append(("f%d-legendre-a%d" % (p, a), _legendre_manifest(p, a), CLI_CHARP))
        K = mm.FunctionField(mm.PrimeField(p), "u")
        coeff = lambda: rng.randrange(p)  # noqa: E731
        while True:
            g, h = _poly(rng, K, 1, coeff), _poly(rng, K, 3, coeff)
            A = _poly(rng, K, rng.choice((0, 1)), coeff)
            try:
                E, _ = short_through_point(K, g, h, A)
            except mm.HypothesisError:
                continue
            if semistable_prime_to_p(E):
                break
        text = ("[field]\ncharacteristic = %d\n\n[curve]\nvariable = u\n"
                "cubic = x^3 + (%s)*x + %s\n\n[points]\nP = %s, %s\n"
                % (p, A, E.a6, g, h))
        generated.append(("f%d-short" % p, text, CLI_CHARP))
    for name, text, commands in generated:
        path = Path(workdir) / (name + ".cfg")
        path.write_text(text)
        pairs += [(c, str(path), name, 0) for c in commands]
    rng.shuffle(pairs)
    return [(cmd, path, "%s %s" % (cmd, name), code) for cmd, path, name, code in pairs]


# ---------------------------------------------------------------------------
# canonical re-parse check, shared by every workload


def reparse_problems(doc, field, base_field=None):
    """Every printed field element, place or cubic must re-parse to itself.

    Cubics are written over ``base_field`` (the curve before its covers),
    everything else over ``field``.
    """
    problems = []

    def check(text, field):
        if not isinstance(text, str) or text == "infinity":
            return
        try:
            back = str(mm.parse(text, field))
        except Error as exc:
            problems.append("%r does not parse: %s" % (text, exc))
            return
        if back != text:
            problems.append("%r re-parses to %r" % (text, back))

    def walk(node, key=None):
        if isinstance(node, dict):
            for k, v in node.items():
                walk(v, key if key == "points" else k)
        elif isinstance(node, list):
            for item in node:
                walk(item, key)
        elif key == "cubic":
            check(node, base_field or field)
        elif key in FIELD_KEYS:
            check(node, field)

    walk(doc)
    return problems


def cli_fields(doc):
    """(final field, base field) of a CLI document, read from its inputs."""
    inputs = doc.get("inputs", {})
    char = inputs.get("characteristic", 0)
    constants = mm.QQ if char == 0 else mm.PrimeField(char)
    var = base_var = inputs.get("curve", {}).get("variable", "t")
    for step in inputs.get("cover", []):
        for value in step.values():
            names = mm.funcfield.ast_names(mm.funcfield.parse_ast(value)) - {"x", "y"}
            var = sorted(names)[0] if names else var
    return mm.FunctionField(constants, var), mm.FunctionField(constants, base_var)


def load_digests():
    path = Path(__file__).resolve().parent / "digests.json"
    if not path.exists():
        return {}
    return json.loads(path.read_text())
