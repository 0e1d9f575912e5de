"""Span tracing around the library's public functions, installed from here.

The library is not edited: `install` replaces each listed function with a
wrapper in its defining module, in every `maninmaps` module that imported it
by value, and on the class for methods.  A wrapper records one span (name,
start, end, parent, job) only while `Tracer.job` is set, so set-up and
verification are not traced.  Spans stay in memory in flat arrays and are
written out once, by `Tracer.dump`, when the run ends.

Self time of a span is its duration minus the durations of its direct child
spans; a layer's `self_frac` is its summed self time over the traced wall
time of the jobs.
"""

import json
import sys
import time
from array import array

# (metric name, module, attribute); "Class.method" patches the class.
TARGETS = (
    ("polynomials.mul", "polynomials", "Poly.__mul__"),
    ("polynomials.divmod", "polynomials", "Poly.__divmod__"),
    ("polynomials.multiplicity", "polynomials", "Poly.multiplicity_of"),
    ("polynomials.gcd", "polynomials", "Poly.gcd"),  # split into gcd_fp / gcd_qq
    ("polynomials.factor", "polynomials", "factor"),
    ("funcfield.element", "funcfield", "FieldElement.__init__"),
    ("funcfield.ord_at", "funcfield", "ord_at"),
    ("funcfield.places_of_poly", "funcfield", "places_of_poly"),
    ("funcfield.parse", "funcfield", "parse"),
    ("funcfield.parse", "funcfield", "parse_element"),
    ("elliptic.add", "elliptic", "add"),
    ("elliptic.bad_places", "elliptic", "bad_places"),
    ("elliptic.kodaira_type", "elliptic", "kodaira_type"),
    ("elliptic.value_at_O", "elliptic", "value_at_O"),
    ("sections.divisor", "sections", "divisor"),
    ("sections.ord_section", "sections", "ord_section"),
    ("pdescent.tangency_scan", "pdescent", "tangency_scan"),
    ("pdescent.descent_divisor", "pdescent", "descent_divisor"),
    ("pdescent.p_descent_value", "pdescent", "p_descent_value"),
    ("pdescent.descent_bound_report", "pdescent", "descent_bound_report"),
    ("maninmap.verify_pf", "maninmap", "verify_pf"),
    ("maninmap.find_pf", "maninmap", "find_pf"),
    ("maninmap.manin_value", "maninmap", "manin_value"),
    ("maninmap.exceptional_set", "maninmap", "exceptional_set"),
    ("maninmap.tangency_report", "maninmap", "tangency_report"),
    ("cli.manifest", "cli", "Manifest.__init__"),
    ("cli.run", "cli", "run"),
)

# names whose exceptions (or, for cli.run, non-zero exit codes) are counted
ERROR_NAMES = (
    "pdescent.descent_bound_report",
    "maninmap.tangency_report",
    "cli.run",
)

_SPAN_NAMES = (
    "polynomials.mul", "polynomials.divmod", "polynomials.multiplicity",
    "polynomials.gcd_fp", "polynomials.gcd_qq", "polynomials.factor",
    *dict.fromkeys(n for n, _, _ in TARGETS[5:]),
    "cli.render",
)

# every per-layer metric, in report order
METRIC_NAMES = (
    *("%s.%s" % (n, k) for n in _SPAN_NAMES for k in ("calls", "self_frac")),
    "polynomials.gcd_fp.deg_sum", "polynomials.gcd_fp.nontrivial_ratio",
    "polynomials.factor.repeat_ratio",
    *("%s.errors" % n for n in ERROR_NAMES),
    "cli.import_s", "trace.overhead_ratio",
)


def unit(metric):
    kind = metric.rpartition(".")[2]
    return {"calls": "count", "errors": "count", "deg_sum": "count",
            "import_s": "s"}.get(kind, "ratio")


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.job_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = []
        self.job = None
        self.errors = {}
        self.gcd_fp_deg_sum = 0
        self.gcd_fp_nontrivial = 0
        self.factor_seen = set()
        self.factor_repeats = 0

    def _id(self, name):
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def span(self, name, fn, args, kwargs):
        """Run fn(*args, **kwargs) inside a span called ``name``."""
        idx = len(self.start)
        self.name_id.append(self._id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.job_id.append(self.job)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self._stack.append(idx)
        try:
            return fn(*args, **kwargs)
        except BaseException:
            self.errors[name] = self.errors.get(name, 0) + 1
            raise
        finally:
            self.end[idx] = time.perf_counter()
            self._stack.pop()

    def count_error(self, name):
        self.errors[name] = self.errors.get(name, 0) + 1

    def counters(self):
        """Counts kept outside spans, keyed as layer_metrics expects."""
        return {
            "errors": dict(self.errors),
            "gcd_fp_deg_sum": self.gcd_fp_deg_sum,
            "gcd_fp_nontrivial": self.gcd_fp_nontrivial,
            "factor_repeats": self.factor_repeats,
        }

    # -- aggregation

    def totals(self):
        """{name: [calls, self seconds]} over every recorded span."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        out = {}
        for i in range(n):
            acc = out.setdefault(self.names[self.name_id[i]], [0, 0.0])
            acc[0] += 1
            acc[1] += dur[i] - child[i]
        return out

    def to_doc(self):
        """Every span, as one JSON-ready document."""
        return {
            "names": self.names,
            "name_id": self.name_id.tolist(),
            "parent": self.parent.tolist(),
            "job": self.job_id.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
        }

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_doc(), fh)


def merge(children):
    """Sum the totals and counters that traced CLI children wrote out."""
    totals = {}
    counters = {"errors": {}, "gcd_fp_deg_sum": 0, "gcd_fp_nontrivial": 0,
                "factor_repeats": 0}
    for child in children:
        for name, (calls, self_s) in child["totals"].items():
            acc = totals.setdefault(name, [0, 0.0])
            acc[0] += calls
            acc[1] += self_s
        for key, val in child["counters"].items():
            if key == "errors":
                for name, count in val.items():
                    counters["errors"][name] = counters["errors"].get(name, 0) + count
            else:
                counters[key] += val
    return totals, counters


def _resolve(module, attr):
    owner = module
    parts = attr.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def install(tracer: Tracer):
    """Wrap every TARGETS entry of the imported library that exists."""
    modules = [m for name, m in sys.modules.items()
               if name == "maninmaps" or name.startswith("maninmaps.")]
    for name, modname, attr in TARGETS:
        module = sys.modules.get("maninmaps." + modname)
        if module is None:
            continue
        try:
            owner, leaf = _resolve(module, attr)
            orig = owner.__dict__[leaf] if isinstance(owner, type) else getattr(owner, leaf)
        except (AttributeError, KeyError):
            continue  # renamed or removed in this version of the library
        wrapper = _make_wrapper(tracer, name, orig)
        setattr(owner, leaf, wrapper)
        if not isinstance(owner, type):
            # names imported by value hold the original object
            for m in modules:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, key, wrapper)


def _make_wrapper(tracer, name, orig):
    span = tracer.span

    if name == "polynomials.gcd":
        def wrapper(a, b, *args, **kwargs):
            if tracer.job is None:
                return orig(a, b, *args, **kwargs)
            if a.field.char:
                g = span("polynomials.gcd_fp", orig, (a, b) + args, kwargs)
                tracer.gcd_fp_deg_sum += max(a.degree, 0) + max(b.degree, 0)
                if g.degree >= 1:
                    tracer.gcd_fp_nontrivial += 1
                return g
            return span("polynomials.gcd_qq", orig, (a, b) + args, kwargs)
    elif name == "polynomials.factor":
        def wrapper(f, *args, **kwargs):
            if tracer.job is None:
                return orig(f, *args, **kwargs)
            key = (f.field, f.coeffs)
            if key in tracer.factor_seen:
                tracer.factor_repeats += 1
            else:
                tracer.factor_seen.add(key)
            return span(name, orig, (f,) + args, kwargs)
    elif name == "cli.run":
        def wrapper(*args, **kwargs):
            if tracer.job is None:
                return orig(*args, **kwargs)
            result = span(name, orig, args, kwargs)
            if result[0] != 0:
                tracer.count_error(name)
            return result
    else:
        def wrapper(*args, **kwargs):
            if tracer.job is None:
                return orig(*args, **kwargs)
            return span(name, orig, args, kwargs)
    wrapper.__name__ = getattr(orig, "__name__", name)
    wrapper.__wrapped__ = orig
    return wrapper


def layer_metrics(totals, wall_s, extra):
    """Per-layer metric values.

    ``totals`` maps span name to [calls, self seconds] and ``wall_s`` is the
    traced wall time of the jobs; ``extra`` holds Tracer.counters() plus
    cli.import_s and trace.overhead_ratio.
    """
    out = {}
    for metric in METRIC_NAMES:
        base, _, kind = metric.rpartition(".")
        calls, self_s = totals.get(base, (0, 0.0))
        if kind == "calls":
            out[metric] = calls
        elif kind == "self_frac":
            out[metric] = self_s / wall_s
        elif kind == "errors":
            out[metric] = extra["errors"].get(base, 0)
    fp_calls = totals.get("polynomials.gcd_fp", (0, 0.0))[0]
    f_calls = totals.get("polynomials.factor", (0, 0.0))[0]
    out["polynomials.gcd_fp.deg_sum"] = extra["gcd_fp_deg_sum"]
    out["polynomials.gcd_fp.nontrivial_ratio"] = (
        extra["gcd_fp_nontrivial"] / fp_calls if fp_calls else 0.0)
    out["polynomials.factor.repeat_ratio"] = (
        extra["factor_repeats"] / f_calls if f_calls else 0.0)
    out["cli.import_s"] = extra["cli.import_s"]
    out["trace.overhead_ratio"] = extra["trace.overhead_ratio"]
    return out
