"""Benchmark for maninmaps: three workloads, one closed-loop client.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Workloads (see NOTES.md for why each exists):
  fp-descent   descent_bound_report on screened curves over F_5, F_7, F_11
  q-tangency   the library path of the `tangency` command over Q(t)
  cli-oneshot  one fresh `python -m maninmaps.cli` process per job

With --trace 0 the end-to-end metrics are measured; with --trace 1 a fixed
job list runs once untraced (in a fresh process) and once traced, and the
per-layer metrics are reported.  The last line of standard output is one
JSON object {"correct", "attempted", "failed", "metrics"}.  Every timing is
normalised by the calibration kernel in calib.py measured next to it; raw
seconds are printed beside it in the report above that line.
"""

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("fp-descent", "q-tangency", "cli-oneshot")
DEFAULT_SEED = 1
SETUP_SAMPLES = 5          # set-up runs per measurement; the median is reported
CAL_HALF_WINDOW = 4        # a job's calibration: median of the samples within 4 jobs
TAIL_BEYOND = 10           # samples beyond the reported tail percentile
PROBE_LADDER = (12, 18, 27)  # n_max ladder of the descent probe outside fp-descent
TRACE_CYCLES = {"fp-descent": 1, "q-tangency": 2, "cli-oneshot": 1}
# Whole cycles per 20 s of --seconds.  At the reference speed that is about
# 38 s of work for fp-descent (54 jobs: two cycles put its median and tail
# inside groups of like jobs), 22 s for q-tangency and 11 s for cli-oneshot.
# The job list is fixed by seed and --seconds, never by the machine's speed.
CYCLES_PER_20S = {"fp-descent": 2, "q-tangency": 4, "cli-oneshot": 1}
WALL_CAP = 3.0             # past this many times --seconds, stop after the current cycle

END_TO_END_UNITS = {
    "setup_s": "s", "throughput_jobs_per_s": "1/s", "latency_p50_s": "s",
    "latency_tail_s": "s", "success_ratio": "ratio", "peak_rss_mb": "MB",
    "descent_nmax_exponent": "1",
}

sys.path.insert(0, str(HERE))
import calib  # noqa: E402


def _die(msg):
    print("perfbench: %s" % msg, file=sys.stderr)
    sys.exit(2)


def _import_library():
    if not (SRC / "maninmaps" / "__init__.py").is_file():
        _die("library sources not found under %s" % SRC)
    if not (ROOT / "manifests").is_dir():
        _die("bundled manifests not found under %s" % ROOT)
    sys.path.insert(0, str(SRC))
    import workloads
    return workloads


def _normalise(raw_s, cal_s):
    return raw_s * calib.REFERENCE_S / cal_s


def calibrate(records, samples):
    """Give each record the median of the kernel samples taken within
    CAL_HALF_WINDOW jobs of it (one sample is taken before every job)."""
    for i, rec in enumerate(records):
        rec.cal = statistics.median(samples[max(0, i - CAL_HALF_WINDOW):i + CAL_HALF_WINDOW + 1])


# ---------------------------------------------------------------------------
# set-up


def n_cycles(name, seconds):
    return max(1, round(CYCLES_PER_20S[name] * seconds / 20))


def setup(wl, name, seed, workdir, cycles):
    """Build the workload's cycles of jobs; returns (cycles, stats)."""
    if name == "fp-descent":
        return wl.fp_setup(seed, cycles)
    if name == "q-tangency":
        return wl.q_setup(seed, cycles)
    return [wl.cli_setup(seed, workdir)] * cycles, {}


def timed_setup(name, seed, workdir, cycles):
    """Import the library and set up, timed from before the import."""
    t0 = time.perf_counter()
    wl = _import_library()
    cycles, stats = setup(wl, name, seed, workdir, cycles)
    raw = time.perf_counter() - t0
    return wl, cycles, stats, raw, calib.measure(3)


def _self_command(args, *extra):
    return [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), *extra]


def _child_json(cmd, timeout):
    """Run a helper copy of this script and parse its last stdout line."""
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    if out.returncode != 0:
        _die("helper %s failed: %s" % (cmd[3:], out.stderr.strip()[-400:]))
    return json.loads(out.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# running jobs


class Record:
    __slots__ = ("job", "raw", "cal", "doc", "error", "problems")

    def __init__(self, job, raw):
        self.job = job
        self.raw = raw
        self.cal = calib.REFERENCE_S
        self.doc = None
        self.error = None
        self.problems = []

    @property
    def norm(self):
        return _normalise(self.raw, self.cal)


def run_inprocess(job, tracer=None, index=None):
    """Time one library job; render and check it outside the timed region."""
    if tracer is not None:
        tracer.job = index
    t0 = time.perf_counter()
    try:
        result = job.run()
        error = None
    except Exception as exc:  # a job failure is counted, never fatal
        result, error = None, "%s: %s" % (type(exc).__name__, exc)
    raw = time.perf_counter() - t0
    if tracer is not None:
        tracer.job = None
    rec = Record(job, raw)
    if error is not None:
        rec.error = error
    else:
        rec.doc = job.render(result)
        rec.problems = job.check(result, rec.doc)
    return rec


class CliJob:
    __slots__ = ("key", "kind", "argv", "expected", "rung")

    def __init__(self, command, path, key, expected):
        self.key = key
        self.kind = command
        self.argv = [command, path]
        self.expected = expected
        self.rung = None


def run_cli(job, env, errpath, child=None):
    """One fresh CLI process; returns (record, child max RSS in KiB)."""
    if child is None:
        cmd = [sys.executable, "-m", "maninmaps.cli", *job.argv]
    else:
        cmd = [sys.executable, str(HERE / "cli_child.py"), child, *job.argv]
    with open(errpath, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=err)
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        raw = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    rec = Record(job, raw)
    rec.doc = out
    if proc.returncode != job.expected:
        tail = Path(errpath).read_text(errors="replace").strip()[-300:]
        rec.error = "exit code %d, expected %d %s" % (proc.returncode, job.expected, tail)
    return rec, usage.ru_maxrss


def cli_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


# ---------------------------------------------------------------------------
# verification (never timed)


def verify(wl, records, name, seed):
    """Check determinism, re-parsing and (on the default seed) digests.

    Adds a problem to each record whose output is wrong; returns the number
    of digests compared.
    """
    digests = wl.load_digests().get(name, {}) if seed == DEFAULT_SEED else {}
    first = {}
    checked = {}
    compared = 0
    for rec in records:
        if rec.error is not None:
            continue
        if name == "cli-oneshot":
            text = rec.doc.decode()
            try:
                doc = json.loads(text)
            except ValueError:
                rec.problems.append("stdout is not JSON")
                continue
            dig = wl.digest(text)
        else:
            doc = rec.doc
            dig = wl.digest(doc)
        key = rec.job.key
        if key in first and first[key] != dig:
            rec.problems.append("output differs from the first run of %s" % key)
        first.setdefault(key, dig)
        if key in digests:
            compared += 1
            if digests[key] != dig:
                rec.problems.append("digest mismatch for %s" % key)
        if dig not in checked:
            if name == "cli-oneshot":
                field, base = wl.cli_fields(doc)
                checked[dig] = wl.reparse_problems(doc, field, base)
            else:
                checked[dig] = wl.reparse_problems(doc, rec.job.field)
        rec.problems += checked[dig]
    return compared


def _failed(rec):
    return rec.error is not None or bool(rec.problems)


# ---------------------------------------------------------------------------
# statistics


def tail(values):
    """(value, percentile, samples beyond) at the highest percentile with
    at least TAIL_BEYOND samples beyond it."""
    xs = sorted(values)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0, 0
    return xs[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def slope(points):
    """Least-squares slope of log y against log x."""
    xs = [math.log(x) for x, _ in points]
    ys = [math.log(y) for _, y in points]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
            / sum((x - mx) ** 2 for x in xs))


def ladder_exponent(records):
    by_rung = {}
    for rec in records:
        if rec.job.rung is not None and rec.error is None:
            by_rung.setdefault(rec.job.rung, []).append(rec.norm)
    return slope([(n, statistics.median(v)) for n, v in sorted(by_rung.items())])


def descent_probe(wl):
    """n_max scaling of descent_bound_report on legendre-f5, for workloads
    whose own jobs have no n_max ladder.  Runs after the timed loop."""
    _, E, P = wl.bundled("legendre-f5")
    points = []
    for n in PROBE_LADDER:
        times = []
        for _ in range(3):
            cal = calib.measure(3)
            t0 = time.perf_counter()
            wl.mm.descent_bound_report(E, P, n_max=n)
            times.append(_normalise(time.perf_counter() - t0, cal))
        points.append((n, statistics.median(times)))
    return slope(points)


# ---------------------------------------------------------------------------
# modes


def measure(args, workdir):
    name = args.workload
    setups = []
    for _ in range(SETUP_SAMPLES - 1):
        child = _child_json(_self_command(args, "--setup-only"), 170)
        setups.append((child["raw"], child["cal"]))
    wl, cycles, stats, raw, cal = timed_setup(name, args.seed, workdir,
                                              n_cycles(name, args.seconds))
    setups.append((raw, cal))
    setup_norm = statistics.median(_normalise(r, c) for r, c in setups)
    setup_raw = statistics.median(r for r, _ in setups)

    records, samples = [], []
    child_rss = 0
    env, errpath = cli_env(), os.path.join(workdir, "stderr.txt")
    start = time.perf_counter()
    for done, cycle in enumerate(cycles, 1):
        for job in cycle:
            samples.append(calib.measure(2))
            if name == "cli-oneshot":
                rec, rss = run_cli(CliJob(*job), env, errpath)
                child_rss = max(child_rss, rss)
            else:
                rec = run_inprocess(job)
            records.append(rec)
        if time.perf_counter() - start > WALL_CAP * args.seconds:
            break
    calibrate(records, samples)
    wall = time.perf_counter() - start
    rss_kib = child_rss if name == "cli-oneshot" else resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss

    compared = verify(wl, records, name, args.seed)
    exponent = ladder_exponent(records) if name == "fp-descent" else descent_probe(wl)

    norm = [r.norm for r in records]
    raws = [r.raw for r in records]
    n = len(records)
    failed = sum(_failed(r) for r in records)
    t_norm, pct, beyond = tail(norm)
    t_raw = tail(raws)[0]
    metrics = {
        "setup_s": setup_norm,
        "throughput_jobs_per_s": n / sum(norm),
        "latency_p50_s": statistics.median(norm),
        "latency_tail_s": t_norm,
        "success_ratio": 1.0 - failed / n,
        "peak_rss_mb": rss_kib / 1024.0,
        "descent_nmax_exponent": exponent,
    }
    report = [
        "workload %s seed %d: %d jobs in %d of %d cycles, %.1f s wall"
        % (name, args.seed, n, done, len(cycles), wall),
        "setup_s               %.4f s   (raw median %.4f s over %d set-ups)"
        % (setup_norm, setup_raw, len(setups)),
        "throughput_jobs_per_s %.4f 1/s (raw %.4f 1/s)" % (metrics["throughput_jobs_per_s"], n / sum(raws)),
        "latency_p50_s         %.4f s   (raw %.4f s)" % (metrics["latency_p50_s"], statistics.median(raws)),
        "latency_tail_s        %.4f s   (raw %.4f s) at p%.1f, %d of %d samples beyond"
        % (t_norm, t_raw, pct, beyond, n),
        "fail_ratio            %.4f     (%d of %d jobs; reported as success_ratio %.4f)"
        % (failed / n, failed, n, metrics["success_ratio"]),
        "peak_rss_mb           %.1f MB" % metrics["peak_rss_mb"],
        "descent_nmax_exponent %.3f     (%s)" % (exponent, "ladder %s" % (wl.FP_LADDER,)
                                             if name == "fp-descent" else
                                             "legendre-f5 probe %s" % (PROBE_LADDER,)),
        "calibration           median kernel %.5f s, reference %.5f s"
        % (statistics.median(r.cal for r in records), calib.REFERENCE_S),
        "digests compared      %d" % compared,
    ]
    if "screened_share" in stats:
        report.append("screened out          %d of %d drawn curves (share %.3f)"
                      % (stats["screened"], stats["drawn"], stats["screened_share"]))
    kinds = {}
    for rec in records:
        kinds.setdefault(rec.job.kind, []).append(rec.norm)
    for kind, xs in sorted(kinds.items()):
        report.append("  kind %-22s %4d jobs  median %.4f s  sum %.2f s"
                      % (kind, len(xs), statistics.median(xs), sum(xs)))
    report += failure_lines(records)
    return records, failed, metrics, END_TO_END_UNITS, report


def failure_lines(records):
    lines = []
    kinds = {}
    for rec in records:
        if _failed(rec):
            reason = rec.error or "; ".join(rec.problems)
            kinds.setdefault(reason[:160], []).append(rec.job.key)
    for reason, keys in sorted(kinds.items()):
        lines.append("failure x%d: %s  [first: %s]" % (len(keys), reason, keys[0]))
    return lines


def trace_jobs(cycles, name):
    jobs = []
    for cycle in cycles[:TRACE_CYCLES[name]]:
        jobs += cycle
    return jobs


def untraced_pass(args, workdir):
    """Helper mode: the traced job list, untraced, in a fresh process."""
    wl, cycles, _, _, _ = timed_setup(args.workload, args.seed, workdir,
                                      TRACE_CYCLES[args.workload])
    records, samples = [], []
    for job in trace_jobs(cycles, args.workload):
        samples.append(calib.measure(2))
        records.append(run_inprocess(job))
    calibrate(records, samples)
    print(json.dumps({"wall_norm": sum(r.norm for r in records)}))


def traced(args, workdir):
    import spans

    name = args.workload
    wl, cycles, _, _, _ = timed_setup(name, args.seed, workdir, TRACE_CYCLES[name])
    jobs = trace_jobs(cycles, name)
    trace_path = os.path.join(args.out_dir, "trace-%s-%d.json" % (name, args.seed))
    if name == "cli-oneshot":
        env, errpath = cli_env(), os.path.join(workdir, "stderr.txt")
        plain, samples = [], []
        for job in jobs:
            samples.append(calib.measure(2))
            plain.append(run_cli(CliJob(*job), env, errpath)[0])
        calibrate(plain, samples)
        untraced_wall = sum(r.norm for r in plain)
        records, samples, children = [], [], []
        for i, job in enumerate(jobs):
            out = os.path.join(workdir, "spans-%d.json" % i)
            samples.append(calib.measure(2))
            rec = run_cli(CliJob(*job), env, errpath, child=out)[0]
            with open(out) as fh:
                child = json.loads(fh.readline())
                rec.raw -= json.loads(fh.readline())["dump_s"]  # not traced work
            records.append(rec)
            children.append(child)
        calibrate(records, samples)
        with open(trace_path, "w") as fh:
            json.dump(children, fh)
        totals, extra = spans.merge(children)
        extra["cli.import_s"] = statistics.median(c["import_s"] for c in children)
    else:
        untraced_wall = _child_json(_self_command(args, "--untraced-pass"), 170)["wall_norm"]
        tracer = spans.Tracer()
        spans.install(tracer)
        records, samples = [], []
        for i, job in enumerate(jobs):
            samples.append(calib.measure(2))
            records.append(run_inprocess(job, tracer, i))
        calibrate(records, samples)
        tracer.dump(trace_path)
        totals = tracer.totals()
        extra = tracer.counters()
        extra["cli.import_s"] = 0.0
    wall = sum(r.raw for r in records)
    traced_norm = sum(r.norm for r in records)
    verify(wl, records, name, args.seed)
    extra["trace.overhead_ratio"] = traced_norm / untraced_wall
    metrics = spans.layer_metrics(totals, wall, extra)
    failed = sum(_failed(r) for r in records)
    report = ["workload %s seed %d traced: %d jobs, traced wall %.2f s (normalised %.2f s), "
              "untraced %.2f s, overhead x%.3f"
              % (name, args.seed, len(records), wall, traced_norm, untraced_wall,
                 extra["trace.overhead_ratio"])]
    report += ["%-45s %s" % (k, v) for k, v in metrics.items()]
    report += failure_lines(records)
    units = {k: spans.unit(k) for k in metrics}
    return records, failed, metrics, units, report


def write_digests(args, workdir):
    """Record the canonical output digest of every successful job of the
    default seed (all cycles) in digests.json."""
    wl, cycles, _, _, _ = timed_setup(args.workload, DEFAULT_SEED, workdir,
                                      n_cycles(args.workload, args.seconds))
    env, errpath = cli_env(), os.path.join(workdir, "stderr.txt")
    found = {}
    for cycle in cycles:
        for job in cycle:
            if args.workload == "cli-oneshot":
                rec, _ = run_cli(CliJob(*job), env, errpath)
                dig = None if rec.error else wl.digest(rec.doc.decode())
            else:
                rec = run_inprocess(job)
                dig = None if rec.error or rec.problems else wl.digest(rec.doc)
            if dig is not None:
                found[rec.job.key] = dig
    path = HERE / "digests.json"
    table = json.loads(path.read_text()) if path.exists() else {}
    table[args.workload] = dict(sorted(found.items()))
    path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print("%d digests written for %s" % (len(found), args.workload))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--untraced-pass", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--write-digests", action="store_true",
                    help="record default-seed output digests (only when outputs "
                    "are meant to change)")
    args = ap.parse_args(argv)

    if os.environ.get("PYTHONHASHSEED") != "0":
        # fixed string hashing: identical set orders, so traced call counts repeat
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  dict(os.environ, PYTHONHASHSEED="0"))

    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    args.out_dir = str(out_dir)
    workdir = tempfile.mkdtemp(prefix="work-", dir=out_dir)
    try:
        if args.setup_only:
            _, _, _, raw, cal = timed_setup(args.workload, args.seed, workdir,
                                            n_cycles(args.workload, args.seconds))
            print(json.dumps({"raw": raw, "cal": cal}))
            return 0
        if args.untraced_pass:
            untraced_pass(args, workdir)
            return 0
        if args.write_digests:
            write_digests(args, workdir)
            return 0
        mode = traced if args.trace else measure
        records, failed, metrics, units, report = mode(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for line in report:
        print(line)
    correct = not any(r.problems for r in records)
    print(json.dumps({
        "correct": correct,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
