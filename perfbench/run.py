"""dscurves benchmark: certify the table, search a q = 3 window, verify cold.

    python3 perfbench/run.py --workload {table,search_q3,verify} --seed N \\
        --seconds S --trace {0,1}
    python3 perfbench/run.py --report [--seed N] [--seconds S]

Every operation runs in a fresh process, because a user pays for filling
the lru_caches on `dset`, `fast_m_bound`, `monic_irreducibles` and
`_square_table` on every CLI call.  One closed-loop client runs one process
at a time, without `--threads`.

A run repeats whole passes of the workload until S seconds are spent and
reports medians.  Before each pass it sets up a few times (write the
workload's inputs, start a child that imports dscurves and reads them).
With `--trace 0` it prints the end-to-end metrics; with `--trace 1` it
alternates untraced passes with traced ones, whose layer timers are
installed from `tracer.py`, and prints the per-layer metrics.  The last
stdout line is one JSON object: correct, attempted, failed, metrics.

BENCHMARK.json gates `table` and `verify`.  `search_q3` drifts too much
between 35- to 50-second runs on a shared 2-vCPU machine to be gated (its
run medians spread by up to 0.29 of their median), so it runs on request
and in `--report`.

`--report` runs all three workloads both ways, with the full tamper set on
`verify` (including the edits verify does not bind yet), and prints every
metric by name with its unit.
"""

import argparse
import hashlib
import json
import os
import random
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import median

import tamper
import tracer

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
REFERENCE = BENCH / "reference"
WORK = BENCH / ".work"
CHILD = str(BENCH / "child.py")
LAUNCH = str(BENCH / "launch.py")

TRIPLES = [
    (3, "t^3+t^2+t+2", "t+1"),
    (3, "t^4+t^3+2t+1", "t^2+1"),
    (3, "t^5+2t+1", "t+2"),
    (5, "t^3+t^2+4t+1", "t+2"),
    (5, "t^4+2", "t^2+t+1"),
    (7, "t^3+2", "t+3"),
]
SEARCH_WINDOW = (3, 5, 2)  # field order, max deg ram1, max deg ram2
SEARCH_ARGV = ["search", "--field-order", "3", "--max-deg1", "5",
               "--max-deg2", "2", "--json"]

WORKLOADS = ("table", "search_q3", "verify")
# set-ups measured before each pass, so that they spread over the run:
# machine speed drifts within seconds
SETUP_PROBES = {"table": 2, "search_q3": 3, "verify": 5}
PROCESS_TIMEOUT_S = 60.0
RUN_BUDGET_S = 150.0

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"))


def _layer(prefix, fields):
    units = {"calls": ("count", "lower"), "hits": ("count", "higher"),
             "misses": ("count", "lower"), "s": ("s", "lower"),
             "self_s": ("s", "lower"), "coeff_ops": ("count", "lower"),
             "found_ratio": ("ratio", "higher"), "places": ("count", "lower"),
             "norm_degree_max": ("degree", "lower")}
    return [("%s.%s" % (prefix, f),) + units[f] for f in fields]


PER_LAYER = (
    _layer("fpoly.mul", ("calls", "self_s", "coeff_ops"))
    + _layer("fpoly.divmod", ("calls", "self_s", "coeff_ops"))
    + _layer("fpoly.powmod", ("calls", "self_s"))
    + _layer("fpoly.residue_symbol", ("calls", "self_s"))
    + _layer("fpoly.is_irreducible", ("calls", "self_s"))
    + _layer("fpoly.monic_irreducibles", ("hits", "misses", "s"))
    + _layer("weil.dset", ("hits", "misses", "s", "self_s", "norm_degree_max"))
    + _layer("weil.p_excluded", ("calls", "s", "self_s"))
    + _layer("splitting.nonexistence_criterion", ("calls", "s"))
    + _layer("splitting.mu_y_obstruction", ("calls", "s"))
    + _layer("localpoints.fast_m_bound",
             ("hits", "misses", "s", "self_s", "found_ratio"))
    + _layer("localpoints.witness_search", ("calls", "s", "self_s", "found_ratio"))
    + _layer("localpoints.witness_ok", ("calls", "s"))
    + _layer("localpoints.lambda_set", ("calls", "s", "places"))
    + _layer("localpoints.local_all", ("calls", "s"))
    + _layer("certificate.hasse_certificate", ("calls", "s", "self_s"))
    + _layer("certificate.verify_certificate", ("calls", "s", "self_s"))
    + [("certificate.valid_ratio", "ratio", "higher")]
    + _layer("cli.main", ("s", "self_s"))
    + [("cli.search.candidates", "count", "lower"),
       ("trace.overhead_s", "s", "lower")]
)

# Workloads on which each traced function must record at least one call,
# so that a renamed function fails the run instead of reporting zero.
ALL = set(WORKLOADS)
MUST_CALL = {
    "fpoly.mul": ALL, "fpoly.divmod": ALL, "fpoly.powmod": ALL,
    "fpoly.residue_symbol": ALL, "fpoly.is_irreducible": ALL,
    "fpoly.monic_irreducibles": ALL,
    "weil.dset": ALL, "weil.p_excluded": ALL,
    "splitting.nonexistence_criterion": ALL,
    "splitting.mu_y_obstruction": ALL,
    "localpoints.fast_m_bound": ALL, "localpoints.lambda_set": ALL,
    "localpoints.witness_search": {"table", "search_q3"},
    "localpoints.local_all": {"table", "search_q3"},
    "certificate.hasse_certificate": {"table", "search_q3"},
    "localpoints.witness_ok": {"verify"},
    "certificate.verify_certificate": {"verify"},
    "cli.main": {"search_q3", "verify"},
}


class Runner:
    """Runs child processes one at a time inside a scratch directory and
    keeps every run under RUN_BUDGET_S."""

    def __init__(self, workdir):
        self.workdir = Path(workdir)
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.deadline = time.perf_counter() + RUN_BUDGET_S
        self.serial = 0

    def path(self, name):
        self.serial += 1
        return self.workdir / ("%d-%s" % (self.serial, name))

    def process(self, argv):
        """Run `python argv` to completion through launch.py; returns its
        exit code, launch stamp, latency from launch to exit, peak RSS,
        stdout, stderr and whether it timed out."""
        out_path, err_path = self.path("stdout"), self.path("stderr")
        timeout = max(1.0, min(PROCESS_TIMEOUT_S,
                               self.deadline - time.perf_counter()))
        cmd = [sys.executable, "-S", "-I", LAUNCH, str(timeout), str(out_path),
               str(err_path), sys.executable] + argv
        proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env,
                                stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, start_new_session=True)
        try:
            report, trouble = proc.communicate(timeout=timeout + 30)
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
        if proc.returncode != 0:
            raise SystemExit("launch.py failed: %s" % trouble.decode(errors="replace"))
        rec = json.loads(report)
        return {"code": rec["code"], "launch": rec["start"],
                "latency": rec["end"] - rec["start"],
                "rss_mb": rec["maxrss_kb"] / 1024.0,
                "stdout": out_path.read_bytes(),
                "stderr": err_path.read_text(errors="replace"),
                "timed_out": rec["timed_out"]}


def crashed(proc):
    return proc["timed_out"] or "Traceback" in proc["stderr"]


def verify_failed(expect_valid, proc):
    """An accepted certificate must exit 0 and say VALID; a tampered one
    must exit 1 or 3.  A tampered certificate that exits 0 has failed."""
    if crashed(proc):
        return True
    if expect_valid:
        return (proc["code"] != 0
                or proc["stdout"] != b"certificate verified: VALID\n")
    return proc["code"] not in tamper.REJECT_CODES


def read_result(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def load_reference():
    certs = [(REFERENCE / ("cert%d.json" % i)).read_bytes()
             for i in range(len(TRIPLES))]
    search = json.loads((REFERENCE / "search_q3.json").read_text())
    return certs, search


# ---------------------------------------------------------------------------
# one pass of each workload: a dict with wall time, peak RSS, operation and failure counts, the outputs the traced
# self-check compares, and the trace files written

def table_pass(runner, ref, trace):
    inputs = runner.path("triples.json")
    inputs.write_text(json.dumps(TRIPLES))
    outdir = runner.path("certs")
    outdir.mkdir()
    result, trace_file = runner.path("result.json"), runner.path("trace.json")
    argv = [CHILD, "table", str(inputs), str(outdir), str(result)]
    proc = runner.process(argv + ([str(trace_file)] if trace else []))
    res = read_result(result)
    outputs = [(outdir / ("cert%d.json" % i)).read_bytes()
               if (outdir / ("cert%d.json" % i)).exists() else None
               for i in range(len(TRIPLES))]
    ok = proc["code"] == 0 and not crashed(proc) and res is not None
    failed = sum(not (ok and res["verdicts"][i] == "VALID" and out == ref[0][i])
                 for i, out in enumerate(outputs))
    return {"wall": res["done"] - res["ready"] if ok else proc["latency"],
            "rss": proc["rss_mb"], "ops": len(TRIPLES), "failed": failed,
            "outputs": outputs, "traces": [trace_file] if trace else []}


def search_pass(runner, ref, trace):
    inputs = runner.path("argv.json")
    inputs.write_text(json.dumps(SEARCH_ARGV))
    result, trace_file = runner.path("result.json"), runner.path("trace.json")
    argv = [CHILD, "search", str(inputs), str(result)]
    proc = runner.process(argv + ([str(trace_file)] if trace else []))
    res = read_result(result)
    ok = (proc["code"] == 0 and not crashed(proc) and res is not None
          and res["code"] == 0
          and hashlib.sha256(proc["stdout"]).hexdigest() == ref[1]["sha256"]
          and contains_table_triples(proc["stdout"]))
    return {"wall": res["done"] - res["ready"] if res else proc["latency"],
            "rss": proc["rss_mb"], "ops": 1, "failed": int(not ok),
            "outputs": [proc["stdout"]], "traces": [trace_file] if trace else []}


def contains_table_triples(stdout):
    found = {(t["ram1"], t["ram2"]) for t in json.loads(stdout)["triples"]}
    return all((r1, r2) in found for q, r1, r2 in TRIPLES if q == 3)


def verify_items(ref, rng, kinds):
    """The six reference certificates plus one seeded tampered variant of
    each: [(name, bytes, expect_valid, kind)]."""
    certs = [json.loads(b) for b in ref[0]]
    items = [("cert%d" % i, b, True, None) for i, b in enumerate(ref[0])]
    for i, kind, desc, data in tamper.tampered_sample(certs, rng, kinds):
        items.append(("cert%d: %s" % (i, desc),
                      json.dumps(data, sort_keys=True, indent=2).encode(),
                      False, kind))
    return items


def verify_pass(runner, items, trace):
    procs, traces = [], []
    for op, (_, data, _, _) in enumerate(items):
        path = runner.path("cert.json")
        path.write_bytes(data)
        if trace:
            traces.append(runner.path("trace.json"))
            argv = [CHILD, "verify", str(path), str(traces[-1]), str(op)]
        else:
            argv = ["-m", "dscurves.cli", "verify", str(path)]
        procs.append(runner.process(argv))
    fails = [verify_failed(expect, p) for (_, _, expect, _), p in zip(items, procs)]
    return {"wall": sum(p["latency"] for p in procs),
            "accept": [p["latency"] for (_, _, e, _), p in zip(items, procs) if e],
            "reject": [p["latency"] for (_, _, e, _), p in zip(items, procs) if not e],
            "rss": max(p["rss_mb"] for p in procs), "ops": len(items),
            "failed": sum(fails), "failures": [it[0] for it, f in zip(items, fails) if f],
            "outputs": [(p["code"], p["stdout"]) for p in procs], "traces": traces,
            "items": items}


def setup_probe(runner, workload, ref):
    """One set-up: write the workload's inputs, start a fresh child that
    imports dscurves and reads them; seconds until it is ready."""
    t0 = time.perf_counter()
    if workload == "verify":
        inputs = runner.path("cert.json")
        inputs.write_bytes(ref[0][-1])
    else:
        inputs = runner.path("inputs.json")
        inputs.write_text(json.dumps(TRIPLES if workload == "table" else SEARCH_ARGV))
    written = time.perf_counter() - t0
    result = runner.path("result.json")
    argv = [CHILD, "probe", "table" if workload == "table" else "cli", str(result)]
    proc = runner.process(argv + ([str(inputs)] if workload == "verify" else []))
    res = read_result(result)
    if proc["code"] != 0 or res is None:
        raise SystemExit("set-up failed for %s:\n%s" % (workload, proc["stderr"]))
    return written + res["ready"] - proc["launch"]


# ---------------------------------------------------------------------------
# per-layer metrics from the trace files of one pass

def layer_metrics(records, workload, overhead_s):
    spans = {}
    kernels, found, cache = {}, {}, {}
    places = valid = norm_max = 0
    for rec in records:
        for name, s in tracer.self_times(rec["spans"]).items():
            spans.setdefault(name, [0, 0.0, 0.0])[2] += s
        for _, name, start, end, _, _ in rec["spans"]:
            acc = spans.setdefault(name, [0, 0.0, 0.0])
            acc[0] += 1
            acc[1] += end - start
        for name, vals in rec["kernels"].items():
            acc = kernels.setdefault(name, [0, 0.0, 0.0, 0])
            for i, v in enumerate(vals):
                acc[i] += v
        for name, n in rec["found"].items():
            found[name] = found.get(name, 0) + n
        for name, (hits, misses) in rec["cache"].items():
            acc = cache.setdefault(name, [0, 0])
            acc[0] += hits
            acc[1] += misses
        places += rec["places"]
        valid += rec["valid"]
        norm_max = max(norm_max, rec["norm_degree_max"])

    m = {}
    for name, (calls, total, self_s, ops) in kernels.items():
        m[name + ".calls"] = calls
        m[name + ".s"] = total
        m[name + ".self_s"] = self_s
        m[name + ".coeff_ops"] = ops
    for mod, fn in tracer.STAGES:
        name = "%s.%s" % (mod, fn)
        calls, total, self_s = spans.get(name, (0, 0.0, 0.0))
        m[name + ".calls"] = calls
        m[name + ".s"] = total
        m[name + ".self_s"] = self_s
        m[name + ".found_ratio"] = found.get(name, 0) / calls if calls else 0.0
    for name, (hits, misses) in cache.items():
        m[name + ".hits"] = hits
        m[name + ".misses"] = misses
    m["weil.dset.norm_degree_max"] = norm_max
    m["localpoints.lambda_set.places"] = places
    certs = m["certificate.hasse_certificate.calls"]
    m["certificate.valid_ratio"] = valid / certs if certs else 0.0
    m["cli.search.candidates"] = (search_candidates(*SEARCH_WINDOW)
                                  if workload == "search_q3" else 0)
    m["trace.overhead_s"] = overhead_s
    return m


def search_candidates(q, max_deg1, max_deg2, y_degree=1):
    """Candidate pairs `dscurves search` enumerates for y = t: monic
    irreducible ram1 != ram2, both != y, with deg(y*ram1*ram2) odd."""
    def count(d):
        return irreducible_count(q, d) - (d == y_degree)
    total = 0
    for d1 in range(1, max_deg1 + 1):
        for d2 in range(1, max_deg2 + 1):
            if (y_degree + d1 + d2) % 2 == 1:
                total += count(d1) * count(d2) - (count(d1) if d1 == d2 else 0)
    return total


def irreducible_count(q, n):
    """Gauss's count of monic irreducibles of degree n over F_q."""
    def mobius(k):
        out, p = 1, 2
        while p * p <= k:
            if k % p == 0:
                k //= p
                if k % p == 0:
                    return 0
                out = -out
            p += 1
        return -out if k > 1 else out
    return sum(mobius(d) * q ** (n // d) for d in range(1, n + 1) if n % d == 0) // n


# ---------------------------------------------------------------------------
# one benchmark run

def run_passes(runner, workload, ref, rng, kinds, seconds, trace,
               fixed_items=None, probes=0):
    """Whole passes, each after `probes` set-ups, for about `seconds`: a new
    pass starts while at least half of the last one still fits.  A pass's
    set-up times are in its "setup" list."""
    passes = []
    for _ in rounds(seconds, runner.deadline):
        setup = [setup_probe(runner, workload, ref) for _ in range(probes)]
        if workload == "table":
            p = table_pass(runner, ref, trace)
        elif workload == "search_q3":
            p = search_pass(runner, ref, trace)
        else:
            p = verify_pass(runner, fixed_items or verify_items(ref, rng, kinds), trace)
        p["setup"] = setup
        passes.append(p)
    return passes


def rounds(seconds, deadline):
    """Yield at least once, then again while half of the last round still
    fits in `seconds` and the run's deadline has not passed."""
    end = time.perf_counter() + seconds
    while True:
        t0 = time.perf_counter()
        yield
        now = time.perf_counter()
        if now + (now - t0) / 2 >= end or now > deadline:
            return


def end_to_end(runner, workload, ref, rng, kinds, seconds):
    passes = run_passes(runner, workload, ref, rng, kinds, seconds, trace=False,
                        probes=SETUP_PROBES[workload])
    values = {
        "setup_s": median([x for p in passes for x in p["setup"]]),
        "wall_s": median([p["wall"] for p in passes]),
        "peak_rss_mb": median([p["rss"] for p in passes]),
    }
    extra = {}
    if workload == "verify":
        accept = [x for p in passes for x in p["accept"]]
        reject = [x for p in passes for x in p["reject"]]
        extra = {"accept_p50_s": (median(accept), len(accept)),
                 "reject_p50_s": (median(reject), len(reject)),
                 "failures": [f for p in passes for f in p["failures"]],
                 "kinds": [it[3] for p in passes for it in p["items"] if it[3]]}
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in END_TO_END}
    ops = sum(p["ops"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    return metrics, ops, failed, extra


def traced(runner, workload, ref, rng, kinds, seconds):
    """Untraced and traced passes in turn, on the same inputs, until
    `seconds` are spent.  Checks that tracing changes no output byte and
    that every function expected on this workload recorded a call.
    Returns (per-layer metrics, every pass run, problems found)."""
    items = verify_items(ref, rng, kinds) if workload == "verify" else None
    plain, passes = [], []
    for _ in rounds(seconds, runner.deadline):
        plain += run_passes(runner, workload, ref, rng, kinds, 0, False, items)
        passes += run_passes(runner, workload, ref, rng, kinds, 0, True, items)
    overhead = median([p["wall"] for p in passes]) - median([p["wall"] for p in plain])
    problems = ["traced outputs differ from untraced outputs"
                for p in passes if p["outputs"] != plain[0]["outputs"]][:1]
    per_pass = []
    for p in passes:
        records = [read_result(f) for f in p["traces"]]
        if any(r is None for r in records):
            return {}, plain + passes, problems + ["a traced process wrote no trace"]
        per_pass.append(layer_metrics(records, workload, overhead))
    for fn, workloads in MUST_CALL.items():
        if workload in workloads and per_pass[0].get(fn + ".calls", 0) < 1:
            problems.append("%s recorded no call on %s" % (fn, workload))
    metrics = {name: {"value": median([m.get(name, 0) for m in per_pass]),
                      "unit": unit}
               for name, unit, _ in PER_LAYER}
    return metrics, plain + passes, problems


# ---------------------------------------------------------------------------

def check_checkout():
    missing = [p for p in (ROOT / "src" / "dscurves" / "__init__.py",
                           REFERENCE / "search_q3.json") if not p.is_file()]
    if missing:
        raise SystemExit("benchmark needs %s (run from a dscurves checkout)"
                         % ", ".join(str(p.relative_to(ROOT)) for p in missing))


def one_run(args):
    ref = load_reference()
    rng = random.Random(args.seed)
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as workdir:
        runner = Runner(workdir)
        setup_probe(runner, args.workload, ref)  # compiles bytecode; not timed
        if args.trace:
            metrics, passes, problems = traced(
                runner, args.workload, ref, rng, tamper.BOUND_KINDS, args.seconds)
            for line in problems:
                print("self-check: " + line)
            attempted = sum(p["ops"] for p in passes)
            failed = sum(p["failed"] for p in passes)
            correct = not problems and failed == 0
        else:
            metrics, attempted, failed, extra = end_to_end(
                runner, args.workload, ref, rng, tamper.BOUND_KINDS, args.seconds)
            for name in ("accept_p50_s", "reject_p50_s"):
                if name in extra:
                    print("%s %.4f s (n=%d)" % ((name,) + extra[name]))
            correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", action="store_true",
                        help="run every workload untraced and traced and "
                             "print every metric")
    args = parser.parse_args(argv)
    if not args.report and not args.workload:
        parser.error("give --workload or --report")
    check_checkout()
    # turn SIGTERM into SystemExit so that Runner.process kills its child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.report:
        import report
        return report.main(args)
    one_run(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
