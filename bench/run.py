"""flatpoly benchmark: drive the real CLI in-process on seeded inputs.

    python3 bench/run.py --workload basis-scan --seed 1 --seconds 36 --trace 0

One client, closed loop: the workload is a fixed list of requests, sent
one after another through ``flatpoly.cli.main(argv)`` with stdout
captured, in passes until ``--seconds`` are used. Every output is checked
independently (``checks.py``). With ``--trace 0`` the last line of stdout
is a JSON object with the end-to-end metrics; with ``--trace 1`` untraced
and traced passes alternate and it holds the per-layer metrics, read from
spans recorded by ``layertrace.py``. Spans are written under
``.bench_build/traces/``.

Exit code 0 on a finished run (``correct`` says whether every output
checked), 2 when the program under test cannot be found or imported.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import math
import resource
import statistics
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import checks
import workloads
from layertrace import LAYERS, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build"

MIN_PASSES = 5
MAX_MEASURE_S = 150.0      # hard stop, well inside the 180 s run limit
SETUP_SPAWNS = 11

_READY = ("import sys; sys.path.insert(0, sys.argv[1]); import flatpoly.cli; "
          "sys.stdout.write('ready\\n'); sys.stdout.flush()")


class Runner:
    """Sends requests, times them, and checks every output."""

    def __init__(self, cli, requests):
        self.cli = cli
        self.requests = requests
        self.verified = {}      # request index -> output that passed checks
        self.attempted = 0
        self.failures = []      # failed requests
        self.problems = []      # anything else that makes the run incorrect

    def call(self, idx):
        """Run request idx once; returns its wall time in seconds."""
        req = self.requests[idx]
        out, err = io.StringIO(), io.StringIO()
        rc, error = None, None
        with redirect_stdout(out), redirect_stderr(err):
            t0 = perf_counter()
            try:
                rc = self.cli.main(req.argv)
            except Exception as e:      # a traceback is a failed request
                error = f"{type(e).__name__}: {e}"
            dt = perf_counter() - t0
        self.attempted += 1
        if error is None:
            error = self._check(idx, req, rc, out.getvalue(), err.getvalue())
        if error is not None:
            self.failures.append(f"request {idx} ({' '.join(req.argv)}): "
                                 f"{error}")
        return dt

    def _check(self, idx, req, rc, out, err):
        if rc != req.expect_rc:
            return f"exit {rc}, expected {req.expect_rc}: {err.strip()}"
        if idx in self.verified:
            # Reports are deterministic; later passes must repeat the
            # output that passed the full check.
            return None if out == self.verified[idx] else "output changed"
        try:
            report = json.loads(out)
            error = checks.CHECKS[req.kind](report, req.expect)
        except (ValueError, KeyError, TypeError, IndexError) as e:
            error = f"malformed report: {type(e).__name__}: {e}"
        if error is None:
            self.verified[idx] = out
        return error

    def run_pass(self, tracer=None):
        lat = []
        for i in range(len(self.requests)):
            if tracer is None:
                lat.append(self.call(i))
            else:
                root = tracer.begin_request(i)
                lat.append(self.call(i))
                tracer.end_request(root)
        return lat


def percentile(values, pct):
    """Nearest-rank percentile."""
    s = sorted(values)
    return s[max(0, math.ceil(pct / 100 * len(s)) - 1)]


def measure_setup():
    """Median wall time from starting a fresh interpreter to flatpoly.cli
    imported and ready, after one warm-up start that fills the bytecode
    cache."""
    times = []
    for k in range(SETUP_SPAWNS + 1):
        t0 = perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", _READY, str(SRC)],
                                stdout=subprocess.PIPE, cwd=ROOT, text=True)
        line = proc.stdout.readline()
        dt = perf_counter() - t0
        proc.stdout.close()
        if proc.wait() != 0 or line.strip() != "ready":
            raise RuntimeError("fresh interpreter could not import flatpoly")
        if k:
            times.append(dt)
    return statistics.median(times)


def _keep_going(passes, elapsed, seconds):
    if elapsed > MAX_MEASURE_S:
        return False
    if len(passes) < MIN_PASSES:
        return True
    return elapsed + elapsed / len(passes) <= seconds


def timed_run(runner, seconds, tail_pct):
    setup_s = measure_setup()
    passes = []
    t0 = perf_counter()
    while _keep_going(passes, perf_counter() - t0, seconds):
        passes.append(runner.run_pass())
    samples = [x for p in passes for x in p]
    k = len(runner.requests)
    beyond = len(samples) - math.ceil(tail_pct / 100 * len(samples))
    print(f"{k} requests x {len(passes)} passes = {len(samples)} samples; "
          f"latency_tail_s is p{tail_pct} ({beyond} samples beyond it); "
          f"failed_ratio = {len(runner.failures)}/{runner.attempted}")
    metrics = {
        "setup_s": (setup_s, "s"),
        "latency_p50_s": (statistics.median(samples), "s"),
        "latency_tail_s": (percentile(samples, tail_pct), "s"),
        "throughput_ops_s": (statistics.median(k / sum(p) for p in passes),
                             "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
    }
    return metrics


# ---------------------------------------------------------------------------
# traced run

#: Single functions reported beside their layer's totals.
FUNCTION_TIMES = ("ormatroid.ext_semiactivity", "exactnum.det",
                  "graphkit.spanning_trees", "graphkit.p_poly",
                  "lpexact.lp_solve", "polyshape.box_certificate",
                  "totpos.flat_maxpos_from_C", "totpos.f_tp_closed",
                  "planardual.alexander_poly")
FUNCTION_CALLS = ("ormatroid.ext_semiactivity", "exactnum.det",
                  "exactnum.rank", "exactnum.solve", "lpexact.lp_solve",
                  "zonolattice.max_epsilon")


def _ratio(a, b):
    return a / b if b else 0.0


def pass_metrics(tracer, before, after):
    """Per-layer metrics of one traced pass, from the marks around it."""
    lo, calls0, counts0 = before
    hi, calls1, counts1 = after
    calls = calls1 - calls0
    counts = counts1 - counts0
    self_t = tracer.self_times(lo, hi)
    m = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (sum(v for k, v in self_t.items()
                                    if k.split(".")[0] == layer), "s")
        m[f"{layer}.calls"] = (sum(v for k, v in calls.items()
                                   if k.split(".")[0] == layer), "count")
    for fn in FUNCTION_TIMES:
        m[f"{fn}.self_s"] = (self_t.get(fn, 0.0), "s")
    for fn in FUNCTION_CALLS:
        m[f"{fn}.calls"] = (calls.get(fn, 0), "count")
    minors = tracer.count_under(lo, hi, "exactnum.minor",
                                "ormatroid.enumerate_bases")
    bases = counts["ormatroid.enumerate_bases.yields"]
    trees = counts["graphkit.spanning_trees.yields"]
    tried = counts["graphkit.subsets_tried"]
    lps = calls.get("lpexact.lp_solve", 0)
    cand = counts["zonolattice.candidates"]
    trimmed = counts["zonolattice.trimmed"]
    m.update({
        "ormatroid.minors_tried": (minors, "count"),
        "ormatroid.bases": (bases, "count"),
        "ormatroid.basis_ratio": (_ratio(bases, minors), "ratio"),
        "graphkit.trees": (trees, "count"),
        "graphkit.subsets_tried": (tried, "count"),
        "graphkit.tree_ratio": (_ratio(trees, tried), "ratio"),
        "lpexact.vars_mean": (_ratio(counts["lpexact.vars"], lps), "count"),
        "lpexact.rows_mean": (_ratio(counts["lpexact.rows"], lps), "count"),
        "lpexact.optimal_ratio": (_ratio(counts["lpexact.optimal"], lps),
                                  "ratio"),
        "zonolattice.lattice_points": (cand, "count"),
        "zonolattice.trimmed": (trimmed, "count"),
        "zonolattice.trimmed_ratio": (_ratio(trimmed, cand), "ratio"),
        "polyshape.compositions": (counts["polyshape.compositions"], "count"),
    })
    return m


def traced_run(runner, seconds, trace_path):
    tracer = Tracer()
    plain, traced, per_pass = [], [], []
    t0 = perf_counter()
    while _keep_going(traced, perf_counter() - t0, seconds):
        plain.append(sum(runner.run_pass()))
        tracer.install()
        try:
            before = tracer.mark()
            traced.append(sum(runner.run_pass(tracer)))
            per_pass.append(pass_metrics(tracer, before, tracer.mark()))
        finally:
            tracer.uninstall()
    metrics = {}
    for name, (_, unit) in per_pass[0].items():
        values = [p[name][0] for p in per_pass]
        # Times vary per pass, so take the median; counts are exact and
        # must repeat, so take the first pass and flag any change.
        if unit == "s":
            metrics[name] = (statistics.median(values), unit)
        else:
            if len(set(values)) != 1:
                runner.problems.append(f"{name} changed between passes: "
                                       f"{values}")
            metrics[name] = (values[0], unit)
    metrics["trace.overhead_ratio"] = (
        statistics.median(traced) / statistics.median(plain), "ratio")
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    tracer.write(trace_path)
    print(f"{len(runner.requests)} requests x {len(traced)} traced passes; "
          f"{len(tracer.starts)} spans written to "
          f"{trace_path.relative_to(ROOT)}")
    total = sum(metrics[f"{layer}.self_s"][0] for layer in LAYERS)
    shares = ", ".join(f"{layer} {metrics[f'{layer}.self_s'][0] / total:.1%}"
                       for layer in LAYERS if metrics[f"{layer}.self_s"][0])
    print(f"layer self-time shares: {shares}")
    return metrics


# ---------------------------------------------------------------------------

def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="smallest inputs, for the self-check")
    args = ap.parse_args(argv)

    if not (SRC / "flatpoly" / "cli.py").is_file():
        print(f"error: flatpoly sources not found under {SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        from flatpoly import cli
    except ImportError as e:
        print(f"error: cannot import flatpoly: {e}", file=sys.stderr)
        return 2

    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK, prefix="inputs-") as wd:
        requests, tail_pct = workloads.build(args.workload, args.seed, wd,
                                             args.tiny)
        runner = Runner(cli, requests)
        # Keep the benchmark's own objects out of the program's collections.
        gc.freeze()
        if args.trace:
            path = WORK / "traces" / f"{args.workload}.tsv"
            metrics = traced_run(runner, args.seconds, path)
        else:
            metrics = timed_run(runner, args.seconds, tail_pct)

    for line in runner.failures[:20] + runner.problems:
        print(f"FAILED {line}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:.6g} {unit}")
    print(json.dumps({
        "correct": not runner.failures and not runner.problems,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
