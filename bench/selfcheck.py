"""Self-check of the benchmark itself.

    python3 bench/selfcheck.py

1. Runs every workload at its tiny size, untraced and traced, and checks
   that the result line names exactly the metrics of BENCHMARK.json, each
   with its unit, and that every output checked.
2. Corrupts one real report of every request kind and checks that the
   independent checks reject it, and that a runner fed corrupted output
   counts the request as failed.
3. Runs the benchmark in a directory holding only BENCHMARK.json and the
   benchmark's files, where it must fail without printing a result.
4. Checks that every workload and metric named in layers.json exists.

Exit code 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import copy
import io
import json
import shutil
import subprocess
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

import checks
import run
import workloads

ROOT = run.ROOT
BENCH = Path(__file__).resolve().parent


def _bump_first(report):
    report["result_poly"]["coeffs"][0] = int(
        report["result_poly"]["coeffs"][0]) + 1


def _drop_point(report):
    report["trimmed"]["points"].pop()


def _bump_cert(report):
    comp, coef = report["certificate"][0]
    report["certificate"][0] = [comp, str(checks.as_int(coef) + 1)]


def _claim_positive(report):
    report["box_positive"] = True
    report["certificate"] = []


def corrupt(req, report):
    """A wrong copy of a right report, one field changed."""
    bad = copy.deepcopy(report)
    if req.kind == "zonotope":
        _drop_point(bad)
    elif req.kind == "tp":
        _bump_cert(bad)
    elif req.kind == "boxcert":
        (_bump_cert if req.expect["feasible"] else _claim_positive)(bad)
    else:
        _bump_first(bad)
    return bad


class CorruptingCli:
    """Stands in for flatpoly.cli: runs the real command, then prints a
    corrupted copy of its report."""

    def __init__(self, cli, requests):
        self.cli = cli
        self.by_argv = {tuple(r.argv): r for r in requests}

    def main(self, argv):
        buf = io.StringIO()
        with redirect_stdout(buf):
            rc = self.cli.main(argv)
        report = json.loads(buf.getvalue())
        print(json.dumps(corrupt(self.by_argv[tuple(argv)], report)))
        return rc


def check_metric_names(spec, problems):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[key]}
        for w in spec["workloads"]:
            name = w["name"]
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", name,
                 "--seed", "0", "--seconds", "1", "--trace", str(trace),
                 "--tiny"], capture_output=True, text=True, cwd=ROOT,
                timeout=180)
            tag = f"{name} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{tag}: exit {proc.returncode}: "
                                f"{proc.stderr.strip()[-300:]}")
                continue
            result = json.loads(proc.stdout.splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{tag}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{tag}: outputs did not check: "
                                f"{proc.stderr.strip()[-300:]}")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                problems.append(f"{tag}: metrics differ from BENCHMARK.json: "
                                f"{sorted(set(got) ^ set(want))}")
            lines = proc.stdout.splitlines()[:-1]
            for line in lines if trace == 0 else lines[:2]:
                print(f"  {tag}: {line.strip()}")


def check_corruption(spec, problems):
    from flatpoly import cli
    with tempfile.TemporaryDirectory(dir=run.WORK) as wd:
        for w in spec["workloads"]:
            requests, _ = workloads.build(w["name"], 0, wd, tiny=True)
            for req in requests:
                buf = io.StringIO()
                with redirect_stdout(buf):
                    cli.main(req.argv)
                report = json.loads(buf.getvalue())
                check = checks.CHECKS[req.kind]
                if check(report, req.expect) is not None:
                    problems.append(f"{req.kind}: right report rejected")
                if check(corrupt(req, report), req.expect) is None:
                    problems.append(f"{req.kind}: corrupted report accepted")
            runner = run.Runner(CorruptingCli(cli, requests), requests)
            runner.run_pass()
            if len(runner.failures) != len(requests):
                problems.append(f"{w['name']}: {len(runner.failures)} of "
                                f"{len(requests)} corrupted outputs failed")


def check_no_program(problems):
    with tempfile.TemporaryDirectory(dir=run.WORK) as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, Path(bare) / BENCH.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, f"{BENCH.name}/run.py", "--workload",
             "basis-scan", "--seed", "0", "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, cwd=bare, timeout=180)
        if proc.returncode == 0 or '"metrics"' in proc.stdout:
            problems.append("ran without the program under test")


def check_predictions(spec, problems):
    table = json.loads((BENCH / "layers.json").read_text())
    known = {w["name"] for w in spec["workloads"]} | {"all"}
    per_layer = {m["name"] for m in spec["per_layer"]}
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    for row in table["predictions"]:
        if row["workload"] not in known:
            problems.append(f"layers.json: unknown workload {row['workload']}")
        for name in set(row["layer_metrics"]) - per_layer:
            problems.append(f"layers.json: unknown per-layer metric {name}")
        for name in set(row["moves"]) - end_to_end:
            problems.append(f"layers.json: unknown end-to-end metric {name}")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if {w["name"] for w in spec["workloads"]} != set(workloads.WORKLOADS):
        print("BENCHMARK.json workloads differ from workloads.WORKLOADS")
        return 1
    sys.path.insert(0, str(run.SRC))
    run.WORK.mkdir(exist_ok=True)
    problems = []
    check_predictions(spec, problems)
    check_metric_names(spec, problems)
    check_corruption(spec, problems)
    check_no_program(problems)
    for p in problems:
        print(f"FAIL {p}")
    print("self-check", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
