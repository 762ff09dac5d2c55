"""The benchmark wraps library functions by name from outside, so a
library refactor can break it without any library test noticing. Run its
self-check: every workload at a tiny size, traced and untraced."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_selfcheck_passes():
    proc = subprocess.run([sys.executable, "bench/selfcheck.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]


def test_bench_records_name_declared_workloads_and_metrics():
    # Each committed BENCH_*.json holds parent/change medians per workload;
    # a record is only comparable with the benchmark if it uses its names.
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = {w["name"] for w in spec["workloads"]}
    metrics = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    records = sorted(ROOT.glob("BENCH_*.json"))
    assert records
    for path in records:
        record = json.loads(path.read_text())
        assert record["workloads"], path.name
        for workload, rows in record["workloads"].items():
            assert workload in workloads, (path.name, workload)
            for metric, row in rows["metrics"].items():
                assert metric in metrics, (path.name, workload, metric)
                for side in ("parent", "change"):
                    assert isinstance(row[side]["median"], (int, float))
