"""A traced benchmark run reports every per-layer metric.

``perfbench/run.py`` is run from the root of the checkout, as the benchmark
runs it, on the ``sweep`` workload with ``--trace 1``. Its last stdout line
must be strict JSON (no NaN or Infinity), the run correct with no failed
command, and every per-layer metric that ``BENCHMARK.json`` declares
present.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _strict(token: str):
    raise ValueError(f"non-finite number {token} in the result line")


def test_traced_sweep_run_reports_every_layer():
    traces = ROOT / ".perfbench_work" / "traces"
    before = set(os.listdir(traces)) if traces.is_dir() else set()
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1",
             "--seconds", "0.1", "--trace", "1"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
        )
    finally:
        # the run removes its inputs but leaves its trace directory
        for name in set(os.listdir(traces)) - before if traces.is_dir() else ():
            shutil.rmtree(traces / name)
        for empty in (traces, traces.parent):
            if empty.is_dir() and not os.listdir(empty):
                empty.rmdir()
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1], parse_constant=_strict)
    assert result["correct"], proc.stderr
    assert result["failed"] == 0
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]
    missing = sorted({m["name"] for m in declared} - set(result["metrics"]))
    assert missing == []
