"""The traced benchmark run emits every per-layer metric that BENCHMARK.json declares.

The traced pass of ``perfbench/run.py`` wraps helpers of the package by
name, and a hook whose helper is gone is skipped without a word: its
metrics drop out of the result while the run still exits 0.  This test
fails when a hooked helper is renamed or removed.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traced_run_emits_every_per_layer_metric():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "many-sites", "--seed", "1",
         "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    metrics = result["metrics"]
    assert [m["name"] for m in declared if m["name"] not in metrics] == []
    assert all(math.isfinite(metrics[m["name"]]["value"]) for m in declared)
