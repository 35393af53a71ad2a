"""Each benchmark pass emits every metric that BENCHMARK.json declares for it.

The untraced pass (``--trace 0``) reports the end-to-end metrics.  The
traced pass (``--trace 1``) of ``perfbench/run.py`` wraps helpers of the
package by name, and a hook whose helper is gone is skipped without a word:
its metrics drop out of the result while the run still exits 0.  This test
fails when a metric is missing or not finite, for instance when a hooked
helper is renamed or removed.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "workload, trace, declared_key",
    [
        pytest.param("many-sites", 0, "end_to_end", id="trace-0"),
        pytest.param("many-sites", 1, "per_layer", id="trace-1"),
        # the workload whose build is mostly triangle restriction
        pytest.param("fine-mesh", 0, "end_to_end", id="fine-mesh-trace-0"),
        pytest.param("fine-mesh", 1, "per_layer", id="fine-mesh-trace-1"),
        # the workload that builds once at given weights, then assigns and writes frames
        pytest.param("post-solve", 0, "end_to_end", id="post-solve-trace-0"),
        pytest.param("post-solve", 1, "per_layer", id="post-solve-trace-1"),
    ],
)
def test_run_emits_every_declared_metric(workload, trace, declared_key):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[declared_key]
    metrics = result["metrics"]
    assert [m["name"] for m in declared if m["name"] not in metrics] == []
    assert all(math.isfinite(metrics[m["name"]]["value"]) for m in declared)
