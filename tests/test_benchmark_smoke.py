"""The benchmark's traced smoke pass, run from the checkout as the benchmark runs it.

``perfbench`` binds names in ``src/tdcat`` that no interface states: it reads
some at import and wraps others as trace targets under ``--trace 1``.  A change
that drops or renames one fails here, not only in a benchmark run.
"""

import json
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]


def test_traced_smoke_benchmark_runs_every_workload():
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "all", "--smoke", "--seed", "3",
         "--trace", "1"],
        cwd=REPO_ROOT, capture_output=True, text=True, timeout=600,
    )
    assert run.returncode == 0, run.stdout[-2000:] + run.stderr[-2000:]
    last = json.loads(run.stdout.strip().splitlines()[-1])
    assert last["correct"] is True and last["failed"] == 0
    # the frame path feeds the window bank through its traced call; frame
    # shares are not checked, since the tracer's one span stack misplaces
    # the stages that overlap the insert thread
    for workload in ("cadence-full", "unmatched-heavy", "history"):
        assert last["metrics"][f"{workload}.mining.window_update_ms"]["value"] > 0, workload
