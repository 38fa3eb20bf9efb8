"""``scripts/bench_files.py --smoke``: one tiny pass a workload, and every field of the files."""

import json
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("cadence-full", "unmatched-heavy", "history")
QUARTILES = {"q1", "median", "q3", "values"}
STAGES = ("match_s", "insert_s", "online_s", "candidate_s", "total_s")


def test_smoke_bench_files_hold_every_field(tmp_path):
    run = subprocess.run(
        [sys.executable, "scripts/bench_files.py", "--smoke", "--out", str(tmp_path)],
        cwd=REPO_ROOT, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stdout[-2000:] + run.stderr[-2000:]
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        f"BENCH_{w}.json" for w in WORKLOADS
    )
    for workload in WORKLOADS:
        bench = json.loads((tmp_path / f"BENCH_{workload}.json").read_text())
        assert bench["workload"] == workload and bench["smoke"] is True
        assert bench["passes"] == 1 and bench["failed_operations"] == 0
        gated = ["setup_s", "frame_p50_ms", "rows_per_s", "peak_rss_mib"]
        history = ["query_p50_ms", "query_p90_ms", "merge_s"] if workload == "history" else []
        for name in gated + history:
            assert set(bench["end_to_end"][name]) == QUARTILES, name
        assert bench["end_to_end"]["peak_rss_mib"]["median"] > 0
        assert set(bench["ru_minflt"]) == QUARTILES and bench["ru_minflt"]["median"] > 0
        assert bench["stages"]["frames"] > 0
        for stage in STAGES:
            figures = bench["stages"][stage]
            assert 0 < figures["median_ms"] <= figures["p95_ms"], stage
        assert isinstance(bench["digest"], str) and len(bench["digest"]) == 64
        assert {"nproc", "ram_total_mib", "cpu_model", "numpy"} <= set(bench["host"])
        assert bench["probe"]["before_ms"] > 0 and bench["probe"]["after_ms"] > 0
        assert len(bench["src_sha256"]) == 64
