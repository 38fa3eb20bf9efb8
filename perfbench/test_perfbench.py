"""Tests of the benchmark itself, on its tiny ``--smoke`` sizes.

Run from the repository root:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args, root=ROOT):
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), *args],
        cwd=root, capture_output=True, text=True, timeout=600,
    )


def result_of(proc) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def digest_of(proc) -> str:
    return next(
        line.split()[-1] for line in proc.stdout.splitlines()
        if line.strip().startswith("digest:")
    )


def record_of(root: Path, workload: str, seed: int, trace: int = 0) -> dict:
    path = root / ".perfbench-runs" / f"{workload}-seed{seed}-trace{trace}.json"
    return json.loads(path.read_text())


def checkout_copy(dest: Path) -> Path:
    """The files a benchmark checkout holds: program, spec and benchmark."""
    shutil.copytree(ROOT / "src", dest / "src", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(HERE, dest / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", dest / "BENCHMARK.json")
    return dest


@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_runs_every_workload_and_reports_every_metric(trace):
    proc = bench("--workload", "all", "--smoke", "--seed", "5", "--trace", str(trace))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = result_of(proc)
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    for workload in WORKLOADS:
        for metric in wanted:
            got = result["metrics"][f"{workload}.{metric['name']}"]
            assert got["unit"] == metric["unit"]
            assert isinstance(got["value"], (int, float))
            if not trace:
                assert got["value"] > 0, (workload, metric["name"])


def test_traced_run_confirms_workload_design():
    shares = {}
    for workload in WORKLOADS:
        proc = bench("--workload", workload, "--smoke", "--seed", "6", "--trace", "1")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        shares[workload] = {k: v["value"] for k, v in result_of(proc)["metrics"].items()}
    heavy = shares["unmatched-heavy"]
    assert heavy["mining.tracker_update_ms"] == max(
        heavy[k] for k in heavy if k.endswith("_ms") and k != "skygen.observe_frame_ms"
        and k.startswith(("crossmatch.", "store.", "lightcurve.", "mining.", "pipeline."))
    )
    # Smoke frames are 100x smaller than full scale, where the tracker's share
    # is far below 1%; its fixed per-call cost weighs more here.
    assert shares["cadence-full"]["frame_share.tracker_pct"] < 5.0
    assert shares["cadence-full"]["frame_share.tracker_pct"] < heavy["frame_share.tracker_pct"] / 10
    assert shares["history"]["merge_s"] > 0 and shares["history"]["query_p50_ms"] > 0


def test_same_seed_gives_same_digest():
    first = bench("--workload", "history", "--smoke", "--seed", "9")
    second = bench("--workload", "history", "--smoke", "--seed", "9")
    assert first.returncode == second.returncode == 0, first.stdout + second.stdout
    assert digest_of(first) == digest_of(second)
    other = bench("--workload", "history", "--smoke", "--seed", "10")
    assert digest_of(other) != digest_of(first)


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = bench("--workload", "cadence-full", "--seed", "1", "--seconds", "1", root=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip().startswith("{")


def test_failed_check_is_counted_and_the_run_goes_on(tmp_path):
    root = checkout_copy(tmp_path)
    pipeline = root / "src" / "tdcat" / "pipeline.py"
    text = pipeline.read_text()
    drop = "alerts.extend(self.tracker.update(frame.epoch, unmatched, frame.camera_id))"
    assert drop in text
    pipeline.write_text(text.replace(drop, "self.tracker.update(frame.epoch, unmatched, frame.camera_id)"))
    proc = bench("--workload", "unmatched-heavy", "--smoke", "--seed", "2", root=root)
    assert proc.returncode == 1
    result = result_of(proc)
    assert result["correct"] is False and result["failed"] == 1
    assert record_of(root, "unmatched-heavy", 2)["samples"]["frames"] == 16


def test_exception_is_counted_and_the_run_goes_on(tmp_path):
    root = checkout_copy(tmp_path)
    lc = root / "src" / "tdcat" / "lightcurve.py"
    text = lc.read_text()
    head = '    """Assemble one star\'s curve from persisted partition stores."""\n'
    assert head in text
    lc.write_text(text.replace(head, head + "    raise OSError('injected')\n"))
    proc = bench("--workload", "history", "--smoke", "--seed", "2", root=root)
    assert proc.returncode == 1
    result = result_of(proc)
    counts = record_of(root, "history", 2)["samples"]
    assert counts["queries"] == 24 and counts["merges"] == 3 and counts["replays"] == 1
    assert result["failed"] == counts["queries"]
