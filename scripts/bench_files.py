#!/usr/bin/env python3
"""Write ``BENCH_<workload>.json`` for every workload of ``BENCHMARK.json``.

    python3 scripts/bench_files.py                            # the checked-in files
    python3 scripts/bench_files.py --smoke --out /tmp/bench   # one tiny pass each

For each workload it runs ``perfbench/run.py --trace 0 --seed 1`` from this
checkout ``PASSES`` times, each pass in a child process, and keeps every
pass (the benchmark's digests are pinned to seed 1).  Then one more child
process builds the workload's camera as the benchmark does
(``workloads.build_camera``: its template, its store and the night's
injections) and times ``PartitionWorker.process_frame`` on the workload's
frames, as ``scripts/stage_ab.py`` does for one side.  A file holds:

- ``end_to_end``: every end-to-end metric of the passes' records, the gated
  ones (``peak_rss_mib`` among them) and, on ``history``, ``query_p50_ms``,
  ``query_p90_ms``, ``merge_s`` and the throughputs: first quartile, median
  and third quartile over the passes, and each pass's value;
- ``ru_minflt``: the minor page faults of each pass's child process, in the
  same form;
- ``stages``: the median and 95th percentile of each ``StageTimings`` field
  over the stage run's frames after the first ``WARMUP``, in ms, and the
  frame count;
- ``digest``: the benchmark's digests of the passes (one, when they agree);
- ``host``: the benchmark's host record (cores, RAM, CPU, Python, numpy);
- ``probe``: the median time of a fixed numpy sort (``PROBE_ROWS`` float64
  values from seed 0) before the workload's passes and after its stage run,
  so that a later reader can tell host drift from a change in the code;
- ``src_sha256``: a hash of the ``src/tdcat`` sources measured.

With ``--smoke`` each workload takes one pass and one stage run at the
benchmark's smoke size.  Besides the files, it writes only what the benchmark
itself writes under ``.perfbench-runs/``.  A failed pass or stage run stops it
with exit code 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from ab_bench import quartiles

REPO = Path(__file__).resolve().parents[1]
STAGES = ("match_s", "insert_s", "online_s", "candidate_s", "total_s")
WARMUP = 4  # frames left out of the stage figures
PROBE_ROWS = 1 << 20
SECONDS = 25  # the benchmark's run length, which sets each workload's size
PASSES = 5
SEED = 1


def spread(values) -> dict:
    """First quartile, median and third quartile of ``values``, and the values."""
    return {**dict(zip(("q1", "median", "q3"), quartiles(values))), "values": list(values)}


def probe_ms(runs: int = 5) -> float:
    """Median wall time of ``np.sort`` on ``PROBE_ROWS`` fixed float64 values, in ms."""
    import numpy as np

    values = np.random.default_rng(0).random(PROBE_ROWS)
    times = []
    for _ in range(runs):
        t0 = time.perf_counter()
        np.sort(values)
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


def src_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((REPO / "src" / "tdcat").glob("*.py")):
        h.update(path.name.encode() + path.read_bytes())
    return h.hexdigest()


def child(argv) -> tuple:
    """Run ``argv`` from the checkout; its stdout lines, minor faults and wall seconds."""
    before, t0 = resource.getrusage(resource.RUSAGE_CHILDREN), time.perf_counter()
    proc = subprocess.run(argv, cwd=REPO, capture_output=True, text=True)
    wall, after = time.perf_counter() - t0, resource.getrusage(resource.RUSAGE_CHILDREN)
    if proc.returncode:
        raise SystemExit(f"{' '.join(argv)} exited {proc.returncode}:\n"
                         f"{(proc.stdout + proc.stderr)[-3000:]}")
    return proc.stdout.strip().splitlines(), after.ru_minflt - before.ru_minflt, wall


def run_pass(workload: str, smoke: bool) -> dict:
    """One ``--trace 0`` pass of the benchmark: its record, page faults and wall time."""
    lines, minflt, wall = child(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", str(SECONDS), "--trace", "0", *(["--smoke"] if smoke else [])]
    )
    result = json.loads(lines[-1])
    path = next(line.split(" -> ", 1)[1] for line in lines if line.startswith("record -> "))
    record = json.loads(Path(path).read_text())
    return {"record": record, "failed": result["failed"], "attempted": result["attempted"],
            "minflt": minflt, "wall_s": wall}


def stage_run(workload: str, smoke: bool) -> dict:
    """``StageTimings`` of one worker over the workload's first night (run in a child)."""
    sys.path[:0] = [str(REPO / "src"), str(REPO / "perfbench")]
    import host

    host.cap_blas_threads()  # before numpy loads, as the benchmark does
    import numpy as np
    import workloads as wl
    from tdcat import skygen

    size = wl.size_for(workload, SECONDS, smoke)
    with tempfile.TemporaryDirectory(prefix="tdcat-bench-") as tmp:
        camera = wl.build_camera(size, SEED, Path(tmp) / "store")
        injections = wl.injections_for(camera, size, 0)
        timings = []
        for i in range(size.frames):
            frame = skygen.observe_frame(camera.sky, i * wl.CONFIG.cadence_s, injections,
                                         camera.model, wl.CONFIG, camera_id=0)
            timings.append(camera.worker.process_frame(frame).timings)
        del camera  # its insert thread ends before the store goes
    kept = timings[WARMUP:]
    return {"frames": len(kept), "warmup_frames": WARMUP, **{
        stage: {"median_ms": float(np.median(values)) * 1e3,
                "p95_ms": float(np.percentile(values, 95)) * 1e3}
        for stage in STAGES for values in [[getattr(t, stage) for t in kept]]
    }}


def bench_file(workload: str, smoke: bool) -> dict:
    probe_before = probe_ms()
    passes = 1 if smoke else PASSES
    runs = []
    for k in range(passes):
        runs.append(run_pass(workload, smoke))
        print(f"{workload}: pass {k + 1}/{passes} frame_p50_ms "
              f"{runs[-1]['record']['end_to_end']['frame_p50_ms']:.3f}", flush=True)
    lines, _, _ = child([sys.executable, str(Path(__file__).resolve()), "--stage-run", workload,
                         *(["--smoke"] if smoke else [])])
    stages = json.loads(lines[-1])
    records = [r["record"] for r in runs]
    metrics = [name for name in records[0]["end_to_end"] if name != "failed_ops_ratio"]
    digests = sorted({r["digest"] for r in records})
    return {
        "workload": workload,
        "seed": SEED,
        "smoke": smoke,
        "passes": passes,
        "size": records[0]["size"],
        "src_sha256": src_sha256(),
        "end_to_end": {name: spread([r["end_to_end"][name] for r in records])
                       for name in metrics},
        "ru_minflt": spread([r["minflt"] for r in runs]),
        "failed_operations": sum(r["failed"] for r in runs),
        "attempted_operations": sum(r["attempted"] for r in runs),
        "pass_wall_s": [r["wall_s"] for r in runs],
        "stages": stages,
        "digest": digests[0] if len(digests) == 1 else digests,
        "host": records[0]["host"],
        "probe": {"numpy_sort_rows": PROBE_ROWS, "before_ms": probe_before,
                  "after_ms": probe_ms()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=Path, default=REPO, help="directory for the files")
    ap.add_argument("--smoke", action="store_true", help="one pass each at the smoke size")
    ap.add_argument("--stage-run", help=argparse.SUPPRESS)  # a child's workload
    args = ap.parse_args(argv)
    if args.stage_run:
        print(json.dumps(stage_run(args.stage_run, args.smoke)))
        return 0
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    args.out.mkdir(parents=True, exist_ok=True)
    for workload in [w["name"] for w in spec["workloads"]]:
        payload = bench_file(workload, args.smoke)
        path = args.out / f"BENCH_{workload}.json"
        path.write_text(json.dumps(payload, indent=1) + "\n")
        print(f"{workload}: {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
