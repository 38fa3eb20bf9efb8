#!/usr/bin/env python3
"""Alternated A/B of one full-scale partition's per-frame stages for two git revisions.

Each side's ``src/`` is exported under ``--scratch``, and every run is a child
process of its own that imports that side's tree.  A run builds the full-scale
template (175,600 stars, ``--seed``), a ``PartitionWorker`` with its store
under ``--scratch``, and feeds it ``--frames`` frames of one night with two
injected new sources and three brightenings.  Pair i runs the base first when
i is even and the change first when it is odd.

    python3 scripts/stage_ab.py --base HEAD~1 --change HEAD \\
        --scratch /tmp/tdcat-stage-ab --pairs 4 --frames 40 --warmup 4

For every run it prints the median of each ``StageTimings`` field
(``match_s``, ``insert_s``, ``online_s``, ``candidate_s``, ``total_s``) over
the frames after the first ``--warmup``, the run's set-up wall time
(``setup_s``: the template with its index, and the ``PartitionWorker``), and a
sha256 of the run's alerts and of its segment files' bytes, so that identical
products show.  At the end it prints, per stage and for the set-up, the
median over the runs of each side and the number of pairs in which the
change was faster.  It writes only under ``--scratch``, and removes each
run's store when the run ends.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from ab_bench import SIDES, export

# MiningConfig.min_window (10) + 4: the injected events need at least two
# frames between the online baseline's warm-up and the end of the night.
MIN_FRAMES = 14

STAGES = ("match_s", "insert_s", "online_s", "candidate_s", "total_s")
REPORTED = (*STAGES, "setup_s")


def run_side(src: Path, store: Path, frames: int, warmup: int, seed: int) -> dict:
    """One run of the revision whose ``src/`` is ``src``, in this process."""
    sys.path.insert(0, str(src))
    from tdcat import pipeline, skygen
    from tdcat.core import EngineConfig
    from tdcat.mining import MiningConfig

    config, mining = EngineConfig(), MiningConfig()
    model = skygen.SkyModel(
        seed=pipeline.partition_seed(seed, 0),
        star_count=skygen.DENSITY_PRESETS["full"],
        footprint=skygen.DEFAULT_FOOTPRINT,
    )
    start = time.perf_counter()
    sky = skygen.build_template(model, config)
    setup_s = time.perf_counter() - start
    injections = skygen.random_injections(
        sky, model, config, seed=model.seed, n_new_sources=2, n_brightenings=3,
        frames_per_night=frames, max_duration_frames=min(20, frames - mining.min_window - 2),
        min_on_frame=mining.min_window + 1,
    )
    start = time.perf_counter()
    worker = pipeline.PartitionWorker(0, sky, config, mining, data_dir=store)
    setup_s += time.perf_counter() - start
    timings, alerts = [], []
    for i in range(frames):
        frame = skygen.observe_frame(sky, i * config.cadence_s, injections, model, config)
        out = worker.process_frame(frame)
        timings.append(out.timings)
        alerts.extend(out.alerts)
    digest = hashlib.sha256(repr([dataclasses.astuple(a) for a in alerts]).encode())
    for path in sorted(p for p in store.rglob("*") if p.is_file()):
        digest.update(str(path.relative_to(store)).encode() + path.read_bytes())
    kept = timings[warmup:]
    return {
        **{s: statistics.median(getattr(t, s) for t in kept) for s in STAGES},
        "setup_s": setup_s,
        "alerts": len(alerts),
        "digest": digest.hexdigest(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, help="git revision of the base side")
    ap.add_argument("--change", required=True, help="git revision of the change side")
    ap.add_argument("--scratch", required=True, type=Path,
                    help="directory for both trees and the runs' stores")
    ap.add_argument("--pairs", type=int, default=4)
    ap.add_argument("--frames", type=int, default=40)
    ap.add_argument("--warmup", type=int, default=4, help="first frames left out of the medians")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--run-side", type=Path, help=argparse.SUPPRESS)  # a child's src/
    args = ap.parse_args(argv)
    if args.frames < MIN_FRAMES:
        ap.error(f"--frames must be at least {MIN_FRAMES}")
    if not 0 <= args.warmup < args.frames:
        ap.error("--warmup must be at least 0 and below --frames")
    scratch = args.scratch.resolve()
    store = scratch / "store"
    if args.run_side:
        print(json.dumps(run_side(args.run_side, store, args.frames, args.warmup, args.seed)))
        return 0

    shutil.rmtree(scratch / "trees", ignore_errors=True)
    for side in SIDES:
        export(getattr(args, side), ["src"], scratch / "trees" / side)
    runs = {side: [] for side in SIDES}
    for i in range(args.pairs):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        print(f"pair {i + 1}/{args.pairs} ({order[0]} first)")
        for side in order:
            shutil.rmtree(store, ignore_errors=True)
            try:
                proc = subprocess.run(
                    [sys.executable, __file__, "--base", args.base, "--change", args.change,
                     "--scratch", str(scratch), "--frames", str(args.frames),
                     "--warmup", str(args.warmup), "--seed", str(args.seed),
                     "--run-side", str(scratch / "trees" / side / "src")],
                    capture_output=True, text=True,
                )
            finally:
                shutil.rmtree(store, ignore_errors=True)
            if proc.returncode:
                print(f"  {side} failed:\n{proc.stderr[-2000:]}")
                return 1
            r = json.loads(proc.stdout.strip().splitlines()[-1])
            runs[side].append(r)
            shown = "  ".join(f"{s}={r[s] * 1e3:.2f}ms" for s in REPORTED)
            print(f"  {side:6} {shown}  alerts={r['alerts']} digest={r['digest'][:16]}")
            sys.stdout.flush()
    print(f"median over {args.pairs} runs per side, frames {args.warmup + 1}-{args.frames} "
          "of each run (setup_s: once per run), and the pairs in which the change was faster")
    for s in REPORTED:
        base = [r[s] for r in runs["base"]]
        change = [r[s] for r in runs["change"]]
        wins = sum(c < b for b, c in zip(base, change))
        b, c = statistics.median(base), statistics.median(change)
        print(f"  {s:12} base {b * 1e3:8.2f} ms  change {c * 1e3:8.2f} ms  "
              f"({(c / b - 1) * 100:+.1f}%)  faster in {wins} of {args.pairs}")
    digests = {side: sorted({r["digest"] for r in runs[side]}) for side in SIDES}
    same = digests["base"] == digests["change"] and len(digests["base"]) == 1
    print(f"  products {'identical' if same else 'DIFFER'}: {digests}")
    return 0 if same else 1


if __name__ == "__main__":
    raise SystemExit(main())
