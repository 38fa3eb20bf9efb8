#!/usr/bin/env python3
"""Alternated A/B runs of the benchmark for two git revisions of ``src/``.

Both revisions run ``perfbench/run.py --trace 0`` in turn inside one fixed
checkout under ``--scratch``.  Before each run the checkout's ``src/`` is
replaced by that revision's tree, so both sides run from the same directory
(some metrics move with the checkout's directory alone).  ``perfbench/`` and
``BENCHMARK.json`` come from ``--change``.  Pair i runs the base first when i
is even and the change first when it is odd.

    python3 scripts/ab_bench.py --base HEAD~1 --change HEAD \\
        --scratch /tmp/tdcat-ab --workload cadence-full --pairs 10 --seed 1

For every pair it prints both sides' end-to-end metrics (the gated ones and
the ungated ones of the run's record, such as history's ``query_p50_ms``),
their digests, the minor page faults of each run (``ru_minflt`` of the child
process), its block input and output operations (``ru_inblock`` and
``ru_oublock``: reads and writes that reached the device, not the page
cache) and its wall time and CPU seconds (user + sys of the child), so that
a change which buys wall time with CPU, or with cold reads, shows it.  A
pair whose two runs' page faults differ by more than ``FAULT_RATIO`` is
marked: its sides ran in different page-fault modes, which move ``setup_s``
by about a quarter on the same tree (the gap follows the allocator, since
``MALLOC_ARENA_MAX=1`` closes it).  At the end it prints, per metric, both
sides' medians and quartiles, the number of pairs in which the change was
better and a verdict (see ``verdict``: "unresolved" when the base runs
spread wider than the bound; "ungated" for a metric with no bound), the
number of marked pairs, then each side's failed and attempted operations,
page faults, block input and output operations, wall time and CPU seconds.  It uses only git and the standard library, and it writes only
under ``--scratch``.
"""

from __future__ import annotations

import argparse
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tarfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SIDES = ("base", "change")
FAULT_RATIO = 1.5


def export(rev: str, paths, dest: Path) -> None:
    """Write ``paths`` of git revision ``rev`` under ``dest``."""
    tar = subprocess.run(
        ["git", "-C", str(REPO), "archive", "--format=tar", rev, *paths],
        capture_output=True, check=True,
    ).stdout
    dest.mkdir(parents=True, exist_ok=True)
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")


def quartiles(values) -> tuple:
    """(first quartile, median, third quartile); one value stands for all three."""
    if len(values) < 2:
        return (values[0],) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarize(pairs, better: str) -> tuple:
    """(base quartiles, change quartiles, pairs the change won) of (base, change) pairs."""
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (b - c) > 0 for b, c in pairs)
    return quartiles([b for b, _ in pairs]), quartiles([c for _, c in pairs]), wins


def verdict(pairs, better: str, bound: float) -> str:
    """"gain", "worse than bound", "unresolved" or "within bound" for one
    metric's (base, change) pairs.

    A gain needs the change better in at least nine tenths of the pairs and
    the medians apart, in the change's favour, by more than the base's
    interquartile range.  Worse than bound means the change's median is worse
    than the base's by more than ``bound``, a fraction of the base median.
    Otherwise, when the base's interquartile range is wider than that bound,
    the runs spread too widely to show the change within it: "unresolved",
    unless every change run is better than every base run.
    """
    base_q, change_q, wins = summarize(pairs, better)
    sign = 1.0 if better == "lower" else -1.0
    gain = (base_q[1] - change_q[1]) * sign
    if 10 * wins >= 9 * len(pairs) and gain > base_q[2] - base_q[0]:
        return "gain"
    if -gain > bound * abs(base_q[1]):
        return "worse than bound"
    separated = max(sign * c for _, c in pairs) < min(sign * b for b, _ in pairs)
    if base_q[2] - base_q[0] > bound * abs(base_q[1]) and not separated:
        return "unresolved"
    return "within bound"


def run_once(checkout: Path, tree: Path, workload: str, seed: int, seconds: int) -> dict:
    """One benchmark run of ``tree``'s ``src/`` from ``checkout``."""
    shutil.rmtree(checkout / "src", ignore_errors=True)
    shutil.rmtree(checkout / ".perfbench-runs", ignore_errors=True)
    shutil.copytree(tree / "src", checkout / "src")
    before, t0 = resource.getrusage(resource.RUSAGE_CHILDREN), time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True,
    )
    wall, after = time.perf_counter() - t0, resource.getrusage(resource.RUSAGE_CHILDREN)
    out = {
        "exit": proc.returncode,
        "minflt": after.ru_minflt - before.ru_minflt,
        "inblock": after.ru_inblock - before.ru_inblock,
        "oublock": after.ru_oublock - before.ru_oublock,
        "wall_s": wall,
        "cpu_s": (after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime),
        "metrics": {},
        "digest": "-",
    }
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        out["error"] = (proc.stdout + proc.stderr)[-2000:]
        return out
    out["metrics"] = {
        name.split(".", 1)[-1]: m["value"] for name, m in result["metrics"].items()
    }
    records = [line.split(" -> ", 1)[1] for line in lines if line.startswith("record -> ")]
    if records:  # the end-to-end figures BENCHMARK.json does not gate
        extra = json.loads(Path(records[0]).read_text())["end_to_end"]
        out["metrics"] = {**extra, **out["metrics"]}
        out["metrics"].pop("failed_ops_ratio", None)
    out["failed"], out["attempted"] = result.get("failed"), result.get("attempted")
    digests = [line.split()[-1] for line in lines if line.strip().startswith("digest:")]
    out["digest"] = ",".join(digests) or "-"
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, help="git revision of the base side")
    ap.add_argument("--change", required=True, help="git revision of the change side")
    ap.add_argument("--scratch", required=True, type=Path,
                    help="directory for the checkout and both trees")
    ap.add_argument("--workload", action="append",
                    help="a workload of BENCHMARK.json; repeat for several (default: all)")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=25)
    args = ap.parse_args(argv)

    scratch = args.scratch.resolve()
    checkout = scratch / "checkout"
    shutil.rmtree(scratch / "trees", ignore_errors=True)
    shutil.rmtree(checkout, ignore_errors=True)
    for side in SIDES:
        export(getattr(args, side), ["src"], scratch / "trees" / side)
    export(args.change, ["perfbench", "BENCHMARK.json"], checkout)
    spec = json.loads((checkout / "BENCHMARK.json").read_text())
    bound = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["per_layer"] + spec["end_to_end"]}
    workloads = args.workload or [w["name"] for w in spec["workloads"]]

    for workload in workloads:
        runs = {side: [] for side in SIDES}
        marked = 0
        for i in range(args.pairs):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            for side in order:
                runs[side].append(
                    run_once(checkout, scratch / "trees" / side, workload,
                             args.seed, args.seconds)
                )
            print(f"{workload} pair {i + 1}/{args.pairs} ({order[0]} first)")
            for side in SIDES:
                r = runs[side][-1]
                shown = "  ".join(f"{k}={v:.6g}" for k, v in sorted(r["metrics"].items()))
                print(f"  {side:6} exit={r['exit']} minflt={r['minflt']} "
                      f"inblock={r['inblock']} oublock={r['oublock']} "
                      f"wall={r['wall_s']:.1f}s cpu={r['cpu_s']:.1f}s "
                      f"digest={r['digest']}  {shown}")
                if "error" in r:
                    print("    " + r["error"].replace("\n", "\n    "))
            few, many = sorted(runs[side][-1]["minflt"] for side in SIDES)
            if many > FAULT_RATIO * few:
                marked += 1
                print(f"  ! minflt differs {many / max(few, 1):.2f}x between the sides "
                      f"(> {FAULT_RATIO}x): the runs are in different page-fault modes")
            sys.stdout.flush()
        print(f"{workload}: median [quartiles] over {args.pairs} pairs, "
              "and the pairs in which the change was better; "
              f"{marked} pairs marked for minflt (> {FAULT_RATIO}x)")
        for name in sorted(better, key=lambda n: (n not in bound, n)):
            pairs = [
                (b["metrics"][name], c["metrics"][name])
                for b, c in zip(runs["base"], runs["change"])
                if name in b["metrics"] and name in c["metrics"]
            ]
            if not pairs:
                continue
            base_q, change_q, wins = summarize(pairs, better[name])
            rel = (change_q[1] / base_q[1] - 1.0) * 100.0 if base_q[1] else float("nan")
            print(f"  {name:14} base {base_q[1]:.6g} [{base_q[0]:.6g}, {base_q[2]:.6g}]  "
                  f"change {change_q[1]:.6g} [{change_q[0]:.6g}, {change_q[2]:.6g}]  "
                  f"({rel:+.1f}%)  better in {wins} of {len(pairs)}  " + (
                      f"{verdict(pairs, better[name], bound[name])} "
                      f"(bound {bound[name]:.0%})" if name in bound else "ungated"))
        for side in SIDES:
            faults = [r["minflt"] for r in runs[side]]
            wall = statistics.median(r["wall_s"] for r in runs[side])
            cpu = statistics.median(r["cpu_s"] for r in runs[side])
            inblock = statistics.median(r["inblock"] for r in runs[side])
            oublock = statistics.median(r["oublock"] for r in runs[side])
            digests = sorted({r["digest"] for r in runs[side]})
            failed = sum(r.get("failed") or 0 for r in runs[side])
            attempted = sum(r.get("attempted") or 0 for r in runs[side])
            print(f"  {side:6} failed {failed} of {attempted} operations  "
                  f"minflt median {statistics.median(faults):.0f} "
                  f"(min {min(faults)}, max {max(faults)})  inblock median {inblock:.0f}  "
                  f"oublock median {oublock:.0f}  wall median {wall:.1f}s  "
                  f"cpu median {cpu:.1f}s  digests {digests}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
