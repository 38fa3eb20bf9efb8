#!/usr/bin/env python3
"""Per-camera chain benchmark for tdcat.

Run from the root of a tdcat checkout; the program is imported from ``src/``:

    python3 perfbench/run.py --workload cadence-full --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --smoke        # every workload, tiny

Each invocation runs one workload in a fresh process.  With ``--trace 0`` it
makes one untraced pass and reports the end-to-end metrics named in
``BENCHMARK.json``; with ``--trace 1`` it makes an untraced reference pass and
then a traced pass of the same size, and reports the per-layer metrics and
the tracing overhead.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Any failed operation or
check makes the exit code 1.  Store files, the digest history and a full
record of each run go under ``.perfbench-runs/`` at the checkout root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import subprocess
import sys
from pathlib import Path

import host

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench-runs"
WORKLOADS = ("cadence-full", "unmatched-heavy", "history")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes: every check and both passes in seconds")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    host.cap_blas_threads()
    if args.workload == "all":
        return run_all(args)
    program = ROOT / "src" / "tdcat" / "__init__.py"
    spec_path = ROOT / "BENCHMARK.json"
    if not program.is_file() or not spec_path.is_file():
        print(f"perfbench: no tdcat checkout at {ROOT} (need src/tdcat and "
              "BENCHMARK.json)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import tdcat

    if Path(tdcat.__file__).resolve() != program.resolve():
        print(f"perfbench: imported tdcat from {tdcat.__file__}, not {program}",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    return run_one(args, spec)


def run_one(args, spec) -> int:
    """One pass in this process; with --trace 1, traced after an untraced child."""
    import workloads as wl
    from tracing import Tracer

    size = wl.size_for(args.workload, args.seconds, args.smoke)
    checks = wl.Ledger()
    reference = None
    attempted = failed = 0
    if args.trace:
        # The untraced reference pass is an ordinary --trace 0 run in a fresh
        # process, so both passes start from the same cold process state.
        reference, attempted, failed = run_child(args)
        checks.verdict(reference is not None, "untraced reference run failed")
    work = OUT_DIR / f"work-{args.workload}-{os.getpid()}"
    tracer = Tracer() if args.trace else None
    try:
        if tracer is None:
            p = wl.run_pass(args.workload, size, args.seed, work)
        else:
            with tracer.installed():
                p = wl.run_pass(args.workload, size, args.seed, work, tracer)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    key = f"{args.workload}|seed={args.seed}|program={program_hash()}|{size}"
    earlier = remember_digest(key, p.digest)
    checks.verdict(earlier in (None, p.digest),
                   f"digest {p.digest} differs from an earlier run's {earlier}")
    attempted += checks.attempted + p.ledger.attempted
    failed += checks.failed + p.ledger.failed
    e2e = wl.end_to_end(p)
    e2e["peak_rss_mib"] = peak_rss_mib
    layers = {}
    if args.trace:
        # End-to-end figures come only from the untraced run.
        e2e = dict(reference["end_to_end"]) if reference is not None else {}
        if reference is not None:
            layers = wl.per_layer(p, reference["end_to_end"], reference["chain_s"])
    e2e["failed_ops_ratio"] = failed / attempted

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "size": vars(size),
        "host": host.describe(ROOT),
        "samples": wl.sample_counts(p),
        "end_to_end": e2e,
        "chain_s": p.ledger.chain_s,
        "per_layer": layers,
        "nightly_merge_s": [s for s, _ in p.merges],
        "frame_ms": [s * 1e3 for s in p.ledger.seconds("frame")],
        "digest": p.digest,
        "errors": checks.errors + p.ledger.errors,
    }
    if args.trace:
        record["span_self_s"] = span_table(p)
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, default=str) + "\n")

    print_report(record, spec)
    print(f"record -> {out}")
    if args.trace and not layers:
        print("perfbench: no per-layer figures without the reference run", file=sys.stderr)
        return 1
    values = layers if args.trace else e2e
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0 if failed == 0 else 1


def child_cmd(args, workload: str, trace: int) -> list:
    return [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(trace)] + (["--smoke"] if args.smoke else [])


def run_child(args):
    """The untraced run as a child process: (its record, attempted, failed)."""
    proc = subprocess.run(child_cmd(args, args.workload, 0), capture_output=True,
                          text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    sys.stdout.write("".join(f"[untraced] {line}\n" for line in lines[:-1]))
    sys.stderr.write(proc.stderr)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return None, 0, 0
    path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace0.json"
    return json.loads(path.read_text()), result["attempted"], result["failed"]


def program_hash() -> str:
    """Digests are compared only between runs of the same program sources."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "tdcat").rglob("*.py")):
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def remember_digest(key: str, digest: str):
    """Store the digest for this (workload, seed, size); return an earlier one."""
    path = OUT_DIR / "digests.json"
    try:
        known = json.loads(path.read_text())
    except (OSError, ValueError):
        known = {}
    earlier = known.get(key)
    if earlier is None:
        known[key] = digest
        OUT_DIR.mkdir(exist_ok=True)
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(known, indent=1) + "\n")
        os.replace(tmp, path)
    return earlier


def span_table(traced) -> dict:
    from tracing import summarize

    spans = summarize(traced.spans, traced.kinds())
    rows = {name: (sum(e["self"]), len(e["self"])) for name, e in spans.items()}
    return dict(sorted(rows.items(), key=lambda kv: -kv[1][0]))


def print_report(record, spec) -> None:
    h = record["host"]
    print(f"perfbench {record['workload']} seed={record['seed']} seconds={record['seconds']} "
          f"trace={record['trace']} smoke={record['smoke']}")
    print(f"  size: {record['size']}")
    print(f"  host: nproc={h['nproc']} ram={h['ram_total_mib']:.0f} MiB "
          f"disk_free={h['disk_free_gib']:.1f} GiB {h['python']} numpy {h['numpy']} "
          f"{h['blas']} blas_threads={h['blas_threads_runtime']} {h['cpu_model']}")
    print(f"  flush: {h['flush_policy']}")
    print(f"  samples: {record['samples']}")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units["failed_ops_ratio"] = "ratio"
    for name, value in record["end_to_end"].items():
        print(f"  {name:24s} {value:16.6g} {units.get(name, '')}")
    if record["per_layer"]:
        print("  per layer (traced pass):")
        for name, value in record["per_layer"].items():
            print(f"    {name:34s} {value:16.6g} {units.get(name, '')}")
        print("  span self time, s (calls):")
        for name, (total, calls) in record["span_self_s"].items():
            print(f"    {name:34s} {total:10.4f} ({calls})")
    print(f"  digest: {record['digest']}")
    for err in record["errors"][:20]:
        print(f"  FAILED: {err}")


def run_all(args) -> int:
    """Every workload, each in its own fresh process."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for workload in WORKLOADS:
        proc = subprocess.run(child_cmd(args, workload, args.trace), capture_output=True,
                              text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        status = status or proc.returncode
        try:
            result = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            combined["correct"] = False
            continue
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return status


if __name__ == "__main__":
    sys.exit(main())
