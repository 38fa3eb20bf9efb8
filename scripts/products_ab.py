#!/usr/bin/env python3
"""Byte comparison of the CLI's products for two git revisions of ``src/``.

Each side's ``src/`` is exported under ``--scratch`` and runs one fixed CLI
script in a child process of its own, in an empty directory, with every path
relative to it (``SCRIPT``): ``generate`` (two nights), ``crossmatch``,
``ingest`` with and without ``--template``, ``mine online``, ``merge`` and
``mine online`` again, ``query --star`` with and without ``--partitions``,
``mine online`` over an epoch window, ``mine period --out`` on partition 0 and
over night 1, ``generate --format csv`` and ``crossmatch`` of those CSV files,
and ``run-night --partitions 2 --merge`` with injections.

    python3 scripts/products_ab.py --base HEAD~1 --change HEAD \\
        --scratch /tmp/tdcat-products-ab

It hashes every file each side wrote, except the wall-clock telemetry
(``TELEMETRY``), names each file that differs or exists on one side only,
and exits 1 if any does, 2 if a command of the script failed.  Unlike the
benchmark's digest, the alert CSVs are compared whole, ``baseline_mag`` and
``deviation_sigma`` included.  It uses only git and the standard library, and
it writes only under ``--scratch``.
"""

from __future__ import annotations

import argparse
import contextlib
import fnmatch
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

from ab_bench import SIDES, export

TELEMETRY = ("cadence_*.csv", "night_summary.json")
GEN = ["--frames", "12", "--stars", "300", "--seed", "3", "--new-sources", "1",
       "--brightenings", "1"]
TEMPLATE = ["--template", "gen0/template.tds"]
SCRIPT = [
    ["generate", "--out", "gen0", "--night", "0", *GEN],
    ["generate", "--out", "gen1", "--night", "1", *GEN],
    ["crossmatch", *TEMPLATE, "--frame", "gen0/frame_*",
     "--out-matches", "matches.csv", "--out-candidates", "candidates.csv"],
    ["ingest", "--data-dir", "bare", "--partition", "0", "--input", "gen0/frame_*"],
    ["ingest", "--data-dir", "data", "--partition", "0", *TEMPLATE, "--input", "gen0/frame_*"],
    ["ingest", "--data-dir", "data", "--partition", "0", *TEMPLATE, "--input", "gen1/frame_*"],
    ["mine", "online", "--data-dir", "data", "--out", "online_delta.csv"],
    ["merge", "--data-dir", "data", "--partition", "0"],
    ["mine", "online", "--data-dir", "data", "--out", "online_base.csv"],
    ["query", "--data-dir", "data", "--star", "5", "--partitions", "0", "--out", "curve.csv"],
    ["query", "--data-dir", "data", "--star", "5", "--out", "curve_all.csv"],
    ["mine", "online", "--data-dir", "data", "--partitions", "0", "--epoch-min", "30",
     "--epoch-max", "86580", "--out", "online_window.csv"],
    ["mine", "period", "--data-dir", "data", "--star", "5", "--partitions", "0",
     "--out", "periodogram.csv"],
    ["mine", "period", "--data-dir", "data", "--star", "5", "--epoch-min", "86400",
     "--out", "periodogram_night1.csv"],
    ["generate", "--out", "gencsv", "--format", "csv", "--frames", "3", "--stars", "100",
     "--seed", "6", "--new-sources", "1"],
    ["crossmatch", "--template", "gencsv/template.csv", "--frame", "gencsv/frame_*",
     "--out-matches", "matches_csv.csv", "--out-candidates", "candidates_csv.csv"],
    ["run-night", "--data-dir", "night", "--partitions", "2", "--merge", "--frames", "14",
     "--stars", "200", "--seed", "4", "--new-sources", "2", "--brightenings", "2"],
]


def run_side(src: Path, workdir: Path) -> None:
    """Run ``SCRIPT`` with the ``tdcat`` under ``src``, in ``workdir``, in this process.

    A glob in an argument expands to its sorted matches.  A command that
    exits non-zero raises RuntimeError naming it.
    """
    sys.path.insert(0, str(src))
    from tdcat.cli import main

    workdir.mkdir(parents=True, exist_ok=True)
    os.chdir(workdir)
    for command in SCRIPT:
        argv = [a for arg in command
                for a in (sorted(map(str, Path().glob(arg))) if "*" in arg else [arg])]
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
        if code:
            raise RuntimeError(f"tdcat {' '.join(command)} exited {code}")


def hash_tree(root: Path) -> dict:
    """sha256 of every file under ``root`` but the telemetry, by relative name."""
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file() and not any(fnmatch.fnmatch(p.name, t) for t in TELEMETRY)
    }


def differing(base: dict, change: dict) -> list:
    """Names whose hashes differ or that one side lacks."""
    return sorted(n for n in base.keys() | change.keys() if base.get(n) != change.get(n))


def products(src: Path, workdir: Path) -> dict:
    """``hash_tree`` of ``run_side(src, workdir)``, run in a child process."""
    shutil.rmtree(workdir, ignore_errors=True)
    proc = subprocess.run(
        [sys.executable, __file__, "--run-side", str(src), str(workdir)],
        capture_output=True, text=True,
    )
    if proc.returncode:
        raise RuntimeError(f"{src}: {proc.stderr.strip().splitlines()[-1:]}")
    return hash_tree(workdir)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", help="git revision of the base side")
    ap.add_argument("--change", help="git revision of the change side")
    ap.add_argument("--scratch", type=Path, help="directory for both trees and their products")
    ap.add_argument("--run-side", nargs=2, type=Path, help=argparse.SUPPRESS)  # src, workdir
    args = ap.parse_args(argv)
    if args.run_side:
        run_side(*(p.resolve() for p in args.run_side))
        return 0
    if not (args.base and args.change and args.scratch):
        ap.error("--base, --change and --scratch are required")
    scratch = args.scratch.resolve()
    shutil.rmtree(scratch / "trees", ignore_errors=True)
    hashes = {}
    for side in SIDES:
        export(getattr(args, side), ["src"], scratch / "trees" / side)
        try:
            hashes[side] = products(scratch / "trees" / side / "src", scratch / "runs" / side)
        except RuntimeError as exc:
            print(f"{side} failed: {exc}")
            return 2
    names = differing(hashes["base"], hashes["change"])
    for name in names:
        print(f"differs: {name}")
    print(json.dumps({"files": len(hashes["base"]), "differ": len(names)}))
    print("products DIFFER" if names else "products identical")
    return 1 if names else 0


if __name__ == "__main__":
    raise SystemExit(main())
