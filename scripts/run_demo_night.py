#!/usr/bin/env python3
"""End-to-end demo: simulate a short survey night and poke at the products.

Runs a few partitions at reduced density with transient injections, merges
the delta logs into the base store, then demonstrates the two offline paths
on whatever the night produced: a query across all partitions and an alert
replay from the stored records.

    python3 scripts/run_demo_night.py --out /tmp/demo_night --frames 240
"""

import argparse
from pathlib import Path

from tdcat.core import EngineConfig
from tdcat.mining import MiningConfig, read_alerts_csv
from tdcat.pipeline import replay_online, run_night
from tdcat.skygen import read_truth_log
from tdcat.store import open_partitions, query_stores


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=Path, default=Path("demo_night"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--partitions", type=int, default=2)
    ap.add_argument("--frames", type=int, default=240)
    ap.add_argument("--stars", type=int, default=1756,
                    help="stars per partition (default: the 1/100 preset)")
    ap.add_argument("--new-sources", type=int, default=2)
    ap.add_argument("--brightenings", type=int, default=3)
    ap.add_argument("--workers", type=int, default=1)
    args = ap.parse_args(argv)

    config, mining = EngineConfig(), MiningConfig()
    summaries = run_night(
        args.out, config, mining,
        seed=args.seed, n_partitions=args.partitions, n_frames=args.frames,
        stars_per_partition=args.stars, n_new_sources=args.new_sources,
        n_brightenings=args.brightenings, workers=args.workers,
        use_store=True, do_merge=True, write_timing=True,
    )

    print(f"\nnight products under {args.out}/")
    total_alerts = 0
    for s in summaries:
        truth = read_truth_log(s.truth_path)
        alerts = read_alerts_csv(s.alerts_path)
        total_alerts += len(alerts)
        print(
            f"  partition {s.partition_id}: {s.n_records} records, "
            f"{s.n_matched} matched, {len(truth)} injected events, "
            f"{len(alerts)} alerts, store {s.store_bytes / 2**20:.1f} MiB "
            f"after merge ({s.merge_duration_s * 1000:.0f} ms)"
        )

    # offline path 1: cross-partition query for the bright end of the night
    stores = open_partitions(args.out, range(args.partitions))
    bright = query_stores(stores, mag_max=11.0)
    print(f"\ncross-partition query mag <= 11: {len(bright)} stored records")

    # offline path 2: replay the online detector from each store and compare
    replayed = sum(
        len(replay_online(s.query_records(), config, mining)) for s in stores
    )
    print(f"alert replay from store: {replayed} alerts (live run: {total_alerts})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
