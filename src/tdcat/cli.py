"""Command-line entry point wiring all engine modules together.

Configuration precedence is flags > ``--config`` key=value file > built-in
defaults.  The data directory comes from ``--data-dir``, else the
``TDCAT_DATA_DIR`` environment variable, else ``./tdcat-data``.  Exit codes:
0 success, 1 runtime failure, 2 usage or configuration error.

Every subcommand reads and writes only its declared files under the data
directory; there is no daemon and no hidden state.
"""

from __future__ import annotations

import argparse
import os
import sys
from itertools import chain, islice
from pathlib import Path

import numpy as np

from . import __version__
from .core import (
    RECORD_DTYPE,
    ConfigError,
    DomainError,
    EngineConfig,
    EngineError,
    FrameBatch,
    SequenceError,
    check_records,
    csv_columns,
    write_csv,
)
from .crossmatch import build_zone_index, range_join
from .lightcurve import query_curve
from .mining import MiningConfig, period_search, write_alerts_csv
from .pipeline import (
    replay_online,
    run_night,
    scaling_benchmark,
    write_night_summary,
    write_scaling_csv,
)
from .skygen import (
    DEFAULT_FOOTPRINT,
    DENSITY_PRESETS,
    SkyModel,
    build_template,
    observe_frame,
    random_injections,
    read_truth_log,
    write_truth_log,
)
from .store import (
    SECONDS_PER_DAY,
    STORE_RECORD_SIZE,
    TDS_MAGIC,
    NightStore,
    capacity_plan,
    capacity_table,
    frame_to_store_records,
    night_of,
    open_partitions,
    query_stores,
    read_records_bin,
    read_records_csv,
    write_records_bin,
    write_records_csv,
)

DATA_DIR_ENV = "TDCAT_DATA_DIR"

# config key -> parser, from the config dataclasses' field types
_ENGINE_KEYS = dict(zip(*csv_columns(EngineConfig)))
_MINING_KEYS = dict(zip(*csv_columns(MiningConfig)))


def load_config_file(path) -> dict:
    """Parse a key=value file; blank lines and # comments are skipped."""
    values = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _ENGINE_KEYS and key not in _MINING_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = value
    return values


def _coerce(key: str, value, parse):
    try:
        return parse(value)
    except ValueError as exc:
        raise ConfigError(f"config key {key}={value!r} is not numeric") from exc


def build_configs(args) -> tuple:
    """EngineConfig + MiningConfig from defaults, config file, then flags.

    A flag overrides the config key named by its dest, if it was given.
    """
    values = load_config_file(args.config) if getattr(args, "config", None) else {}
    configs = []
    for cls, keys in ((EngineConfig, _ENGINE_KEYS), (MiningConfig, _MINING_KEYS)):
        kwargs = {k: _coerce(k, v, keys[k]) for k, v in values.items() if k in keys}
        kwargs.update((k, v) for k in keys if (v := getattr(args, k, None)) is not None)
        configs.append(cls(**kwargs))
    return tuple(configs)


def data_dir_of(args) -> Path:
    if getattr(args, "data_dir", None):
        return Path(args.data_dir)
    env = os.environ.get(DATA_DIR_ENV)
    return Path(env) if env else Path("./tdcat-data")


def _star_count(args) -> int:
    if getattr(args, "stars", None) is not None:
        return args.stars
    return DENSITY_PRESETS[getattr(args, "density", None) or "1/100"]


def _read_interchange(path, config: EngineConfig) -> np.ndarray:
    """Rows of a TDS1 file (by its magic) or else a CSV file, checked."""
    with open(path, "rb") as fh:
        binary = fh.read(4) == TDS_MAGIC
    records = read_records_bin(path) if binary else read_records_csv(path)
    try:
        check_records(records, config)
    except DomainError as exc:
        raise DomainError(f"{path}: {exc}") from None
    return records


def id_list(text: str) -> list:
    """The distinct integers >= 0 of a comma-separated list (an argparse ``type``)."""
    ids = [int(part) if part.strip().isdecimal() else -1 for part in text.split(",")]
    if min(ids) < 0 or len(set(ids)) < len(ids):
        raise argparse.ArgumentTypeError(f"{text!r} is not a list of distinct integers >= 0")
    return ids


def _curve_of(args):
    """The light curve of ``--star`` under the ``--partitions``/``--epoch-*`` flags."""
    return query_curve(
        open_partitions(data_dir_of(args), args.partitions), args.star,
        epoch_min=args.epoch_min, epoch_max=args.epoch_max,
    )


# ---------------------------------------------------------------------------
# subcommand handlers


def cmd_generate(args) -> int:
    config, _ = build_configs(args)
    out = Path(args.out)
    footprint = DEFAULT_FOOTPRINT
    model = SkyModel(seed=args.seed, star_count=_star_count(args), footprint=footprint)
    template = build_template(model, config)
    injections = random_injections(
        template, model, config,
        seed=args.seed, n_new_sources=args.new_sources,
        n_brightenings=args.brightenings, night_id=args.night,
        frames_per_night=args.frames, camera_id=args.camera,
    )
    write = write_records_csv if args.format == "csv" else write_records_bin
    ext = "csv" if args.format == "csv" else "tds"
    frames = (observe_frame(template, args.night * SECONDS_PER_DAY + i * config.cadence_s,
                            injections, model, config, camera_id=args.camera)
              for i in range(args.frames))
    first = list(islice(frames, 1))  # observed before any write: a refused frame writes nothing
    out.mkdir(parents=True, exist_ok=True)
    write(out / f"template.{ext}", template.to_records(config))
    for frame in chain(first, frames):
        write(out / f"frame_{frame.imageid:08d}.{ext}", frame.records)
    write_truth_log(out / "truth.csv", injections)
    print(
        f"generated template ({model.star_count} stars) + {args.frames} frames "
        f"+ truth log in {out}"
    )
    return 0


def cmd_ingest(args) -> int:
    config, _ = build_configs(args)
    root = data_dir_of(args)
    store = NightStore(root, args.partition)
    # no template known at ingest: an empty index stores every row as a candidate
    template = (
        _read_interchange(args.template, config) if args.template
        else np.zeros(0, RECORD_DTYPE)
    )
    index = build_zone_index(template, config.zone_height_deg, config.match_radius_deg)
    for path in args.input:
        records = _read_interchange(path, config)
        if not len(records):
            raise EngineError(f"{path}: empty frame file")
        imageids = np.unique(records["imageid"])
        if len(imageids) != 1:
            raise EngineError(f"{path}: mixed imageids {imageids[:5]}")
        imageid = int(imageids[0])
        epoch = imageid * config.cadence_s
        if args.night is not None and night_of(epoch) != args.night:
            raise EngineError(
                f"{path}: frame epoch {epoch} lies in night {night_of(epoch)}, "
                f"not --night {args.night}"
            )
        frame = FrameBatch(imageid=imageid, epoch=epoch, records=records)
        rows = frame_to_store_records(
            frame, range_join(records, index, config.match_radius_deg)
        )
        try:
            store.delta_insert(frame, rows)
        except DomainError as exc:  # e.g. rows of a camera other than the partition's
            raise DomainError(f"{path}: {exc}") from None
        except SequenceError:
            # a re-run after an interrupted ingest: only an identical frame passes
            if not store.holds(frame, rows):
                raise
            print(f"skipped {path}: already stored in partition {args.partition}")
            continue
        print(
            f"ingested {path}: {len(rows)} records -> partition "
            f"{args.partition} night {night_of(epoch)}"
        )
    return 0


def cmd_merge(args) -> int:
    root = data_dir_of(args)
    store = NightStore(root, args.partition)
    if args.night is not None:
        beyond = [n for n in store._snapshot()[2] if n > args.night]
        if beyond:
            raise EngineError(
                f"delta log extends past night {args.night}: nights {beyond}"
            )
    report = store.nightly_merge()
    if report.noop:
        print(f"partition {args.partition}: delta log empty, base unchanged")
    else:
        print(
            f"partition {args.partition}: merged nights {report.nights} "
            f"({report.records_merged} records) -> {report.base_path} "
            f"in {report.duration_s:.2f} s"
        )
    return 0


def cmd_crossmatch(args) -> int:
    config, _ = build_configs(args)
    template = _read_interchange(args.template, config)
    index = build_zone_index(template, config.zone_height_deg, config.match_radius_deg)
    kept = []  # (matched count, candidate ids) of each frame

    def pairs():  # one frame's matches at a time
        for path in args.frame:
            r = range_join(_read_interchange(path, config), index, config.match_radius_deg)
            kept.append((r.n_matched, r.unmatched_ids))
            yield from r.pairs()

    write_csv(args.out_matches, ["record_id", "star_id", "separation_deg"], pairs())
    write_csv(args.out_candidates, ["record_id"],
              ([i] for _, ids in kept for i in ids.tolist()))
    print(
        f"{sum(n for n, _ in kept)} matched, "
        f"{sum(len(ids) for _, ids in kept)} candidates -> "
        f"{args.out_matches}, {args.out_candidates}"
    )
    return 0


def cmd_run_night(args) -> int:
    config, mining = build_configs(args)
    root = data_dir_of(args)
    injections = read_truth_log(args.inject) if args.inject else None
    summaries = run_night(
        root,
        config,
        mining,
        seed=args.seed,
        night_id=args.night,
        n_partitions=args.partitions,
        n_frames=args.frames,
        stars_per_partition=_star_count(args),
        n_new_sources=args.new_sources,
        n_brightenings=args.brightenings,
        workers=args.workers,
        use_store=not args.no_store,
        do_merge=args.merge,
        injections=injections,
        write_timing=args.report,
    )
    for s in summaries:
        alerts = ", ".join(f"{k}={v}" for k, v in sorted(s.alerts.items())) or "none"
        print(
            f"partition {s.partition_id}: {s.n_frames} frames, "
            f"{s.n_records} records, {s.n_matched} matched, "
            f"{s.n_unmatched} candidates, alerts: {alerts}, "
            f"worst frame {s.max_frame_s * 1000:.1f} ms "
            f"({'within' if s.cadence_ok else 'OVER'} cadence)"
        )
    if args.report:
        write_night_summary(root / "night_summary.json", summaries)
        print(f"timing report -> {root / 'night_summary.json'}")
    return 0 if all(s.cadence_ok for s in summaries) else 1


def cmd_query(args) -> int:
    curve = _curve_of(args)
    write_csv(args.out, curve.points.dtype.names, curve.points.tolist())
    print(
        f"star {args.star}: {curve.n_points} points"
        + (f" -> {args.out}" if args.out else ""),
        file=sys.stderr,
    )
    return 0


def cmd_mine_online(args) -> int:
    config, mining = build_configs(args)
    root = data_dir_of(args)
    stores = open_partitions(root, args.partitions)
    alerts = []
    for store in stores:  # star ids are per camera: replay each on its own
        rows = query_stores([store], epoch_min=args.epoch_min, epoch_max=args.epoch_max)
        alerts.extend(replay_online(rows, config, mining))
    out = args.out or str(root / "alerts_mined.csv")
    write_alerts_csv(out, alerts)
    parts = [s.partition_id for s in stores]
    print(f"{len(alerts)} alerts from partitions {parts} -> {out}")
    return 0


def cmd_mine_period(args) -> int:
    _, mining = build_configs(args)
    curve = _curve_of(args)
    result = period_search(curve.epochs, curve.mags, mining)
    if args.out:
        freqs, power = result.scan
        write_csv(args.out, ["frequency_hz", "power"], zip(freqs, power))
        print(f"periodogram ({len(freqs)} frequencies) -> {args.out}")
    print(
        f"star {args.star}: best period {result.period_s:.6f} s "
        f"(power {result.power:.2f}, threshold {result.fap_threshold:.2f}, "
        f"{'significant' if result.significant else 'not significant'} "
        f"at FAP {mining.fap})"
    )
    return 0


def cmd_bench_cadence(args) -> int:
    import tempfile

    config, mining = build_configs(args)
    with tempfile.TemporaryDirectory() as tmp:
        summaries = run_night(
            tmp,
            config,
            mining,
            seed=args.seed,
            n_partitions=1,
            n_frames=args.frames,
            stars_per_partition=_star_count(args),
            n_new_sources=2,
            n_brightenings=2,
            use_store=True,
            write_timing=True,
        )
        s = summaries[0]
        if args.out:
            import shutil

            shutil.copyfile(s.cadence_path, args.out)
            print(f"per-frame timings -> {args.out}")
    print(
        f"{s.n_frames} frames x {s.n_records // max(s.n_frames, 1)} records: "
        f"mean {s.mean_frame_s * 1000:.1f} ms, worst {s.max_frame_s * 1000:.1f} ms, "
        f"budget {config.cadence_s:.0f} s -> "
        f"{'within cadence' if s.cadence_ok else 'OVER CADENCE'}"
    )
    return 0 if s.cadence_ok else 1


def cmd_bench_scaling(args) -> int:
    config, mining = build_configs(args)
    points = scaling_benchmark(
        args.workers,
        n_partitions=args.partitions,
        n_frames=args.frames,
        stars_per_partition=_star_count(args),
        config=config,
        mining=mining,
        seed=args.seed,
    )
    print("workers  wall_s  speedup  efficiency")
    for p in points:
        print(
            f"{p.workers:7d}  {p.wall_s:6.2f}  {p.speedup:7.2f}  {p.efficiency:10.2f}"
        )
    if args.out:
        write_scaling_csv(args.out, points)
        print(f"scaling table -> {args.out}")
    return 0


def cmd_plan(args) -> int:
    config, _ = build_configs(args)
    bpr = args.bytes_per_record or STORE_RECORD_SIZE
    print("cameras,days,records,bytes,gib")

    def emit(row):
        print(
            f"{row.cameras},{row.days},{row.records:.4g},{row.bytes},"
            f"{row.bytes / 2**30:.2f}"
        )

    if args.table:
        for row in capacity_table(config, bpr):
            emit(row)
    else:
        emit(capacity_plan(config, args.days, bpr))
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="key=value configuration file")
    common.add_argument(
        "--data-dir",
        help=f"data directory root (default: ${DATA_DIR_ENV} or ./tdcat-data)",
    )
    sky = argparse.ArgumentParser(add_help=False)  # the simulated sky
    g = sky.add_mutually_exclusive_group()
    g.add_argument(
        "--density", choices=sorted(DENSITY_PRESETS), default=None,
        help="preset star density per partition (default 1/100)",
    )
    g.add_argument("--stars", type=int, help="explicit star count per partition")
    sky.add_argument("--seed", type=int, default=0)
    reads = argparse.ArgumentParser(add_help=False)  # which stored rows a read takes
    reads.add_argument("--partitions", type=id_list,
                       help="comma-separated partition ids (default: all)")
    reads.add_argument("--epoch-min", type=float, default=None)
    reads.add_argument("--epoch-max", type=float, default=None)

    parser = argparse.ArgumentParser(
        prog="tdcat",
        description="Desk-scale time-domain star catalog engine.",
    )
    parser.add_argument(
        "--version", action="version", version=f"tdcat {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "generate", parents=[common, sky],
        help="write a synthetic template, frame files and a truth log",
    )
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--frames", type=int, default=10)
    p.add_argument("--night", type=int, default=0)
    p.add_argument("--camera", type=int, default=0)
    p.add_argument("--new-sources", type=int, default=0)
    p.add_argument("--brightenings", type=int, default=0)
    p.add_argument("--format", choices=("bin", "csv"), default="bin")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser(
        "ingest", parents=[common], help="append frame files to a partition store"
    )
    p.add_argument("--partition", type=int, required=True)
    p.add_argument("--night", type=int, default=None,
                   help="expected night id (validated against frame epochs)")
    p.add_argument("--input", nargs="+", required=True, help="frame file(s), TDS1 or CSV")
    p.add_argument("--template", help="template file to cross-match against; "
                   "without it every record is stored as a candidate")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser(
        "merge", parents=[common], help="fold a partition's delta log into its base"
    )
    p.add_argument("--partition", type=int, required=True)
    p.add_argument("--night", type=int, default=None,
                   help="refuse if the delta log extends past this night")
    p.set_defaults(func=cmd_merge)

    p = sub.add_parser(
        "crossmatch", parents=[common],
        help="match frame files against a template file",
    )
    p.add_argument("--template", required=True)
    p.add_argument("--frame", nargs="+", required=True)
    p.add_argument("--radius-deg", dest="match_radius_deg", type=float, default=None)
    p.add_argument("--zone-height-deg", type=float, default=None)
    p.add_argument("--out-matches", default="matches.csv")
    p.add_argument("--out-candidates", default="candidates.csv")
    p.set_defaults(func=cmd_crossmatch)

    p = sub.add_parser(
        "run-night", parents=[common, sky],
        help="simulate a full night across shared-nothing partitions",
    )
    p.add_argument("--partitions", type=int, default=1)
    p.add_argument("--frames", type=int, default=None,
                   help="frames per partition (default: full night)")
    p.add_argument("--night", type=int, default=0)
    p.add_argument("--inject", help="truth-log file of injections to replay "
                   "(camera_id routes each event to its partition)")
    p.add_argument("--new-sources", type=int, default=0)
    p.add_argument("--brightenings", type=int, default=0)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--merge", action="store_true",
                   help="run the nightly merge after the last frame")
    p.add_argument("--no-store", action="store_true",
                   help="skip the on-disk store (timing runs)")
    p.add_argument("--report", action="store_true",
                   help="also write wall-clock telemetry (non-deterministic)")
    p.set_defaults(func=cmd_run_night)

    p = sub.add_parser(
        "query", parents=[common, reads], help="emit one star's light curve as CSV"
    )
    p.add_argument("--star", type=int, required=True)
    p.add_argument("--out", help="output file (default: stdout)")
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("mine", parents=[], help="offline mining over stored records")
    mine_sub = p.add_subparsers(dest="mine_command", required=True)

    p = mine_sub.add_parser(
        "online", parents=[common, reads],
        help="replay stored records through the online detectors",
    )
    p.add_argument("--out", help="alerts file (default: DATA_DIR/alerts_mined.csv)")
    p.set_defaults(func=cmd_mine_online)

    p = mine_sub.add_parser(
        "period", parents=[common, reads], help="periodogram search for one star"
    )
    p.add_argument("--star", type=int, required=True)
    p.add_argument("--fap", type=float, default=None)
    p.add_argument("--oversample", type=int, default=None)
    p.add_argument("--out", help="write (frequency, power) rows here")
    p.set_defaults(func=cmd_mine_period)

    p = sub.add_parser("bench", parents=[], help="performance measurements")
    bench_sub = p.add_subparsers(dest="bench_command", required=True)

    p = bench_sub.add_parser(
        "cadence", parents=[common, sky], help="time the per-frame processing chain"
    )
    p.add_argument("--frames", type=int, default=120)
    p.add_argument("--out", help="write per-frame timings CSV here")
    p.set_defaults(func=cmd_bench_cadence)

    p = bench_sub.add_parser(
        "scaling", parents=[common, sky], help="partition-parallel speedup"
    )
    p.add_argument("--workers", type=id_list, default=[1, 2, 4],
                   help="comma-separated worker counts (default 1,2,4)")
    p.add_argument("--partitions", type=int, default=4)
    p.add_argument("--frames", type=int, default=60)
    p.add_argument("--out", help="write the scaling table CSV here")
    p.set_defaults(func=cmd_bench_scaling)

    p = sub.add_parser(
        "plan", parents=[common], help="projected record and byte volumes"
    )
    p.add_argument("--cameras", type=int, default=None)
    p.add_argument("--days", type=int, default=1)
    p.add_argument("--bytes-per-record", type=int,
                   default=None, help="override the store record size")
    p.add_argument("--table", action="store_true",
                   help="print the full capacity table")
    p.set_defaults(func=cmd_plan)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse handles --help/--version/usage errors
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (EngineError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ConfigError) else 1


if __name__ == "__main__":
    sys.exit(main())
