"""The per-camera chain workloads: sizes, timed passes and output checks.

A pass drives one camera's chain from outside the program through public
tdcat calls, as a closed loop with one frame in flight: ``skygen`` makes a
frame (untimed), then ``PartitionWorker.process_frame`` runs on it with its
defaults (store and light curves on).  ``history`` adds nights, one-star
queries, nightly merges, period search and a full-store replay.

Every operation goes through a ``Ledger``, which times it, catches its
exception and records the first failed check against it, so a failure is
counted and the run goes on.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import shutil
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from tdcat import lightcurve, mining, pipeline, skygen
from tdcat.core import EngineConfig
from tdcat.mining import BRIGHTENING, NEW_SOURCE, MiningConfig
from tdcat.store import SECONDS_PER_DAY

from tracing import FRAME_LAYERS, Tracer, summarize

CONFIG = EngineConfig()
MINING = MiningConfig()
DENSITY = skygen.DENSITY_PRESETS

# Criterion 5's bound on false alerts per star-epoch (matched-point update).
FALSE_ALERT_RATE = 1e-5

# Wall seconds per frame, generation included, on the reference host (2 cores,
# 8 GB RAM).  A run's size is fixed from --seconds with these, so every commit
# does the same work.  Runs last about --seconds there, except cadence-full,
# whose figure is set low so that a 25 s run holds 40 frames.
S_PER_FULL_FRAME = 0.625
S_PER_TENTH_FRAME = 0.235
HISTORY_FRAMES_PER_S = 5.2

# Online baselines need MiningConfig.min_window frames; injected events start
# after that and end inside the run.
MIN_FRAMES = 16

HISTORY_NIGHTS = 3

POINT_FIELDS = ("epoch", "calmag", "mag_error", "flux", "flux_err")


@dataclass(frozen=True)
class Size:
    stars: int
    frames: int  # per night
    nights: int = 1
    queries: int = 0  # one-star queries per query phase
    setup_reps: int = 5
    leave_out_every: int = 0  # drop every n-th star from the template
    new_sources: int = 0  # injected per night
    brightenings: int = 0


def size_for(workload: str, seconds: int, smoke: bool = False) -> Size:
    """Fixed work for a workload: from --seconds, or tiny for smoke runs."""
    if workload == "cadence-full":
        return Size(
            stars=DENSITY["1/100"] if smoke else DENSITY["full"],
            frames=MIN_FRAMES if smoke else _frames(seconds / S_PER_FULL_FRAME),
            setup_reps=2 if smoke else 7,
            new_sources=2,
            brightenings=3,
        )
    if workload == "unmatched-heavy":
        return Size(
            stars=DENSITY["1/100"] if smoke else DENSITY["1/10"],
            frames=MIN_FRAMES if smoke else _frames(seconds / S_PER_TENTH_FRAME),
            setup_reps=2 if smoke else 15,
            leave_out_every=9,
        )
    if workload == "history":
        return Size(
            stars=500 if smoke else DENSITY["1/100"],
            frames=MIN_FRAMES if smoke else _frames(seconds * HISTORY_FRAMES_PER_S),
            nights=HISTORY_NIGHTS,
            queries=4 if smoke else 17,
            setup_reps=3 if smoke else 51,
            new_sources=1,
            brightenings=2,
        )
    raise ValueError(f"unknown workload {workload!r}")


def _frames(n: float) -> int:
    return max(MIN_FRAMES, int(round(n)))


# ---------------------------------------------------------------------------
# operation ledger


@dataclass
class Op:
    kind: str
    seconds: float = 0.0
    error: str | None = None


class Ledger:
    """Every operation attempted in a pass, with its wall time and failure."""

    def __init__(self, tracer: Tracer | None = None):
        self.ops: list = []
        self.tracer = tracer

    def run(self, kind: str, fn, *args):
        """Time ``fn(*args)``; an exception fails the op and returns None."""
        op = Op(kind)
        self.ops.append(op)
        if self.tracer is not None:
            self.tracer.op = len(self.ops) - 1
        result = None
        t0 = time.perf_counter()
        try:
            result = fn(*args)
        except Exception:
            op.seconds = time.perf_counter() - t0
            op.error = f"{kind} raised:\n{traceback.format_exc(limit=4)}"
        else:
            op.seconds = time.perf_counter() - t0
        finally:
            if self.tracer is not None:
                self.tracer.op = -1
        return op, result

    def check(self, op: Op, ok: bool, message: str) -> bool:
        if not ok and op.error is None:
            op.error = message
        return ok

    def verdict(self, ok: bool, message: str) -> bool:
        """A run-level output check, counted as an operation of its own."""
        op = Op("check")
        self.ops.append(op)
        return self.check(op, ok, message)

    def seconds(self, kind: str) -> list:
        return [op.seconds for op in self.ops if op.kind == kind]

    @property
    def attempted(self) -> int:
        return len(self.ops)

    @property
    def failed(self) -> int:
        return sum(op.error is not None for op in self.ops)

    @property
    def errors(self) -> list:
        return [op.error for op in self.ops if op.error is not None]

    @property
    def chain_s(self) -> float:
        """Wall time of the program's operations (checks excluded)."""
        return sum(op.seconds for op in self.ops if op.kind != "check")


# ---------------------------------------------------------------------------
# one camera


@dataclass
class Camera:
    model: skygen.SkyModel
    sky: skygen.TemplateCatalog  # every star the frames contain
    template: skygen.TemplateCatalog  # the stars the worker matches against
    worker: pipeline.PartitionWorker


def build_camera(size: Size, seed: int, store_dir: Path) -> Camera:
    """Template, its zone index and the worker with its store."""
    model = skygen.SkyModel(
        seed=pipeline.partition_seed(seed, 0),
        star_count=size.stars,
        footprint=skygen.DEFAULT_FOOTPRINT,
    )
    sky = skygen.build_template(model, CONFIG)
    template = sky
    if size.leave_out_every:
        keep = np.arange(sky.star_count) % size.leave_out_every != 0
        template = skygen.TemplateCatalog.from_records(
            sky.to_records(CONFIG)[keep], CONFIG
        )
    worker = pipeline.PartitionWorker(0, template, CONFIG, MINING, data_dir=store_dir)
    return Camera(model, sky, template, worker)


def timed_setup(size: Size, seed: int, work_dir: Path):
    """Build the camera ``setup_reps`` times; keep the last one.

    The spare stores are removed only after the last repetition, so no
    deletion overlaps a timed set-up.
    """
    times = []
    camera = None
    for rep in range(size.setup_reps):
        camera = None
        gc.collect()
        t0 = time.perf_counter()
        camera = build_camera(size, seed, work_dir / f"store{rep}")
        times.append(time.perf_counter() - t0)
    for rep in range(size.setup_reps - 1):
        shutil.rmtree(work_dir / f"store{rep}")
    return camera, times


def injections_for(camera: Camera, size: Size, night: int):
    if not (size.new_sources or size.brightenings):
        return []
    return skygen.random_injections(
        camera.sky,
        camera.model,
        CONFIG,
        seed=camera.model.seed + night,
        n_new_sources=size.new_sources,
        n_brightenings=size.brightenings,
        night_id=night,
        frames_per_night=size.frames,
        max_duration_frames=min(20, size.frames - MINING.min_window - 2),
        min_on_frame=MINING.min_window + 1,
        camera_id=0,
    )


# ---------------------------------------------------------------------------
# a pass


@dataclass
class Pass:
    size: Size
    ledger: Ledger
    setup_s: list = field(default_factory=list)
    rows: int = 0
    outcomes: list = field(default_factory=list)  # (records, matched, ambiguous, unmatched, open tracks)
    alerts: list = field(default_factory=list)
    segment_bytes: int = 0
    segment_rows: int = 0
    merges: list = field(default_factory=list)  # (seconds, base bytes written)
    replay_rows: int = 0
    period_results: list = field(default_factory=list)  # (star, period, power, points)
    isolated: np.ndarray | None = None  # per left-out star: no other star near
    isolated_leftout: int = 0
    digest: str = ""
    spans: list = field(default_factory=list)

    def kinds(self) -> list:
        return [op.kind for op in self.ledger.ops]


def run_pass(workload: str, size: Size, seed: int, work_dir: Path, tracer=None) -> Pass:
    """One full pass of a workload in ``work_dir``, which it removes after."""
    work_dir.mkdir(parents=True)
    try:
        p = Pass(size, Ledger(tracer))
        camera, p.setup_s = timed_setup(size, seed, work_dir)
        if workload == "history":
            _history(p, camera, seed, tracer)
        else:
            _single_night(p, camera)
        p.digest = digest(camera.worker.store.root, p.alerts, p.period_results)
        if tracer is not None:
            p.spans = tracer.spans
        return p
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def _ingest(p: Pass, camera: Camera, night: int, injections, frames) -> None:
    worker = camera.worker
    store = worker.store
    bytes0 = store.stats.bytes_on_disk
    rows0 = p.rows
    n_leftout = camera.sky.star_count - camera.template.star_count
    for i in frames:
        epoch = night * SECONDS_PER_DAY + i * CONFIG.cadence_s
        frame = skygen.observe_frame(
            camera.sky, epoch, injections, camera.model, CONFIG, camera_id=0
        )
        op, out = p.ledger.run("frame", worker.process_frame, frame)
        if out is None:
            continue
        p.rows += out.n_records
        p.alerts.extend(out.alerts)
        p.outcomes.append(
            (out.n_records, out.n_matched, out.n_ambiguous, out.n_unmatched,
             worker.tracker.open_tracks)
        )
        if n_leftout:
            ok = (
                out.n_records == camera.sky.star_count
                and out.n_matched + out.n_unmatched == out.n_records
                and p.isolated_leftout <= out.n_unmatched <= n_leftout
            )
        else:
            new = sum(inj.kind == NEW_SOURCE and inj.active(epoch) for inj in injections)
            ok = (
                out.n_matched == camera.template.star_count
                and out.n_unmatched == new
                and out.n_records == camera.sky.star_count + new
            )
        p.ledger.check(op, ok, f"frame {frame.imageid}: match counts {out.n_records}"
                       f"/{out.n_matched}/{out.n_unmatched} (rows/matched/unmatched)")
    p.segment_bytes += store.stats.bytes_on_disk - bytes0
    p.segment_rows += p.rows - rows0


def _single_night(p: Pass, camera: Camera) -> None:
    injections = injections_for(camera, p.size, 0)
    leftout = None
    if p.size.leave_out_every:
        leftout = np.arange(camera.sky.star_count)[:: p.size.leave_out_every]
        nearest = nearest_other_deg(camera.sky.stars, leftout, 3 * CONFIG.match_radius_deg)
        p.isolated = nearest > 3 * CONFIG.match_radius_deg
        p.isolated_leftout = int(np.count_nonzero(p.isolated))
    _ingest(p, camera, 0, injections, range(p.size.frames))
    if leftout is not None:
        _check_leftout_alerts(p, camera, leftout)
    for inj in injections:
        p.ledger.verdict(
            transient_alerted(inj, p.alerts),
            f"injected {inj.kind} at epoch {inj.epoch_on} raised no alert in its window",
        )


def _history(p: Pass, camera: Camera, seed: int, tracer) -> None:
    size = p.size
    store = camera.worker.store
    ids = camera.template.stars["id"]
    pause = tracer.pause if tracer is not None else contextlib.nullcontext
    scan = None
    post = []
    for night in range(size.nights):
        injections = injections_for(camera, size, night)
        # Mid-night queries are spread evenly through the night, so frame
        # samples span the whole run rather than a few bursts of it.
        stops = np.linspace(0, size.frames, size.queries + 2)[1:-1].round().astype(int)
        mid = []
        done = 0
        for stop, sid in zip(stops, _sample(ids, size.queries, seed, night, 0)):
            _ingest(p, camera, night, injections, range(done, stop))
            done = stop
            epoch = night * SECONDS_PER_DAY + (stop - 1) * CONFIG.cadence_s
            mid += [(*q, epoch) for q in _queries(p, camera, [sid], "query.mid")]
        _ingest(p, camera, night, injections, range(done, size.frames))

        with pause():
            before = store.query_records()
        _check_queries(p, mid, before)
        op, report = p.ledger.run("merge", store.nightly_merge)
        with pause():
            scan = store.query_records()
        if report is not None:
            p.merges.append((op.seconds, report.base_path.stat().st_size))
            p.ledger.check(op, report.records_merged == len(before),
                           f"night {night}: merged {report.records_merged} of {len(before)} rows")
        p.ledger.check(
            op, len(scan) == len(before) == p.rows and scan.tobytes() == before.tobytes(),
            f"night {night}: store held {len(before)} rows before merge, "
            f"{len(scan)} after, {p.rows} ingested",
        )
        post = _queries(p, camera, _sample(ids, size.queries, seed, night, 1), "query.post")
        _check_queries(p, [(*q, np.inf) for q in post], scan)

    for sid, _, curve in post:
        if curve is None:
            continue
        op, res = p.ledger.run("period", mining.period_search, curve.epochs, curve.mags, MINING)
        if res is not None:
            p.period_results.append((sid, res.period_s, res.power, res.n_points))
            p.ledger.check(
                op,
                res.n_points == curve.n_points and np.isfinite(res.period_s)
                and res.period_s > 0 and res.power >= 0,
                f"period_search on star {sid} gave {res}",
            )

    op, replayed = p.ledger.run("replay", pipeline.replay_online, scan, CONFIG, MINING)
    p.replay_rows = len(scan)
    if replayed is not None:
        p.ledger.check(
            op, alert_keys(replayed) == alert_keys(p.alerts),
            f"replay raised {len(replayed)} alerts, the live chain {len(p.alerts)}",
        )


def _sample(ids, n: int, seed: int, night: int, phase: int) -> np.ndarray:
    rng = np.random.default_rng((seed, 7, night, phase))
    return np.sort(rng.choice(ids, size=min(n, len(ids)), replace=False))


def _queries(p: Pass, camera: Camera, star_ids, kind: str) -> list:
    out = []
    for sid in star_ids:
        op, curve = p.ledger.run(kind, lightcurve.query_curve, [camera.worker.store], int(sid))
        out.append((int(sid), op, curve))
    return out


def _check_queries(p: Pass, queries, scan) -> None:
    """Each one-star curve equals that star's rows in a full-store scan.

    ``queries`` holds (star, op, curve, last epoch stored when it ran).
    """
    for sid, op, curve, epoch_max in queries:
        if curve is None:
            continue
        rows = scan[
            (scan["star_id"] == sid) & (scan["candidate"] == 0) & (scan["epoch"] <= epoch_max)
        ]
        ok = len(rows) == curve.n_points and all(
            np.array_equal(curve.points[f], rows[f]) for f in POINT_FIELDS
        )
        p.ledger.check(op, ok, f"query_curve({sid}) differs from the full scan")


# ---------------------------------------------------------------------------
# output checks


def unit_vectors(ra_deg, dec_deg) -> np.ndarray:
    ra, dec = np.radians(ra_deg), np.radians(dec_deg)
    return np.stack([np.cos(dec) * np.cos(ra), np.cos(dec) * np.sin(ra), np.sin(dec)], axis=-1)


def separation_deg(u, v) -> np.ndarray:
    chord = np.linalg.norm(np.asarray(u) - np.asarray(v), axis=-1)
    return np.degrees(2.0 * np.arcsin(np.minimum(1.0, chord / 2.0)))


def nearest_other_deg(stars, rows, max_deg: float) -> np.ndarray:
    """Distance from each star in ``rows`` to its nearest other star.

    Brute force over a declination strip of half-height ``max_deg``; stars
    with no other star in it get +inf.
    """
    order = np.argsort(stars["dec"], kind="stable")
    dec_sorted = stars["dec"][order]
    xyz = unit_vectors(stars["ra"], stars["dec"])
    out = np.full(len(rows), np.inf)
    for k, row in enumerate(rows):
        lo, hi = np.searchsorted(dec_sorted, [stars["dec"][row] - max_deg, stars["dec"][row] + max_deg])
        cand = order[lo:hi]
        cand = cand[cand != row]
        if len(cand):
            out[k] = separation_deg(xyz[cand], xyz[row]).min()
    return out


def transient_alerted(inj, alerts) -> bool:
    """Criterion 5's rule: an alert of the right kind inside the event window."""
    if inj.kind == BRIGHTENING:
        return any(
            a.kind == BRIGHTENING and a.star_id == inj.target_star
            and inj.epoch_on <= a.epoch < inj.epoch_off
            for a in alerts
        )
    where = unit_vectors(inj.ra, inj.dec)
    return any(
        a.kind == NEW_SOURCE and inj.epoch_on <= a.epoch < inj.epoch_off
        and separation_deg(unit_vectors(a.ra, a.dec), where) <= CONFIG.match_radius_deg
        for a in alerts
    )


def _check_leftout_alerts(p: Pass, camera: Camera, leftout) -> None:
    """One new_source alert per isolated left-out star; others within bound.

    A left-out star counts as isolated when no other star lies within three
    match radii, so neither a template match nor a neighbour's track can
    take its detections.  Alerts within three radii of a crowded left-out
    star are expected either way and counted on neither side.
    """
    r = CONFIG.match_radius_deg
    stars = camera.sky.stars
    lo_xyz = unit_vectors(stars["ra"][leftout], stars["dec"][leftout])
    new = [a for a in p.alerts if a.kind == NEW_SOURCE]
    hits = np.zeros(len(leftout), dtype=np.int64)
    other = len(p.alerts) - len(new)
    for a in new:
        sep = separation_deg(lo_xyz, unit_vectors(a.ra, a.dec))
        k = int(np.argmin(sep))
        if sep[k] <= r and p.isolated[k]:
            hits[k] += 1
        elif sep[k] > 3 * r:
            other += 1
    bad = np.flatnonzero(p.isolated & (hits != 1))
    p.ledger.verdict(
        len(bad) == 0,
        f"{len(bad)} isolated left-out stars without exactly one new_source alert "
        f"(first rows {leftout[bad[:5]].tolist()}, counts {hits[bad[:5]].tolist()})",
    )
    star_epochs = sum(o[1] for o in p.outcomes)
    limit = FALSE_ALERT_RATE * star_epochs
    p.ledger.verdict(
        other <= limit,
        f"{other} alerts not explained by left-out stars, bound {limit:.1f} "
        f"({FALSE_ALERT_RATE} x {star_epochs} star-epochs)",
    )


def alert_keys(alerts) -> list:
    return [
        (a.kind, repr(a.epoch), a.star_id, a.record_id, repr(a.mag), repr(a.ra),
         repr(a.dec), a.n_frames, a.camera_id)
        for a in alerts
    ]


def digest(store_root: Path, alerts, period_results) -> str:
    """Hash of the store files, the alert stream and period results."""
    h = hashlib.sha256()
    for path in sorted(p for p in Path(store_root).rglob("*") if p.is_file()):
        h.update(str(path.relative_to(store_root)).encode() + b"\0")
        with open(path, "rb") as fh:
            while chunk := fh.read(1 << 23):
                h.update(chunk)
    h.update(repr(alert_keys(alerts)).encode())
    h.update(repr(period_results).encode())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# metrics

# End-to-end figures BENCHMARK.json does not gate: the tail percentiles spread
# across seeds beyond the largest allowed bound on the reference host, and
# the rest exist on history only.  --trace 1 reports them from its untraced
# reference run (0 where they do not apply).
UNGATED = ("frame_p75_ms", "frame_p90_ms", "merge_s", "query_p50_ms", "query_p90_ms",
           "period_curves_per_s", "replay_rows_per_s")

RUN_GROUPS = {
    "ingest": ("frame",),
    "merge": ("merge",),
    "query": ("query.mid", "query.post"),
    "period": ("period",),
    "replay": ("replay",),
}


def _pct(values, q) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def end_to_end(p: Pass) -> dict:
    """User-visible figures of an untraced pass.

    Merge, query, period and replay figures exist on ``history`` only; peak
    RSS and the failed-operation ratio are added by the caller.
    """
    frames = p.ledger.seconds("frame")
    queries = p.ledger.seconds("query.mid") + p.ledger.seconds("query.post")
    period = p.ledger.seconds("period")
    replay = p.ledger.seconds("replay")
    out = {
        "setup_s": float(np.median(p.setup_s)),
        "frame_p50_ms": _pct(frames, 50) * 1e3,
        "frame_p75_ms": _pct(frames, 75) * 1e3,
        "frame_p90_ms": _pct(frames, 90) * 1e3,
        "rows_per_s": p.rows / p.ledger.chain_s,
    }
    if p.merges:
        out.update({
            "merge_s": float(sum(p.ledger.seconds("merge"))),
            "query_p50_ms": _pct(queries, 50) * 1e3,
            "query_p90_ms": _pct(queries, 90) * 1e3,
            "period_curves_per_s": len(period) / sum(period) if period else 0.0,
            "replay_rows_per_s": p.replay_rows / sum(replay) if replay else 0.0,
        })
    return out


def sample_counts(p: Pass) -> dict:
    kinds = p.kinds()
    return {
        "frames": kinds.count("frame"),
        "queries": kinds.count("query.mid") + kinds.count("query.post"),
        "merges": kinds.count("merge"),
        "period_searches": kinds.count("period"),
        "replays": kinds.count("replay"),
        "checks": kinds.count("check"),
    }


def per_layer(traced: Pass, reference: dict, reference_chain_s: float) -> dict:
    """Layer figures of the traced pass; ``reference`` is the untraced run's
    end-to-end figures, which give the history-only metrics and the tracing
    overhead."""
    spans = summarize(traced.spans, traced.kinds())

    def ms(name, kind=None, use="dur"):
        e = spans.get(name)
        if not e:
            return 0.0
        vals = [v for v, k in zip(e[use], e["kind"]) if kind is None or k == kind]
        return float(np.median(vals)) * 1e3 if vals else 0.0

    def total_self(name, kind=None):
        e = spans.get(name)
        if not e:
            return 0.0
        return float(sum(v for v, k in zip(e["self"], e["kind"]) if kind is None or k == kind))

    outcomes = np.array(traced.outcomes, dtype=np.int64).reshape(-1, 5)
    records, matched = outcomes[:, 0].sum(), outcomes[:, 1].sum()
    merges = [s for s, _ in traced.merges] + [0.0] * HISTORY_NIGHTS
    points = [n for _, _, _, n in traced.period_results]
    frame_total = sum(spans.get("pipeline.process_frame", {}).get("dur", [])) or 1.0
    run_total = traced.ledger.chain_s or 1.0

    out = {
        "skygen.build_template_s": ms("skygen.build_template") / 1e3,
        "skygen.observe_frame_ms": ms("skygen.observe_frame"),
        "crossmatch.range_join_ms": ms("crossmatch.range_join"),
        "crossmatch.matched_ratio": float(matched / records) if records else 0.0,
        "crossmatch.ambiguous_rows": float(np.median(outcomes[:, 2])) if len(outcomes) else 0.0,
        "store.delta_insert_ms": ms("store.delta_insert"),
        "store.bytes_per_row": traced.segment_bytes / traced.segment_rows if traced.segment_rows else 0.0,
        "store.merge_bytes_written": float(sum(b for _, b in traced.merges)),
        "store.query_records_mid_ms": ms("store.query_records", "query.mid"),
        "store.query_records_post_ms": ms("store.query_records", "query.post"),
        "lightcurve.append_match_ms": ms("lightcurve.append_match"),
        "lightcurve.query_curve_self_ms": ms("lightcurve.query_curve", use="self"),
        "mining.window_update_ms": ms("mining.window_update", "frame"),
        "mining.tracker_update_ms": ms("mining.tracker_update", "frame"),
        "mining.tracker_rows_in": float(np.median(outcomes[:, 3])) if len(outcomes) else 0.0,
        "mining.tracker_open_tracks": float(outcomes[:, 4].max()) if len(outcomes) else 0.0,
        "mining.period_search_ms": ms("mining.period_search"),
        "mining.period_points": float(np.median(points)) if points else 0.0,
        "mining.alerts": float(len(traced.alerts)),
        "pipeline.process_frame_self_ms": ms("pipeline.process_frame", use="self"),
        "pipeline.replay_online_self_ms": ms("pipeline.replay_online", use="self"),
        "trace.overhead_pct": (traced.ledger.chain_s / reference_chain_s - 1.0) * 100.0,
        "trace.spans": float(len(traced.spans)),
    }
    for night in range(HISTORY_NIGHTS):
        out[f"store.nightly_merge_night{night + 1}_s"] = merges[night]
    for layer, names in FRAME_LAYERS.items():
        share = sum(total_self(n, "frame") for n in names) / frame_total
        out[f"frame_share.{layer}_pct"] = share * 100.0
    for group, kinds in RUN_GROUPS.items():
        busy = sum(op.seconds for op in traced.ledger.ops if op.kind in kinds)
        out[f"run_share.{group}_pct"] = busy / run_total * 100.0
    for name in UNGATED:
        out[name] = reference.get(name, 0.0)
    return out

