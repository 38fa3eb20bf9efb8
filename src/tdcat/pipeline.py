"""Shared-nothing night simulation: per-partition frame chains and alert replay.

Each partition owns a disjoint footprint slice, its own template, store and
detectors; partitions never share state, so a night can run serially or with
one process per partition with identical results.  The per-frame chain is
match -> append -> online mining -> candidate tracking, and every stage is
timed so cadence compliance (a frame fully processed inside the 15 s exposure
gap) is measured, not assumed.  ``replay_online`` re-runs the detectors over
rows a caller read back.  Reads across partitions go through
``store.query_stores`` and its projection ``lightcurve.query_curve``; the
chain keeps no in-memory copy of light curves.

Catalog products (delta segments, base runs, alert and truth CSVs) are
deterministic for a given seed; the cadence CSVs carry wall-clock timings and
are telemetry, not products.
"""

from __future__ import annotations

import json
import time
import weakref
from collections import Counter
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import asdict, astuple, dataclass
from functools import partial
from pathlib import Path

import numpy as np

from .core import DomainError, EngineConfig, take_rows, write_csv
from .crossmatch import range_join
from .mining import (
    CandidateTracker,
    MiningConfig,
    WindowBank,
    write_alerts_csv,
)
from .skygen import (
    DEFAULT_FOOTPRINT,
    SkyModel,
    build_template,
    observe_frame,
    random_injections,
    split_footprint,
    write_truth_log,
)
from .store import SECONDS_PER_DAY, NightStore, frame_to_store_records


def partition_seed(seed: int, partition_id: int) -> int:
    """Decorrelated per-partition seed, stable across runs and platforms."""
    return int(np.random.SeedSequence([seed, partition_id]).generate_state(1, np.uint64)[0])


# ---------------------------------------------------------------------------
# per-frame processing


@dataclass
class StageTimings:
    """Seconds a frame spent in ``PartitionWorker.process_frame``, by stage.

    ``match_s`` is the wall time of a multi-threaded stage: the join runs in
    row blocks on every core.  The segment write (``insert_s``, from the row
    build until durable) overlaps both detectors (``online_s``, the window
    bank's judge and absorb, and ``candidate_s``, the tracker), so the stages
    can add up to more than the frame took.  ``total_s`` is the frame's measured
    wall time, the join's start to the return.
    """

    match_s: float = 0.0
    insert_s: float = 0.0
    online_s: float = 0.0
    candidate_s: float = 0.0
    total_s: float = 0.0


@dataclass
class FrameOutcome:
    imageid: int
    epoch: float
    n_records: int
    n_matched: int
    n_unmatched: int
    n_ambiguous: int
    alerts: list
    timings: StageTimings


class PartitionWorker:
    """Everything one partition needs to process its frame stream."""

    def __init__(
        self,
        partition_id: int,
        template,
        config: EngineConfig,
        mining: MiningConfig | None = None,
        data_dir=None,
    ):
        mining = mining or MiningConfig()
        self.partition_id = partition_id
        self.template = template
        self.config = config
        self.mining = mining
        self.store = NightStore(data_dir, partition_id) if data_dir is not None else None
        if self.store is not None:  # the writer's partition exists before its first frame
            self.store.root.mkdir(parents=True, exist_ok=True)
        self.bank = WindowBank(template.stars["id"], mining)
        self.tracker = CandidateTracker(config, mining)
        self._writer = None  # the segment-write thread, started by the first frame

    def process_frame(self, frame) -> FrameOutcome:
        """Match one frame, store it, and run the online detectors on it.

        The calling thread builds the store rows; one helper thread then makes
        the segment's file-system calls while the calling thread runs both
        detectors: the window bank judges the frame against the pre-frame
        baselines and absorbs it, then the tracker takes the unmatched rows.
        If the insert fails, the bank and the tracker are restored bit for bit
        to their pre-frame state and the insert's error is raised here.
        """
        t0 = time.perf_counter()
        matches = range_join(
            frame.records, self.template.index, self.config.match_radius_deg
        )
        t1 = t2 = durable = time.perf_counter()
        insert = None
        if self.store is not None:
            rows = frame_to_store_records(frame, matches)
            if self._writer is None:  # joined when the worker is collected
                self._writer = ThreadPoolExecutor(1, "tdcat-insert")
                weakref.finalize(self, self._writer.shutdown)
            t2 = time.perf_counter()
            insert = self._writer.submit(_durable_at, self.store.delta_insert, frame, rows)
            del rows  # freed once written
        rec, matched = frame.records, matches.matched_rows
        undo, tracked = None, False
        try:
            alerts, slots, mags = self.bank.judge(
                frame.epoch, matches.star_ids, rec["calmag"], rec["mag_error"],
                record_ids=rec["id"], camera_id=frame.camera_id, rows=matched,
            )
            undo = self.bank.absorb(slots, mags)
            t3 = time.perf_counter()
            unmatched = take_rows(rec, matches.unmatched_rows)
            alerts.extend(self.tracker.update(frame.epoch, unmatched, frame.camera_id))
            tracked = True
            t4 = time.perf_counter()
        finally:  # the insert has ended, one way or the other, before any return
            if insert is not None:
                try:
                    durable = insert.result()
                except BaseException:
                    if tracked:
                        self.tracker.restore()
                    if undo is not None:
                        self.bank.restore(undo)
                    raise
        return FrameOutcome(
            imageid=frame.imageid,
            epoch=frame.epoch,
            n_records=len(frame.records),
            n_matched=matches.n_matched,
            n_unmatched=matches.n_unmatched,
            n_ambiguous=matches.ambiguous_count,
            alerts=alerts,
            timings=StageTimings(
                match_s=t1 - t0,
                insert_s=durable - t1,
                online_s=t3 - t2,
                candidate_s=t4 - t3,
                total_s=time.perf_counter() - t0,
            ),
        )


def _durable_at(insert, frame, rows) -> float:
    """Run ``insert(frame, rows)``; the time it returned, on the frame clock."""
    insert(frame, rows)
    return time.perf_counter()


CADENCE_CSV_HEADER = [
    "imageid", "epoch", "n_records", "n_matched", "n_unmatched", "n_ambiguous",
    "n_alerts", "match_s", "insert_s", "online_s", "candidate_s", "total_s",
]


def write_cadence_csv(path, outcomes) -> None:
    """One row of counts and stage timings per ``FrameOutcome`` of a night."""
    write_csv(path, CADENCE_CSV_HEADER, (
        [f.imageid, f.epoch, f.n_records, f.n_matched, f.n_unmatched, f.n_ambiguous,
         len(f.alerts), t.match_s, t.insert_s, t.online_s, t.candidate_s, t.total_s]
        for f in outcomes for t in [f.timings]
    ))


# ---------------------------------------------------------------------------
# night orchestration


@dataclass
class NightSummary:
    partition_id: int
    night_id: int
    n_frames: int
    n_records: int
    n_matched: int
    n_unmatched: int
    n_ambiguous: int
    alerts: dict
    wall_s: float
    mean_frame_s: float
    max_frame_s: float
    cadence_ok: bool
    store_records: int
    store_bytes: int
    merge_duration_s: float
    alerts_path: str
    cadence_path: str
    truth_path: str


def _run_partition(
    partition_id: int,
    out_dir,
    n_partitions: int,
    config: EngineConfig,
    mining: MiningConfig,
    seed: int,
    night_id: int,
    n_frames: int,
    stars_per_partition: int,
    n_new_sources: int,
    n_brightenings: int,
    use_store: bool,
    do_merge: bool,
    injections_override,
    write_timing: bool,
) -> NightSummary:
    """One partition's whole night; built and torn down in-process."""
    wall0 = time.perf_counter()
    footprint = split_footprint(DEFAULT_FOOTPRINT, n_partitions)[partition_id]
    model = SkyModel(
        seed=partition_seed(seed, partition_id),
        star_count=stars_per_partition,
        footprint=footprint,
    )
    template = build_template(model, config)
    out_dir = Path(out_dir) if out_dir is not None else None
    worker = PartitionWorker(
        partition_id,
        template,
        config,
        mining,
        data_dir=out_dir if use_store else None,
    )
    if injections_override is not None:
        injections = tuple(
            inj for inj in injections_override if inj.camera_id == partition_id
        )
    else:
        injections = random_injections(
            template,
            model,
            config,
            seed=model.seed,
            n_new_sources=n_new_sources,
            n_brightenings=n_brightenings,
            night_id=night_id,
            frames_per_night=n_frames,
            # events only begin once the online baselines are warm, otherwise
            # a short event inside the warm-up window could never alert
            min_on_frame=mining.min_window + 1,
            camera_id=partition_id,
        )
    outcomes = []
    for i in range(n_frames):
        epoch = night_id * SECONDS_PER_DAY + i * config.cadence_s
        frame = observe_frame(
            template, epoch, injections, model, config, camera_id=partition_id
        )
        outcomes.append(worker.process_frame(frame))
    alerts = [a for o in outcomes for a in o.alerts]

    store = worker.store
    merge_s = store.nightly_merge().duration_s if store is not None and do_merge else 0.0

    alerts_path = cadence_path = truth_path = ""
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        alerts_path = str(out_dir / f"alerts_p{partition_id:02d}.csv")
        truth_path = str(out_dir / f"truth_p{partition_id:02d}.csv")
        write_alerts_csv(alerts_path, alerts)
        write_truth_log(truth_path, injections)
        if write_timing:
            # wall-clock telemetry: deliberately not part of the
            # deterministic product set
            cadence_path = str(out_dir / f"cadence_p{partition_id:02d}.csv")
            write_cadence_csv(cadence_path, outcomes)

    totals = np.array([o.timings.total_s for o in outcomes])
    max_frame_s = float(totals.max()) if n_frames else 0.0
    return NightSummary(
        partition_id=partition_id,
        night_id=night_id,
        n_frames=n_frames,
        n_records=sum(o.n_records for o in outcomes),
        n_matched=sum(o.n_matched for o in outcomes),
        n_unmatched=sum(o.n_unmatched for o in outcomes),
        n_ambiguous=sum(o.n_ambiguous for o in outcomes),
        alerts=dict(Counter(a.kind for a in alerts)),
        wall_s=time.perf_counter() - wall0,
        mean_frame_s=float(totals.mean()) if n_frames else 0.0,
        max_frame_s=max_frame_s,
        cadence_ok=max_frame_s < config.cadence_s,
        store_records=store.stats.records_ingested if store is not None else 0,
        store_bytes=store.stats.bytes_on_disk if store is not None else 0,
        merge_duration_s=merge_s,
        alerts_path=alerts_path,
        cadence_path=cadence_path,
        truth_path=truth_path,
    )


def run_night(
    out_dir,
    config: EngineConfig | None = None,
    mining: MiningConfig | None = None,
    seed: int = 0,
    night_id: int = 0,
    n_partitions: int = 1,
    n_frames: int | None = None,
    stars_per_partition: int | None = None,
    n_new_sources: int = 0,
    n_brightenings: int = 0,
    workers: int = 1,
    use_store: bool = True,
    do_merge: bool = False,
    injections=None,
    write_timing: bool = False,
) -> list:
    """Simulate one night across partitions; returns per-partition summaries.

    ``workers > 1`` runs partitions in separate processes; results are
    identical to the serial path because partitions share nothing.  Each
    process joins and builds store rows on its own ``core.row_blocks`` pool.
    When ``injections`` is given (a sequence of TransientInjection), each
    partition takes the entries whose ``camera_id`` names it and no random
    injections are drawn.
    """
    config = config or EngineConfig()
    mining = mining or MiningConfig()
    if n_partitions < 1:
        raise DomainError(f"n_partitions must be >= 1, got {n_partitions}")
    run = partial(
        _run_partition,
        out_dir=out_dir,
        n_partitions=n_partitions,
        config=config,
        mining=mining,
        seed=seed,
        night_id=night_id,
        n_frames=config.frames_per_night if n_frames is None else n_frames,
        stars_per_partition=(
            config.sources_per_frame if stars_per_partition is None
            else stars_per_partition
        ),
        n_new_sources=n_new_sources,
        n_brightenings=n_brightenings,
        use_store=use_store,
        do_merge=do_merge,
        injections_override=injections,
        write_timing=write_timing,
    )
    if workers <= 1:
        return [run(p) for p in range(n_partitions)]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(run, range(n_partitions)))


def write_night_summary(path, summaries) -> None:
    payload = [asdict(s) for s in summaries]
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# alert replay


def replay_online(
    records: np.ndarray,
    config: EngineConfig,
    mining: MiningConfig | None = None,
) -> list:
    """Re-run the online detectors over stored rows, one epoch at a time.

    ``records`` must be in (epoch, id) order, as ``query_stores`` and
    ``NightStore.query_records`` return them; rows out of that order raise
    DomainError.  The replay sees exactly what the live chain saw: matched
    rows feed the window bank, candidate rows feed the persistence tracker,
    and rows within a frame arrive in record-id order, which is the original
    frame row order.
    """
    mining = mining or MiningConfig()
    if not len(records):
        return []
    epochs, ids = records["epoch"], records["id"]
    later = epochs[1:] > epochs[:-1]
    ordered = later | ((epochs[1:] == epochs[:-1]) & (ids[1:] > ids[:-1]))
    if not ordered.all():
        raise DomainError(
            f"row {int(np.argmin(ordered)) + 1} breaks the (epoch, id) order "
            "replay_online needs"
        )
    star_ids = np.unique(records["star_id"][records["star_id"] >= 0])
    bank = WindowBank(star_ids, mining)
    tracker = CandidateTracker(config, mining)
    alerts = []
    bounds = np.concatenate(([0], np.flatnonzero(later) + 1, [len(records)]))
    for epoch, lo, hi in zip(epochs[bounds[:-1]], bounds[:-1], bounds[1:]):
        chunk = records[lo:hi]
        camera_id = int(chunk["id"][0] >> np.uint64(56))
        matched = take_rows(chunk, chunk["star_id"] >= 0)
        if len(matched):
            alerts.extend(
                bank.update(
                    epoch,
                    matched["star_id"],
                    matched["calmag"],
                    matched["mag_error"],
                    record_ids=matched["id"],
                    camera_id=camera_id,
                )
            )
        alerts.extend(
            tracker.update(
                epoch, take_rows(chunk, chunk["candidate"] == 1), camera_id=camera_id
            )
        )
    return alerts


# ---------------------------------------------------------------------------
# scaling benchmark


@dataclass
class ScalingPoint:
    workers: int
    n_partitions: int
    wall_s: float
    speedup: float
    efficiency: float


SCALING_CSV_HEADER = ["workers", "n_partitions", "wall_s", "speedup", "efficiency"]


def scaling_benchmark(
    worker_counts,
    n_partitions: int = 4,
    n_frames: int = 60,
    stars_per_partition: int = 2000,
    config: EngineConfig | None = None,
    mining: MiningConfig | None = None,
    seed: int = 0,
) -> list:
    """Fixed workload timed under different worker counts.

    Efficiency is serial wall time divided by (workers x parallel wall time);
    the serial baseline is always measured first with one worker.
    """
    config = config or EngineConfig()
    mining = mining or MiningConfig()

    def once(workers: int) -> float:
        t0 = time.perf_counter()
        run_night(
            None,
            config,
            mining,
            seed=seed,
            n_partitions=n_partitions,
            n_frames=n_frames,
            stars_per_partition=stars_per_partition,
            workers=workers,
            use_store=False,
        )
        return time.perf_counter() - t0

    baseline = once(1)
    points = [
        ScalingPoint(
            workers=1, n_partitions=n_partitions, wall_s=baseline,
            speedup=1.0, efficiency=1.0,
        )
    ]
    for w in worker_counts:
        if w == 1:
            continue
        wall = once(w)
        speedup = baseline / wall if wall > 0 else float("inf")
        points.append(
            ScalingPoint(
                workers=w, n_partitions=n_partitions, wall_s=wall,
                speedup=speedup, efficiency=speedup / w,
            )
        )
    return points


def write_scaling_csv(path, points) -> None:
    write_csv(path, SCALING_CSV_HEADER, map(astuple, points))
