import csv
import errno
import gc
import importlib.util
import math
import os
import sys
import threading
import time
import tracemalloc
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

from tdcat.core import DomainError, EngineConfig, SequenceError, StorageError
from tdcat.crossmatch import build_zone_index, range_join
from tdcat.mining import NEW_SOURCE, MiningConfig, read_alerts_csv
from tdcat.pipeline import (
    CADENCE_CSV_HEADER,
    SCALING_CSV_HEADER,
    PartitionWorker,
    StageTimings,
    partition_seed,
    replay_online,
    run_night,
    scaling_benchmark,
    write_scaling_csv,
)
from tdcat.skygen import (
    DEFAULT_FOOTPRINT,
    SkyModel,
    TemplateCatalog,
    TransientInjection,
    build_template,
    observe_frame,
    read_truth_log,
    split_footprint,
)
from tdcat.store import PartitionError, open_partitions, query_stores

from oracles import haversine_deg

CFG = EngineConfig()
MINING = MiningConfig()


def product_files(root):
    """Deterministic product files under a run directory, relative names."""
    root = Path(root)
    out = {}
    for path in sorted(root.rglob("*")):
        if path.is_file():
            out[str(path.relative_to(root))] = path.read_bytes()
    return out


# ---------------------------------------------------------------------------
# seeds and timings


def test_partition_seed_properties():
    seeds = [partition_seed(7, p) for p in range(50)]
    assert len(set(seeds)) == 50
    assert seeds == [partition_seed(7, p) for p in range(50)]
    assert partition_seed(8, 0) != partition_seed(7, 0)
    # frozen regression anchor: seed derivation must never drift silently
    assert partition_seed(0, 0) == 15793235383387715774


def test_stage_timings_total():
    # the frame's wall time as measured, not the sum of overlapping stages
    t = StageTimings(match_s=1.0, insert_s=2.0, online_s=4.0, candidate_s=5.0, total_s=9.0)
    assert t.total_s == 9.0
    assert StageTimings().total_s == 0.0


def test_night_summary_agrees_with_its_cadence_csv(tmp_path):
    [s] = run_night(tmp_path, CFG, MINING, seed=2, n_frames=3,
                    stars_per_partition=250, write_timing=True)
    with open(s.cadence_path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == CADENCE_CSV_HEADER
    assert len(rows) == 4
    totals = np.array([float(r[11]) for r in rows[1:]])
    assert s.max_frame_s == totals.max()
    assert s.mean_frame_s == pytest.approx(totals.mean())
    assert s.cadence_ok  # tiny frames finish far inside 15 s
    for col, total in zip(range(2, 6), (s.n_records, s.n_matched, s.n_unmatched, s.n_ambiguous)):
        assert sum(int(r[col]) for r in rows[1:]) == total
    assert s.store_records == s.n_records
    files = [f for f in (tmp_path / "partition_00").rglob("*") if f.is_file()]
    assert s.store_bytes == sum(f.stat().st_size for f in files) > 0
    [empty] = run_night(None, CFG, MINING, n_frames=0, stars_per_partition=250, use_store=False)
    assert (empty.mean_frame_s, empty.max_frame_s, empty.cadence_ok) == (0.0, 0.0, True)


# ---------------------------------------------------------------------------
# partition worker

WORKER_MODEL = SkyModel(seed=5, star_count=250, footprint=(30.0, 32.0, -1.0, 1.0))
_WORKER_TEMPLATE = None


def make_worker(data_dir=None):
    global _WORKER_TEMPLATE
    if _WORKER_TEMPLATE is None:
        _WORKER_TEMPLATE = build_template(WORKER_MODEL, CFG)
    return PartitionWorker(0, _WORKER_TEMPLATE, CFG, MINING, data_dir=data_dir)


def test_process_frame_outcome_arithmetic(tmp_path):
    worker = make_worker(data_dir=tmp_path)
    frame = observe_frame(worker.template, 15.0, [], WORKER_MODEL, CFG, camera_id=0)
    outcome = worker.process_frame(frame)
    assert outcome.imageid == frame.imageid
    assert outcome.epoch == 15.0
    assert outcome.n_records == len(frame.records)
    assert outcome.n_matched + outcome.n_unmatched == outcome.n_records
    assert outcome.n_matched > 200  # clean sky: nearly everything matches
    assert outcome.timings.total_s > 0
    # the store absorbed this frame
    assert worker.store.stats.records_ingested == outcome.n_records


def test_process_frame_without_store_or_curves():
    worker = make_worker()
    assert worker.store is None
    frame = observe_frame(worker.template, 15.0, [], WORKER_MODEL, CFG)
    outcome = worker.process_frame(frame)
    assert outcome.n_records == 250
    assert outcome.timings.insert_s < outcome.timings.match_s + 1.0


def test_worker_memory_does_not_grow_with_the_night():
    """The chain keeps no per-point state: frames 21-80 grow the heap < 16 KiB."""
    worker = make_worker()
    tracemalloc.start()
    try:
        for k in range(1, 81):
            worker.process_frame(
                observe_frame(worker.template, 15.0 * k, [], WORKER_MODEL, CFG)
            )
            if k == 20:
                gc.collect()
                at_20 = tracemalloc.get_traced_memory()[0]
        gc.collect()
        at_80 = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert at_80 - at_20 < 16 * 1024, at_80 - at_20


EVENTS = [
    TransientInjection(kind="brightening", epoch_on=11 * 15.0, epoch_off=14 * 15.0,
                       target_star=7, delta_mag=-1.0),
    TransientInjection(kind="new_source", epoch_on=9 * 15.0, epoch_off=15 * 15.0,
                       ra=31.0, dec=0.0, mag=15.0),
]


def detector_state(worker):
    """Every array and counter of the worker's window bank and tracker."""
    bank, tracker = worker.bank, worker.tracker
    arrays = (bank._ring, bank._head, bank._count, bank._sum, bank._sumsq, tracker._tracks)
    return [a.tobytes() for a in arrays] + [tracker._last_epoch]


def insert_threads():
    gc.collect()  # a collected worker joins its thread
    return {t for t in threading.enumerate() if t.name.startswith("tdcat-")}


@pytest.mark.parametrize("failure", ["stale-epoch", "fsync", "repeated-id", "duplicate-star"])
def test_failed_insert_leaves_every_detector_as_it_was(tmp_path, monkeypatch, failure):
    make_worker()
    frames = [
        observe_frame(_WORKER_TEMPLATE, 15.0 * k, EVENTS, WORKER_MODEL, CFG) for k in range(15)
    ]
    threads = insert_threads()
    reference = make_worker(data_dir=tmp_path / "reference")
    want = [[asdict(a) for a in reference.process_frame(f).alerts] for f in frames]
    assert want[11] and reference.tracker.open_tracks, "frame 11 must exercise both detectors"

    worker = make_worker(data_dir=tmp_path / "worker")
    for f in frames[:11]:
        worker.process_frame(f)
    before = detector_state(worker)
    if failure == "stale-epoch":  # frame 11 stamped with frame 10's epoch
        with pytest.raises(SequenceError):
            worker.process_frame(replace(frames[11], epoch=frames[10].epoch))
    elif failure == "repeated-id":  # frame 11's row 5 repeats row 4's id
        records = frames[11].records.copy()
        records["id"][5] = records["id"][4]
        with pytest.raises(DomainError, match=f"record id {records['id'][4]} repeats"):
            worker.process_frame(replace(frames[11], records=records))
    elif failure == "duplicate-star":  # row 5 is row 4 again: one star matched twice
        records = frames[11].records.copy()
        records[5] = records[4]
        matches = range_join(records, _WORKER_TEMPLATE.index, CFG.match_radius_deg)
        star_ids = matches.star_ids[matches.matched_rows]
        assert len(np.unique(star_ids)) < len(star_ids)
        with pytest.raises(DomainError, match=f"record id {records['id'][4]} repeats"):
            worker.process_frame(replace(frames[11], records=records))
    else:
        def no_fsync(fd):
            raise OSError(errno.EIO, "injected fsync failure")

        with monkeypatch.context() as patch:
            patch.setattr(os, "fsync", no_fsync)
            with pytest.raises(StorageError):
                worker.process_frame(frames[11])
    assert detector_state(worker) == before
    assert worker.store.stats.records_ingested == sum(len(f.records) for f in frames[:11])
    assert not list((tmp_path / "worker").rglob("*.tmp"))
    assert len(list((tmp_path / "worker").rglob("seg_*.tdl"))) == 11

    # the retried frame and the rest of the night give the same alerts
    got = [[asdict(a) for a in worker.process_frame(f).alerts] for f in frames[11:]]
    assert got == want[11:]
    assert detector_state(worker) == detector_state(reference)
    assert product_files(tmp_path / "worker") == product_files(tmp_path / "reference")

    del worker, reference
    assert insert_threads() == threads


@pytest.mark.parametrize("calmag", [np.nan, 100.0, -np.inf])
def test_a_calmag_outside_the_banks_range_is_refused_before_its_segment(tmp_path, calmag):
    """Refused on the calling thread, before the insert: no segment is written,
    neither detector changes, and the next clean frame is taken as if the bad
    one had never come."""
    model = SkyModel(seed=8, star_count=500, footprint=(30.0, 32.0, -1.0, 1.0))
    template = build_template(model, CFG)
    frames = [observe_frame(template, 15.0 * k, EVENTS, model, CFG) for k in range(5)]
    worker, reference = (PartitionWorker(0, template, CFG, MINING, data_dir=tmp_path / name)
                         for name in ("worker", "reference"))
    for f in frames[:3]:
        worker.process_frame(f)
        reference.process_frame(f)
    before = detector_state(worker)
    records = frames[3].records.copy()
    records["calmag"][7] = calmag
    with pytest.raises(DomainError, match=rf"^row 7: calmag {calmag!r} is not inside \(-100, "):
        worker.process_frame(replace(frames[3], records=records))
    assert len(list((tmp_path / "worker").rglob("seg_*.tdl"))) == 3
    assert detector_state(worker) == before
    for f in frames[3:]:
        got, want = worker.process_frame(f), reference.process_frame(f)
        assert [asdict(a) for a in got.alerts] == [asdict(a) for a in want.alerts]
    assert detector_state(worker) == detector_state(reference)
    assert product_files(tmp_path / "worker") == product_files(tmp_path / "reference")


@pytest.mark.parametrize("calmag", [np.nan, -100.0])
def test_a_storeless_worker_refuses_a_bad_calmag_in_an_unmatched_row(calmag):
    """Without a store no row build checks the frame: the tracker refuses the
    row by name, the bank's absorb is undone, and the next clean frame goes on
    as if the bad one had never come."""
    model = SkyModel(seed=8, star_count=500, footprint=(30.0, 32.0, -1.0, 1.0))
    full = build_template(model, CFG)
    half = TemplateCatalog(full.stars[::2], CFG)  # every other star stays unmatched
    frames = [observe_frame(full, 15.0 * k, [], model, CFG) for k in range(5)]
    worker, reference = (PartitionWorker(0, half, CFG, MINING) for _ in range(2))
    for f in frames[:3]:
        worker.process_frame(f)
        reference.process_frame(f)
    before = detector_state(worker)
    records = frames[3].records.copy()
    unmatched = range_join(records, half.index, CFG.match_radius_deg).unmatched_rows
    records["calmag"][unmatched[1]] = calmag
    bad = rf"^row 1 \(id {records['id'][unmatched[1]]}\): calmag {calmag!r} is not inside"
    with pytest.raises(DomainError, match=bad):
        worker.process_frame(replace(frames[3], records=records))
    assert detector_state(worker) == before
    for f in frames[3:]:
        got, want = worker.process_frame(f), reference.process_frame(f)
        assert [asdict(a) for a in got.alerts] == [asdict(a) for a in want.alerts]
    assert detector_state(worker) == detector_state(reference)


def test_insert_thread_starts_with_the_first_frame_and_ends_with_the_worker(tmp_path):
    threads = insert_threads()
    worker = make_worker(data_dir=tmp_path)
    assert insert_threads() == threads  # building a worker starts no thread
    for k in range(3):
        worker.process_frame(observe_frame(worker.template, 15.0 * k, [], WORKER_MODEL, CFG))
    assert len(insert_threads() - threads) == 1  # one thread, reused frame after frame
    del worker
    assert insert_threads() == threads


def test_overlapped_inserts_change_no_detector_under_rapid_thread_switches(tmp_path):
    """Three workers, so three insert threads on top of this one, switching
    every microsecond: each ends with the detectors of a worker with no store,
    and its store holds every frame."""
    make_worker()
    frames = [
        observe_frame(_WORKER_TEMPLATE, 15.0 * k, EVENTS, WORKER_MODEL, CFG) for k in range(15)
    ]
    workers = [make_worker(data_dir=tmp_path / f"w{i}") for i in range(3)]
    plain = make_worker()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = [[], [], []]
        for f in frames:
            for i, w in enumerate(workers):
                got[i].append([asdict(a) for a in w.process_frame(f).alerts])
    finally:
        sys.setswitchinterval(interval)
    want = [[asdict(a) for a in plain.process_frame(f).alerts] for f in frames]
    for i, w in enumerate(workers):
        assert got[i] == want
        assert detector_state(w) == detector_state(plain)
        assert w.store.stats.records_ingested == sum(len(f.records) for f in frames)
        assert len(list((tmp_path / f"w{i}").rglob("seg_*.tdl"))) == len(frames)


def test_stage_timings_cover_the_frame(tmp_path):
    worker = make_worker(data_dir=tmp_path)
    for k in range(4):
        frame = observe_frame(worker.template, 15.0 * k, [], WORKER_MODEL, CFG)
        t0 = time.perf_counter()
        t = worker.process_frame(frame).timings
        wall = time.perf_counter() - t0
        assert min(t.match_s, t.insert_s, t.online_s, t.candidate_s) > 0
        # the insert overlaps both detectors; each chain fits in the frame
        assert t.match_s + t.insert_s <= t.total_s
        assert t.match_s + t.online_s + t.candidate_s <= t.total_s
        assert t.total_s <= wall


def test_alerts_carry_camera_id():
    model = SkyModel(seed=5, star_count=250, footprint=(30.0, 32.0, -1.0, 1.0))
    template = build_template(model, CFG)
    worker = PartitionWorker(3, template, CFG, MINING)
    inj = TransientInjection(
        kind="brightening", epoch_on=11 * 15.0, epoch_off=14 * 15.0,
        target_star=7, delta_mag=-1.0, camera_id=3,
    )
    alerts = []
    for k in range(15):
        frame = observe_frame(template, 15.0 * k, [inj], model, CFG, camera_id=3)
        alerts += worker.process_frame(frame).alerts
    assert alerts, "an injected jump this large must alert"
    assert {a.camera_id for a in alerts} == {3}
    assert any(a.star_id == 7 for a in alerts)


# ---------------------------------------------------------------------------
# whole nights


def run_small_night(out_dir, workers=1, seed=3, **kw):
    return run_night(
        out_dir,
        CFG,
        MINING,
        seed=seed,
        n_partitions=2,
        n_frames=40,
        stars_per_partition=250,
        n_new_sources=kw.pop("n_new_sources", 1),
        n_brightenings=kw.pop("n_brightenings", 1),
        workers=workers,
        do_merge=kw.pop("do_merge", True),
        **kw,
    )


def test_run_night_products_are_deterministic(tmp_path):
    run_small_night(tmp_path / "a")
    run_small_night(tmp_path / "b")
    files_a = product_files(tmp_path / "a")
    files_b = product_files(tmp_path / "b")
    assert set(files_a) == set(files_b)
    assert files_a, "a night must leave products behind"
    for name in files_a:
        assert files_a[name] == files_b[name], f"{name} differs between runs"
    # timing telemetry stays out of the deterministic product set
    assert not [n for n in files_a if "cadence" in n]
    # different seed, different products
    run_small_night(tmp_path / "c", seed=4)
    files_c = product_files(tmp_path / "c")
    assert any(files_a[n] != files_c[n] for n in files_a if n in files_c)


def test_parallel_night_equals_serial(tmp_path):
    run_small_night(tmp_path / "serial", workers=1)
    run_small_night(tmp_path / "parallel", workers=2)
    serial = product_files(tmp_path / "serial")
    parallel = product_files(tmp_path / "parallel")
    assert set(serial) == set(parallel)
    for name in serial:
        assert serial[name] == parallel[name], f"{name} differs under workers=2"


def test_run_night_summaries(tmp_path):
    summaries = run_small_night(tmp_path)
    assert [s.partition_id for s in summaries] == [0, 1]
    for s in summaries:
        assert s.n_frames == 40
        assert s.n_records == s.n_matched + s.n_unmatched
        assert s.store_records == s.n_records
        assert s.merge_duration_s > 0
        assert Path(s.alerts_path).is_file()
        assert Path(s.truth_path).is_file()
        assert s.cadence_path == ""
        base_dir = tmp_path / f"partition_{s.partition_id:02d}" / "base"
        assert len(list(base_dir.glob("*.tdb"))) == 1


def test_injected_transients_are_alerted(tmp_path):
    run_small_night(tmp_path, seed=9)
    for p in (0, 1):
        truth = read_truth_log(tmp_path / f"truth_p{p:02d}.csv")
        alerts = read_alerts_csv(tmp_path / f"alerts_p{p:02d}.csv")
        assert len(truth) == 2  # one new source, one brightening
        for inj in truth:
            if inj.kind == "brightening":
                hits = [
                    a for a in alerts
                    if a.star_id == inj.target_star and a.kind == "brightening"
                ]
                assert hits, f"brightening of star {inj.target_star} missed (p{p})"
            else:
                hits = [
                    a for a in alerts
                    if a.kind == NEW_SOURCE
                    and haversine_deg(a.ra, a.dec, inj.ra, inj.dec)
                    <= CFG.match_radius_deg
                ]
                assert hits, f"new source at ({inj.ra}, {inj.dec}) missed (p{p})"


def test_injection_override_routes_by_camera(tmp_path):
    footprints = split_footprint(DEFAULT_FOOTPRINT, 2)
    injections = [
        TransientInjection(
            kind="new_source", epoch_on=10 * 15.0, epoch_off=16 * 15.0,
            ra=(footprints[p][0] + footprints[p][1]) / 2.0, dec=7.7 + p,
            mag=12.0, camera_id=p,
        )
        for p in (0, 1)
    ]
    run_small_night(
        tmp_path, n_new_sources=0, n_brightenings=0, injections=injections
    )
    for p in (0, 1):
        truth = read_truth_log(tmp_path / f"truth_p{p:02d}.csv")
        assert len(truth) == 1
        assert truth[0].camera_id == p
        assert truth[0].dec == 7.7 + p
        alerts = read_alerts_csv(tmp_path / f"alerts_p{p:02d}.csv")
        news = [a for a in alerts if a.kind == NEW_SOURCE]
        assert len(news) == 1
        assert news[0].dec == pytest.approx(7.7 + p, abs=1e-3)


def test_run_night_rejects_bad_partitions(tmp_path):
    with pytest.raises(DomainError):
        run_night(tmp_path, CFG, MINING, n_partitions=0)


def test_run_night_refuses_a_partition_past_the_camera_byte_before_any_runs(tmp_path):
    # partition p writes camera byte p: a 257th partition would write camera 0 again
    with pytest.raises(DomainError, match=r"n_partitions must be in \[1, 256\], got 257"):
        run_night(tmp_path / "night", CFG, MINING, n_partitions=257, n_frames=1,
                  stars_per_partition=10)
    assert not (tmp_path / "night").exists()


# ---------------------------------------------------------------------------
# replay equivalence


def same_alert(a, b):
    for name in a.__dataclass_fields__:
        x, y = getattr(a, name), getattr(b, name)
        if isinstance(x, float) and math.isnan(x) and math.isnan(y):
            continue
        if isinstance(x, float):
            if x != pytest.approx(y, rel=1e-12, abs=1e-12):
                return False
        elif x != y:
            return False
    return True


def test_replay_matches_live_alerts(tmp_path):
    run_small_night(tmp_path, seed=21, do_merge=False)
    for p in (0, 1):
        live = read_alerts_csv(tmp_path / f"alerts_p{p:02d}.csv")
        [store] = open_partitions(tmp_path, [p])
        replayed = replay_online(store.query_records(), CFG, MINING)
        assert len(replayed) == len(live)
        for a, b in zip(replayed, live):
            assert same_alert(a, b), (a, b)


def test_replay_sees_through_merge(tmp_path):
    # merging reorders rows on disk; the replay must reconstruct frame order
    run_small_night(tmp_path, seed=21, do_merge=True)
    for p in (0, 1):
        live = read_alerts_csv(tmp_path / f"alerts_p{p:02d}.csv")
        [store] = open_partitions(tmp_path, [p])
        replayed = replay_online(store.query_records(), CFG, MINING)
        assert len(replayed) == len(live)
        for a, b in zip(replayed, live):
            assert same_alert(a, b), (a, b)


def test_replay_refuses_rows_out_of_epoch_order(tmp_path):
    run_small_night(tmp_path, seed=21, do_merge=False)
    [store] = open_partitions(tmp_path, [0])
    rows = store.query_records()
    with pytest.raises(DomainError, match="order"):
        replay_online(rows[::-1], CFG, MINING)
    one_frame = rows[rows["epoch"] == rows["epoch"][0]]
    with pytest.raises(DomainError, match="order"):
        replay_online(one_frame[::-1], CFG, MINING)


def test_replay_empty_input():
    assert replay_online(np.zeros(0, np.dtype([("epoch", "<f8")])), CFG) == []


# ---------------------------------------------------------------------------
# cross-partition queries (store.query_stores)


@pytest.fixture(scope="module")
def night_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("night")
    run_small_night(root, seed=13)
    return root


def gather(root, partition_ids, **clauses):
    return query_stores(open_partitions(root, partition_ids), **clauses)


def all_rows(root):
    parts = [s.query_records() for s in open_partitions(root, (0, 1))]
    rec = np.concatenate(parts)
    return rec[np.lexsort((rec["id"], rec["epoch"]))]


def test_replay_refuses_rows_from_more_than_one_camera(night_root):
    # star ids are per camera: star 5 of camera 0 is not star 5 of camera 1
    both = gather(night_root, [0, 1])
    with pytest.raises(DomainError, match=r"cameras \[0, 1\]"):
        replay_online(both, CFG, MINING)
    [one] = open_partitions(night_root, [1])
    alerts = replay_online(one.query_records(), CFG, MINING)
    assert alerts and {a.camera_id for a in alerts} == {1}


def test_scatter_gather_equals_manual_concat(night_root):
    rec = all_rows(night_root)
    got = gather(night_root, [0, 1])
    assert np.array_equal(got, rec)
    assert np.all(np.diff(got["epoch"]) >= 0)


def test_scatter_gather_filters(night_root):
    rec = all_rows(night_root)
    sid = int(rec["star_id"][rec["star_id"] >= 0][0])
    got = gather(night_root, [0, 1], star_id=sid)
    assert len(got) and np.all(got["star_id"] == sid)

    lo, hi = 75.0, 300.0
    got = gather(night_root, [0, 1], epoch_min=lo, epoch_max=hi)
    want = rec[(rec["epoch"] >= lo) & (rec["epoch"] <= hi)]
    assert np.array_equal(np.sort(got["id"]), np.sort(want["id"]))

    got = gather(night_root, [0, 1], mag_min=12.0, mag_max=13.0)
    want = rec[(rec["calmag"] >= 12.0) & (rec["calmag"] <= 13.0)]
    assert np.array_equal(np.sort(got["id"]), np.sort(want["id"]))

    got = gather(night_root, [0, 1], include_candidates=False)
    assert np.all(got["candidate"] == 0)


def test_scatter_gather_cone_matches_haversine(night_root):
    rec = all_rows(night_root)
    center_ra = float(rec["ra"][0])
    center_dec = float(rec["dec"][0])
    radius = 0.5
    got = gather(night_root, [0, 1], cone=(center_ra, center_dec, radius))
    seps = np.array(
        [haversine_deg(r["ra"], r["dec"], center_ra, center_dec) for r in rec]
    )
    want_ids = np.sort(rec["id"][seps <= radius])
    assert np.array_equal(np.sort(got["id"]), want_ids)
    assert len(got)


def test_scatter_gather_missing_partition(night_root):
    with pytest.raises(PartitionError, match="5"):
        gather(night_root, [0, 5])


def test_scatter_gather_empty_partition_list(night_root):
    assert len(gather(night_root, [])) == 0


def test_demo_script_runs(tmp_path, capsys):
    path = Path(__file__).resolve().parents[1] / "scripts" / "run_demo_night.py"
    spec = importlib.util.spec_from_file_location("run_demo_night", path)
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    argv = ["--out", str(tmp_path), "--partitions", "2", "--frames", "12",
            "--stars", "200"]
    assert demo.main(argv) == 0
    assert "cross-partition query" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# scaling harness


def test_scaling_benchmark_structure(tmp_path):
    points = scaling_benchmark(
        [1, 2], n_partitions=2, n_frames=6, stars_per_partition=120,
        config=CFG, mining=MINING, seed=0,
    )
    assert [p.workers for p in points] == [1, 2]
    base = points[0]
    assert base.speedup == 1.0 and base.efficiency == 1.0 and base.wall_s > 0
    two = points[1]
    assert two.speedup == pytest.approx(base.wall_s / two.wall_s)
    assert two.efficiency == pytest.approx(two.speedup / 2)

    path = tmp_path / "scaling.csv"
    write_scaling_csv(path, points)
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == SCALING_CSV_HEADER
    assert len(rows) == 3
    assert int(rows[1][0]) == 1
