"""Acceptance gate: one test per shipping criterion, run in order.

Each test prints a single ``ACCEPTANCE n <title>: PASS/FAIL`` line (visible
under ``pytest -s`` or in the failure report) with the measured numbers, then
asserts.  Tolerances are stated inline next to each check.  Criteria that are
conditional on hardware this host does not have are skipped with the measured
evidence printed, never silently passed.
"""

import filecmp
import os
import shutil
import time
from pathlib import Path

import numpy as np
import pytest

import tdcat.store as store_mod
from tdcat.cli import main as cli_main
from tdcat.core import EngineConfig, records_from_radec, sort_by_zone_ra
from tdcat.crossmatch import build_zone_index, range_join
from tdcat.mining import MiningConfig, period_search, read_alerts_csv
from tdcat.pipeline import PartitionWorker, run_night, scaling_benchmark
from tdcat.skygen import (
    DEFAULT_FOOTPRINT,
    SkyModel,
    build_template,
    observe_frame,
    read_truth_log,
)
from tdcat.store import (
    STORE_RECORD_SIZE,
    NightStore,
    capacity_table,
    frame_to_store_records,
)

from oracles import brute_force_match_arrays, haversine_deg

CFG = EngineConfig()
MINING = MiningConfig()

FULL_SCALE = 175_600  # records per frame and stars per camera template
HUNDREDTH = 1_756  # the 1/100 density preset
FRAMES_PER_NIGHT = 1_920  # 8 h at 15 s cadence


def report(num, title, ok, detail):
    print(f"\nACCEPTANCE {num} {title}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {num} ({title}): {detail}"


# ---------------------------------------------------------------------------


def test_criterion_1_cadence_budget_at_full_scale(tmp_path):
    """One camera's frame through the whole chain inside the 15 s cadence.

    Generation is excluded (pre-generated inputs); the timed chain is
    cross-match + durable ingest + online mining + candidate tracking over
    1.756e5 records against a 1.756e5-star template.  Hard ceiling 15 s,
    reported target 2 s.
    """
    model = SkyModel(seed=101, star_count=FULL_SCALE, footprint=DEFAULT_FOOTPRINT)
    template = build_template(model, CFG)
    worker = PartitionWorker(0, template, CFG, MINING, data_dir=tmp_path)
    frame = observe_frame(template, 15.0, [], model, CFG, camera_id=0)
    assert len(frame.records) == FULL_SCALE

    t0 = time.perf_counter()
    outcome = worker.process_frame(frame)
    wall = time.perf_counter() - t0

    t = outcome.timings
    detail = (
        f"{outcome.n_records} records in {wall:.3f} s "
        f"(match {t.match_s:.3f}, insert {t.insert_s:.3f}, "
        f"online {t.online_s:.3f}, candidates {t.candidate_s:.3f}); "
        f"hard ceiling 15 s, 2 s target {'met' if wall < 2.0 else 'MISSED'}"
    )
    report(1, "cadence budget at full per-camera scale", wall < 15.0, detail)


def test_criterion_2_capacity_planner_matches_survey_sizing():
    """Record counts to 3 significant figures; bytes within +/-20%.

    Anchors (1 camera = 1920 frames x 1.756e5 records): 3.37e8 records /
    61.88 GiB per camera-day, 8.77e10 / 15.71 TiB per camera-year (260 d),
    8.77e11 / 157.1 TiB per camera-decade, and 36-camera rows 1.21e10 /
    2.17 TiB, 3.16e12 / 565.62 TiB, 3.16e13 / 5.52 PiB.  Byte anchors imply
    ~197 B/record; ours measure {} B, compared at +/-20%.
    """.format(STORE_RECORD_SIZE)
    rows = {(r.cameras, r.days): r for r in capacity_table(CFG, STORE_RECORD_SIZE)}
    record_anchors = {
        (1, 1): 3.37e8,
        (1, 260): 8.77e10,
        (1, 2600): 8.77e11,
        (36, 1): 1.21e10,
        (36, 260): 3.16e12,
        (36, 2600): 3.16e13,
    }
    byte_anchors = {  # binary units
        (1, 1): 61.88 * 2**30,
        (1, 260): 15.71 * 2**40,
        (1, 2600): 157.1 * 2**40,
        (36, 1): 2.17 * 2**40,
        (36, 260): 565.62 * 2**40,
        (36, 2600): 5.52 * 2**50,
    }
    record_ok = all(
        float(f"{rows[key].records:.2e}") == anchor
        for key, anchor in record_anchors.items()
    )
    ratios = {
        key: rows[key].bytes / anchor for key, anchor in byte_anchors.items()
    }
    bytes_ok = all(0.8 <= r <= 1.2 for r in ratios.values())
    worst = max(ratios.values(), key=lambda r: abs(r - 1.0))
    detail = (
        f"all 6 record anchors match to 3 sig figs; byte ratios "
        f"ours/anchor span {min(ratios.values()):.3f}..{max(ratios.values()):.3f} "
        f"(worst {worst:.3f}, tolerance 0.8..1.2) at {STORE_RECORD_SIZE} B/record"
    )
    report(2, "capacity planner vs survey sizing table", record_ok and bytes_ok, detail)


# ---------------------------------------------------------------------------


def _oracle_instance(rng, family):
    """One randomized cross-match instance of the requested family."""
    if family == "general":
        n = int(rng.integers(1, 2001))
        m = int(rng.integers(1, 2001))
        scale = float(rng.choice([0.05, 0.5, 5.0]))
        ra0, dec0 = rng.uniform(0, 360), rng.uniform(-80, 80)
        f_ra = (ra0 + rng.uniform(0, scale, n)) % 360.0
        f_dec = np.clip(dec0 + rng.uniform(0, scale, n), -90, 90)
        t_ra = (ra0 + rng.uniform(0, scale, m)) % 360.0
        t_dec = np.clip(dec0 + rng.uniform(0, scale, m), -90, 90)
    elif family == "zone-boundary":
        n = m = int(rng.integers(50, 800))
        h = CFG.zone_height_deg
        bounds = rng.integers(1, 17999, n) * h - 90.0
        eps = rng.choice([-1e-7, -1e-9, 0.0, 1e-9, 1e-7], n)
        f_dec = np.clip(bounds + eps, -90, 90)
        f_ra = rng.uniform(20.0, 20.05, n)
        t_dec = np.clip(f_dec + rng.normal(0, 5e-4, m), -90, 90)
        t_ra = f_ra + rng.normal(0, 5e-4, m)
    elif family == "ra-seam":
        n = m = int(rng.integers(50, 800))
        f_ra = np.where(rng.random(n) < 0.5,
                        rng.uniform(359.99, 360.0, n), rng.uniform(0.0, 0.01, n))
        f_dec = rng.uniform(-45, 45, n)
        t_ra = (f_ra + rng.normal(0, 2e-3, m)) % 360.0
        t_dec = np.clip(f_dec + rng.normal(0, 2e-3, m), -90, 90)
    else:  # near-pole
        n = m = int(rng.integers(50, 600))
        sign = rng.choice([-1.0, 1.0])
        f_dec = sign * rng.uniform(89.9, 90.0, n)
        f_ra = rng.uniform(0, 360, n)
        t_dec = np.clip(f_dec + rng.normal(0, 5e-4, m), -90, 90)
        t_ra = rng.uniform(0, 360, m)
    radius = float(rng.choice([0.003, 0.01, 0.05]))
    return f_ra, f_dec, t_ra, t_dec, radius


def test_criterion_3_crossmatch_equals_bruteforce_oracle():
    """50 randomized instances, n <= 2000, exact match-set equality.

    Zero tolerance: for every instance the (record -> star) map and the
    unmatched set must equal the O(n*m) haversine brute force; ties broken
    toward the smaller star id in both.
    """
    rng = np.random.default_rng(20260823)
    families = (
        ["general"] * 30 + ["zone-boundary"] * 8 + ["ra-seam"] * 6
        + ["near-pole"] * 6
    )
    assert len(families) == 50
    checked = mismatches = 0
    for trial, family in enumerate(families):
        f_ra, f_dec, t_ra, t_dec, radius = _oracle_instance(rng, family)
        frame = sort_by_zone_ra(records_from_radec(
            ids=np.arange(len(f_ra), dtype=np.uint64), imageid=trial,
            ra=f_ra, dec=f_dec, mag=np.full(len(f_ra), 12.0),
            mag_error=np.full(len(f_ra), 0.02), config=CFG,
        ))
        tpl = sort_by_zone_ra(records_from_radec(
            ids=np.arange(len(t_ra), dtype=np.uint64), imageid=0,
            ra=t_ra, dec=t_dec, mag=np.full(len(t_ra), 12.0),
            mag_error=np.full(len(t_ra), 0.02), config=CFG,
        ))
        result = range_join(
            frame, build_zone_index(tpl, CFG.zone_height_deg, radius), radius
        )
        got = {int(r): int(s) for r, s, _ in result.pairs()}
        got_unmatched = set(int(u) for u in result.unmatched_ids)
        oracle = brute_force_match_arrays(
            frame["ra"], frame["dec"], tpl["id"].astype(np.int64),
            tpl["ra"], tpl["dec"], radius,
        )
        want = {
            int(frame["id"][i]): o[0] for i, o in enumerate(oracle) if o is not None
        }
        want_unmatched = {
            int(frame["id"][i]) for i, o in enumerate(oracle) if o is None
        }
        checked += len(frame)
        if got != want or got_unmatched != want_unmatched:
            mismatches += 1
    detail = (
        f"50 instances ({len(families)} drawn: 30 general, 8 zone-boundary, "
        f"6 ra-seam, 6 near-pole), {checked} records checked, "
        f"{mismatches} instances diverged (tolerance: zero)"
    )
    report(3, "cross-match equals brute-force oracle", mismatches == 0, detail)


# ---------------------------------------------------------------------------


def test_criterion_4_storage_equivalence_over_full_night(tmp_path):
    """1920 frames at 1/100 density: merge preserves the record multiset.

    Full-history queries before and after nightly_merge must be identical
    (byte equality in canonical (epoch, id) order), and a merge interrupted
    at the commit rename must converge on retry to the byte-identical base
    file.  Zero tolerance.
    """
    model = SkyModel(seed=404, star_count=HUNDREDTH, footprint=DEFAULT_FOOTPRINT)
    template = build_template(model, CFG)
    index = template.index
    store = NightStore(tmp_path / "a", partition_id=0)
    for i in range(FRAMES_PER_NIGHT):
        frame = observe_frame(template, i * CFG.cadence_s, [], model, CFG)
        matches = range_join(frame.records, index, CFG.match_radius_deg)
        store.delta_insert(frame, frame_to_store_records(frame, matches))

    # second copy of the same delta log for the interrupted-merge arm
    shutil.copytree(tmp_path / "a" / "partition_00", tmp_path / "b" / "partition_00")

    pre = store.query_records()
    merge_report = store.nightly_merge()
    post = store.query_records()
    multiset_ok = len(pre) == len(post) and np.array_equal(pre, post)

    crashed = NightStore(tmp_path / "b", partition_id=0)
    real_replace = os.replace

    def interrupted(src, dst):
        raise OSError("simulated crash at the merge commit point")

    store_mod.os.replace = interrupted
    try:
        with pytest.raises(OSError):
            crashed.nightly_merge()
    finally:
        store_mod.os.replace = real_replace
    recovered = NightStore(tmp_path / "b", partition_id=0)
    retry_report = recovered.nightly_merge()
    converged = filecmp.cmp(
        merge_report.base_path, retry_report.base_path, shallow=False
    )

    detail = (
        f"{FRAMES_PER_NIGHT} frames, {len(pre)} records; pre/post-merge "
        f"query multisets {'identical' if multiset_ok else 'DIFFER'}; "
        f"interrupted merge retried -> base bytes "
        f"{'identical' if converged else 'DIFFER'} (tolerance: zero)"
    )
    report(4, "storage equivalence across nightly merge", multiset_ok and converged, detail)


# ---------------------------------------------------------------------------

NIGHT_FRAMES = 240  # per seeded night in criterion 5 (1 h at 15 s cadence)


def _night(tmp_path, seed, injections):
    out = tmp_path / f"night_{seed}"
    new_sources, brightenings = injections
    run_night(
        out, CFG, MINING, seed=seed, n_partitions=1, n_frames=NIGHT_FRAMES,
        stars_per_partition=HUNDREDTH, n_new_sources=new_sources,
        n_brightenings=brightenings, use_store=False,
    )
    truth = read_truth_log(out / "truth_p00.csv")
    alerts = read_alerts_csv(out / "alerts_p00.csv")
    return truth, alerts


def _injection_alerted(inj, alerts):
    if inj.kind == "brightening":
        return any(
            a.kind == "brightening" and a.star_id == inj.target_star
            and inj.epoch_on <= a.epoch < inj.epoch_off
            for a in alerts
        )
    return any(
        a.kind == "new_source"
        and inj.epoch_on <= a.epoch <= inj.epoch_off + CFG.cadence_s
        and haversine_deg(a.ra, a.dec, inj.ra, inj.dec) <= CFG.match_radius_deg
        for a in alerts
    )


def test_criterion_5_transient_recovery_and_false_alerts(tmp_path):
    """100% of injections alerted; false alerts <= 1e-5 per star-epoch.

    20 seeded nights x 5 injections each (2 new sources + 3 brightenings;
    amplitudes 0.5..1.5 mag = 25..75 sigma, far above the 5 sigma floor;
    duration >= 2 frames), then 20 injection-free nights at k=5 where every
    alert counts as false and star-epochs are the matched-point updates.
    """
    total = missed = 0
    for seed in range(1000, 1020):
        truth, alerts = _night(tmp_path, seed, (2, 3))
        assert len(truth) == 5
        for inj in truth:
            total += 1
            if not _injection_alerted(inj, alerts):
                missed += 1

    false_alerts = 0
    star_epochs = 0
    for seed in range(2000, 2020):
        out = tmp_path / f"clean_{seed}"
        summaries = run_night(
            out, CFG, MINING, seed=seed, n_partitions=1,
            n_frames=NIGHT_FRAMES, stars_per_partition=HUNDREDTH,
            use_store=False,
        )
        star_epochs += summaries[0].n_matched
        false_alerts += len(read_alerts_csv(out / "alerts_p00.csv"))
    rate = false_alerts / star_epochs
    ok = missed == 0 and rate <= 1e-5
    detail = (
        f"{total - missed}/{total} injections alerted over 20 nights "
        f"(required 100%); {false_alerts} false alerts in {star_epochs} "
        f"star-epochs over 20 clean nights (rate {rate:.2e}, limit 1e-5)"
    )
    report(5, "transient recovery and false-alert rate", ok, detail)


# ---------------------------------------------------------------------------


def test_criterion_6_period_recovery():
    """Sinusoid (period 300 s, amplitude 0.3 mag, noise 0.02 mag, 1920
    points at 15 s cadence) recovered within 1%."""
    rng = np.random.default_rng(606)
    t = np.arange(FRAMES_PER_NIGHT) * CFG.cadence_s
    y = 12.0 + 0.3 * np.sin(2 * np.pi * t / 300.0) + rng.normal(0, 0.02, len(t))
    result = period_search(t, y, MINING)
    rel_err = abs(result.period_s - 300.0) / 300.0
    detail = (
        f"best period {result.period_s:.4f} s (true 300 s, error "
        f"{rel_err * 100:.4f}%, tolerance 1%), power {result.power:.1f} vs "
        f"threshold {result.fap_threshold:.1f} over {result.n_freqs} frequencies"
    )
    report(6, "period recovery within 1%", rel_err < 0.01 and result.significant, detail)


# ---------------------------------------------------------------------------


def test_criterion_7_parallel_scaling_efficiency():
    """Parallel efficiency >= 0.7 at 4 workers — conditional on >= 4 cores.

    On smaller hosts the criterion cannot be evaluated as written; the
    benchmark harness still runs (1 and 2 workers) so the machinery is
    exercised, and the test is skipped with the measurements printed.
    """
    cores = os.cpu_count() or 1
    if cores >= 4:
        points = scaling_benchmark(
            [1, 2, 4], n_partitions=4, n_frames=40,
            stars_per_partition=HUNDREDTH, config=CFG, mining=MINING, seed=0,
        )
        at4 = next(p for p in points if p.workers == 4)
        detail = (
            f"{cores} cores; efficiency at 4 workers {at4.efficiency:.2f} "
            f"(speedup {at4.speedup:.2f}, threshold 0.70)"
        )
        report(7, "parallel scaling efficiency", at4.efficiency >= 0.7, detail)
    else:
        points = scaling_benchmark(
            [1, 2], n_partitions=2, n_frames=12,
            stars_per_partition=400, config=CFG, mining=MINING, seed=0,
        )
        measured = ", ".join(
            f"{p.workers}w: {p.wall_s:.2f}s eff {p.efficiency:.2f}" for p in points
        )
        print(
            f"\nACCEPTANCE 7 parallel scaling efficiency: SKIP — host has "
            f"{cores} core(s), criterion requires >= 4; harness runs: {measured}"
        )
        pytest.skip(
            f"criterion 7 conditions on a >=4-core machine; host has {cores}"
        )


# ---------------------------------------------------------------------------


def test_criterion_8_end_to_end_determinism(tmp_path):
    """Identical seeds -> byte-identical match files, alert files, stores."""
    gen = tmp_path / "gen"
    rc = cli_main(
        ["generate", "--out", str(gen), "--frames", "3", "--stars", "800",
         "--seed", "11", "--new-sources", "1", "--brightenings", "1"]
    )
    assert rc == 0
    frames = sorted(str(p) for p in gen.glob("frame_*.tds"))

    def crossmatch_run(tag):
        d = tmp_path / f"xm_{tag}"
        d.mkdir()
        rc = cli_main(
            ["crossmatch", "--template", str(gen / "template.tds"),
             "--frame", *frames,
             "--out-matches", str(d / "matches.csv"),
             "--out-candidates", str(d / "candidates.csv")]
        )
        assert rc == 0
        return d

    xa, xb = crossmatch_run("a"), crossmatch_run("b")
    match_ok = all(
        filecmp.cmp(xa / n, xb / n, shallow=False)
        for n in ("matches.csv", "candidates.csv")
    )

    def night_run(tag):
        d = tmp_path / f"night_{tag}"
        rc = cli_main(
            ["run-night", "--data-dir", str(d), "--partitions", "2",
             "--frames", "40", "--stars", "400", "--seed", "11",
             "--new-sources", "1", "--brightenings", "1", "--merge"]
        )
        assert rc == 0
        return {
            str(p.relative_to(d)): p for p in sorted(d.rglob("*")) if p.is_file()
        }

    na, nb = night_run("a"), night_run("b")
    trees_match = na.keys() == nb.keys()
    store_ok = trees_match and all(
        filecmp.cmp(na[name], nb[name], shallow=False) for name in na
    )
    n_store_files = sum(1 for n in na if n.endswith((".tdb", ".tdl")))
    detail = (
        f"crossmatch outputs byte-identical across reruns: {match_ok}; "
        f"night products ({len(na)} files, {n_store_files} store files, "
        f"alert + truth CSVs) byte-identical: {store_ok}"
    )
    report(8, "seeded runs are byte-identical", match_ok and store_ok, detail)
