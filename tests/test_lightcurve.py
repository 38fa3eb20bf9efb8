import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tdcat.core import DomainError, EngineConfig, SequenceError
from tdcat.crossmatch import build_zone_index, range_join
from tdcat.lightcurve import (
    POINT_DTYPE,
    CurveSet,
    LightCurve,
    points_from_match,
    query_curve,
)
from tdcat.skygen import SkyModel, build_template, observe_frame
from tdcat.store import NightStore, frame_to_store_records

from oracles import check_time_order, time_span

CFG = EngineConfig()


def make_points(epoch, mags, errors=None):
    pts = np.zeros(len(mags), dtype=POINT_DTYPE)
    pts["epoch"] = epoch
    pts["calmag"] = mags
    pts["mag_error"] = 0.02 if errors is None else errors
    pts["flux"] = 10.0 ** (-0.4 * (np.asarray(mags) - 25.0))
    return pts


# ---------------------------------------------------------------------------
# LightCurve


def test_lightcurve_accessors():
    pts = make_points(0.0, [12.0, 12.1, 11.9])
    pts["epoch"] = [0.0, 15.0, 45.0]
    lc = LightCurve(star_id=7, points=pts)
    assert lc.n_points == 3
    assert time_span(lc) == 45.0
    assert np.array_equal(lc.mags, [12.0, 12.1, 11.9])
    check_time_order(lc)
    single = LightCurve(star_id=1, points=pts[:1])
    assert time_span(single) == 0.0


def test_lightcurve_check_rejects_disorder():
    pts = make_points(0.0, [12.0, 12.1])
    pts["epoch"] = [30.0, 15.0]
    with pytest.raises(SequenceError):
        check_time_order(LightCurve(star_id=1, points=pts))


# ---------------------------------------------------------------------------
# CurveSet vs a dict-of-lists reference


def apply_plan(plan):
    """Run the same frame plan through CurveSet and a naive dict of lists."""
    population = sorted({s for _, stars in plan for s in stars} | {10**6})
    cs = CurveSet(np.array(population, dtype=np.int64))
    naive = {s: [] for s in population}
    for epoch, stars in plan:
        mags = [12.0 + 0.001 * s for s in stars]
        cs.append_points(epoch, np.array(stars, np.int64), make_points(epoch, mags))
        for s, m in zip(stars, mags):
            naive[s].append((epoch, m))
    return cs, naive


def check_against_naive(cs, naive):
    for star, expected in naive.items():
        lc = cs.curve(star)
        got = list(zip(lc.epochs, lc.mags))
        assert got == expected, f"star {star}"
    counts = cs.coverage()
    for slot, star in enumerate(cs.star_ids):
        assert counts[slot] == len(naive[int(star)])


def test_curveset_matches_naive_accumulator():
    plan = [
        (0.0, [3, 5, 9]),
        (15.0, [5]),
        (30.0, []),
        (45.0, [3, 9]),
        (60.0, [3, 5, 9]),
    ]
    cs, naive = apply_plan(plan)
    check_against_naive(cs, naive)
    assert cs.coverage().sum() == 9


@given(
    st.lists(
        st.lists(st.integers(min_value=0, max_value=19), max_size=12),
        max_size=30,
    )
)
@settings(max_examples=60, deadline=None)
def test_curveset_property_vs_naive(frame_stars):
    plan = [
        (15.0 * i, sorted(set(stars))) for i, stars in enumerate(frame_stars)
    ]
    cs, naive = apply_plan(plan)
    check_against_naive(cs, naive)


def test_interleaved_append_and_materialize():
    cs = CurveSet(np.array([1, 2, 3], np.int64))
    cs.append_points(0.0, [1, 2], make_points(0.0, [12.0, 13.0]))
    assert cs.curve(1).n_points == 1  # forces a flush
    cs.append_points(15.0, [2, 3], make_points(15.0, [13.1, 14.0]))
    cs.append_points(30.0, [1], make_points(30.0, [12.2]))
    lc = cs.curve(2)
    assert list(lc.epochs) == [0.0, 15.0]
    assert list(lc.mags) == [13.0, 13.1]
    assert list(cs.curve(1).epochs) == [0.0, 30.0]
    assert list(cs.coverage()) == [2, 2, 1]


def test_curves_iterator_filters_by_count():
    cs = CurveSet(np.array([1, 2, 3], np.int64))
    cs.append_points(0.0, [1, 2], make_points(0.0, [12.0, 13.0]))
    cs.append_points(15.0, [1], make_points(15.0, [12.1]))
    got = {lc.star_id: lc.n_points for lc in cs.curves(min_points=2)}
    assert got == {1: 2}
    got_all = {lc.star_id: lc.n_points for lc in cs.curves()}
    assert got_all == {1: 2, 2: 1}  # star 3 has no points at all


def test_append_rejects_stale_epoch():
    cs = CurveSet(np.array([1], np.int64))
    cs.append_points(15.0, [1], make_points(15.0, [12.0]))
    with pytest.raises(SequenceError):
        cs.append_points(15.0, [1], make_points(15.0, [12.0]))
    with pytest.raises(SequenceError):
        cs.append_points(0.0, [], np.zeros(0, POINT_DTYPE))


def test_append_rejects_unknown_star():
    cs = CurveSet(np.array([5, 8], np.int64))
    with pytest.raises(DomainError):
        cs.append_points(0.0, [5, 6], make_points(0.0, [12.0, 12.5]))
    with pytest.raises(DomainError):
        cs.append_points(0.0, [9], make_points(0.0, [12.0]))
    with pytest.raises(DomainError):
        cs.append_points(0.0, [4], make_points(0.0, [12.0]))


def test_curveset_validation():
    with pytest.raises(DomainError):
        CurveSet(np.array([3, 3], np.int64))
    with pytest.raises(DomainError):
        CurveSet(np.array([5, 2], np.int64))
    with pytest.raises(DomainError):
        CurveSet(np.zeros((2, 2), np.int64))
    cs = CurveSet(np.array([1], np.int64))
    with pytest.raises(DomainError):
        cs.curve(2)
    with pytest.raises(DomainError):
        cs.append_points(0.0, [1], make_points(0.0, [12.0, 13.0]))


# ---------------------------------------------------------------------------
# frame integration and store-backed curves


@pytest.fixture(scope="module")
def sky():
    model = SkyModel(seed=6, star_count=200, footprint=(10.0, 12.0, -1.0, 1.0))
    template = build_template(model, CFG)
    index = build_zone_index(template.to_records(CFG), CFG.zone_height_deg, CFG.match_radius_deg)
    return model, template, index


def observed(sky, epoch):
    model, template, index = sky
    frame = observe_frame(template, epoch, [], model, CFG)
    return frame, range_join(frame.records, index, CFG.match_radius_deg)


def test_points_from_match_columns(sky):
    frame, matches = observed(sky, 15.0)
    star_ids, pts = points_from_match(frame, matches)
    assert len(pts) == matches.n_matched
    assert np.array_equal(star_ids, matches.star_ids)
    rows = matches.matched_rows
    assert np.array_equal(pts["calmag"], frame.records["calmag"][rows])
    assert np.array_equal(pts["flux"], frame.records["flux"][rows])
    assert np.all(pts["epoch"] == 15.0)


def test_points_from_match_rejects_foreign_frame(sky):
    frame, _ = observed(sky, 15.0)
    other, other_matches = observed(sky, 30.0)
    trimmed = frame.records[:-1]

    class Stub:
        records = trimmed
        epoch = 15.0

    with pytest.raises(DomainError):
        points_from_match(Stub, other_matches)


def test_append_match_accumulates_live_curves(sky):
    model, template, index = sky
    cs = CurveSet(template.stars["id"])
    epochs = [15.0 * k for k in range(1, 9)]
    per_star = {}
    for e in epochs:
        frame, matches = observed(sky, e)
        cs.append_match(frame, matches)
        for row, sid in zip(matches.matched_rows, matches.star_ids):
            per_star.setdefault(int(sid), []).append(
                (e, frame.records["calmag"][row])
            )
    for sid, expected in per_star.items():
        lc = cs.curve(sid)
        assert list(zip(lc.epochs, lc.mags)) == expected


def test_query_curve_equals_live_accumulation(tmp_path, sky):
    model, template, index = sky
    cs = CurveSet(template.stars["id"])
    store = NightStore(tmp_path, partition_id=0)
    for k in range(1, 7):
        frame, matches = observed(sky, 15.0 * k)
        cs.append_match(frame, matches)
        store.delta_insert(frame, frame_to_store_records(frame, matches))
    store.nightly_merge()  # half from base ...
    for k in range(7, 13):
        frame, matches = observed(sky, 86400.0 + 15.0 * k)
        cs.append_match(frame, matches)
        # ... half from next-night segments
        store.delta_insert(frame, frame_to_store_records(frame, matches))

    busiest = int(cs.star_ids[np.argmax(cs.coverage())])
    live = cs.curve(busiest)
    stored = query_curve([store], busiest)
    assert np.array_equal(stored.points, live.points)

    windowed = query_curve([store], busiest, epoch_min=40.0, epoch_max=86500.0)
    mask = (live.epochs >= 40.0) & (live.epochs <= 86500.0)
    assert np.array_equal(windowed.points, live.points[mask])

    absent = query_curve([store], 10**9)
    assert absent.n_points == 0


def test_query_curve_excludes_candidates(tmp_path, sky):
    model, template, index = sky
    frame, matches = observed(sky, 15.0)
    store = NightStore(tmp_path, partition_id=0)
    store.delta_insert(frame, frame_to_store_records(frame, matches))
    rec = store.query_records()
    # candidate rows exist (unmatched detections) but never enter curves
    if matches.n_unmatched:
        assert np.any(rec["candidate"] == 1)
    lc = query_curve([store], int(matches.star_ids[0]))
    assert lc.n_points == 1
