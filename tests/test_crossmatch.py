import multiprocessing
import os
import re
import signal
import tracemalloc
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tdcat import core, crossmatch, skygen
from tdcat.core import (
    ConfigError,
    DomainError,
    EngineConfig,
    RECORD_DTYPE,
    FrameBatch,
    n_zones,
    records_from_radec,
    sort_by_zone_ra,
    zone_of,
)
from tdcat.crossmatch import POLE_CLAMP_DEG, build_zone_index, range_join
from tdcat.store import STORE_DTYPE, frame_to_store_records

from oracles import (
    brute_force_candidate_counts,
    brute_force_chord_match,
    brute_force_match,
    brute_force_match_arrays,
    haversine_deg,
    range_join_with_two_bisections,
    zone_index_by_lexsort,
    zone_index_with_one_entry_per_row,
)

CFG = EngineConfig()


def make_records(ra, dec, ids=None, imageid=1):
    ra = np.asarray(ra, dtype=np.float64)
    dec = np.asarray(dec, dtype=np.float64)
    if ids is None:
        ids = np.arange(len(ra), dtype=np.uint64)
    rec = records_from_radec(
        ids=np.asarray(ids, dtype=np.uint64), imageid=imageid, ra=ra, dec=dec,
        mag=np.full(len(ra), 12.0), mag_error=np.full(len(ra), 0.02), config=CFG,
    )
    return sort_by_zone_ra(rec)


def assert_matches_oracle(frame_rec, tpl_rec, radius, zone_height=0.01):
    """range_join must agree exactly with the O(n*m) haversine oracle."""
    index = build_zone_index(tpl_rec, zone_height, radius)
    result = range_join(frame_rec, index, radius)
    oracle = brute_force_match(
        frame_rec["ra"], frame_rec["dec"],
        tpl_rec["id"].astype(np.int64), tpl_rec["ra"], tpl_rec["dec"], radius,
    )
    got = {}
    for rid, sid, sep in result.pairs():
        got[rid] = sid
    want = {
        int(frame_rec["id"][i]): o[0] for i, o in enumerate(oracle) if o is not None
    }
    assert got == want
    want_unmatched = {
        int(frame_rec["id"][i]) for i, o in enumerate(oracle) if o is None
    }
    assert set(int(u) for u in result.unmatched_ids) == want_unmatched
    # separations agree with the independent haversine formula
    for row, sep in zip(result.matched_rows, result.separations_deg[result.matched_rows]):
        i = int(row)
        sid = got[int(frame_rec["id"][i])]
        j = int(np.nonzero(tpl_rec["id"] == sid)[0][0])
        ref = haversine_deg(
            frame_rec["ra"][i], frame_rec["dec"][i],
            tpl_rec["ra"][j], tpl_rec["dec"][j],
        )
        assert sep == pytest.approx(ref, abs=1e-10)
    return result


# ---------------------------------------------------------------------------
# index structure


def index_strips(index):
    """Each entry's strip, read back from its key ``strip * 361 + ra``."""
    return np.floor(index.key[:-1] / 361.0).astype(np.int64)


def assert_index_invariants(index, rows, zone_height, reach):
    """Each row is entered once in every strip its band touches, and nowhere else."""
    band = reach + crossmatch._WINDOW_PAD_DEG
    h = max(zone_height, band + crossmatch._WINDOW_PAD_DEG)
    assert (index.zone_height_deg, index.reach_deg) == (h, reach)
    want = sorted(
        (int(i), s)
        for i, d in zip(rows["id"], rows["dec"])
        for s in range(zone_of(max(d - band, -90.0), h), zone_of(min(d + band, 90.0), h) + 1)
    )
    assert sorted(zip(index.ids.tolist(), index_strips(index).tolist())) == want
    assert np.all(np.diff(index.key) >= 0) and index.key[-1] == np.inf
    assert np.unique(index.ids, return_counts=True)[1].max(initial=0) <= 3
    row_of = {int(i): j for j, i in enumerate(rows["id"])}
    at = [row_of[int(i)] for i in index.ids]
    assert np.array_equal(index.xyz, xyz_of(rows)[at])
    assert np.array_equal(index.key[:-1], index_strips(index) * 361.0 + rows["ra"][at])


INDEX_REACHES = {  # (strip height, reach): reaches of 0.3 to 100 strips, and of 90 degrees
    "cfg": (0.01, 0.003), "reach-is-strip": (0.01, 0.01), "reach-3.3-strips": (0.003, 0.01),
    "reach-50-strips": (0.001, 0.05), "reach-100-strips": (0.01, 1.0), "reach-90": (0.01, 90.0),
}


@pytest.mark.parametrize("reach_case", sorted(INDEX_REACHES))
@pytest.mark.parametrize("where", ["sky", "poles", "zone-edges"])
def test_zone_index_enters_each_row_in_every_strip_its_reach_touches(reach_case, where):
    h, reach = INDEX_REACHES[reach_case]
    rng = np.random.default_rng(sorted(INDEX_REACHES).index(reach_case))
    n = 400
    dec = {
        "sky": rng.uniform(-90, 90, n),
        "poles": np.concatenate([90 - rng.uniform(0, 2 * reach, n // 2 - 1), [90.0, -90.0],
                                 -90 + rng.uniform(0, 2 * reach, n // 2 - 1)]),
        "zone-edges": np.clip(  # bands ending on either side of a strip edge
            rng.integers(1, n_zones(h), n) * h - 90.0 + rng.choice([-1, 1], n) * reach
            + rng.choice([-2e-7, -1e-7, -1e-9, 0.0, 1e-9, 1e-7, 2e-7], n), -90.0, 90.0),
    }[where]
    rows = make_records(rng.uniform(0, 360, n), dec)[rng.permutation(n)]
    assert_index_invariants(build_zone_index(rows, h, reach), rows, h, reach)


def test_zone_index_empty():
    idx = build_zone_index(make_records([], []), 0.01, 0.003)
    assert len(idx.ids) == 0 and idx.key.tolist() == [np.inf]
    result = range_join(make_records([10.0], [5.0]), idx, 0.003)
    assert result.n_matched == 0
    assert result.n_unmatched == 1


def test_zone_index_structure():
    rng = np.random.default_rng(0)
    rec = make_records(rng.uniform(0, 360, 500), rng.uniform(-89, 89, 500))
    idx = build_zone_index(rec, 0.01, 0.003)
    assert n_zones(idx.zone_height_deg) == 18_000
    assert_index_invariants(idx, rec, 0.01, 0.003)
    assert 1.3 < len(idx.ids) / len(rec) < 1.9  # the band crosses a strip edge for ~60% of rows
    # zone recomputed from dec, not trusted from the input column
    tweaked = rec.copy()
    tweaked["zone"] += 5
    assert_same_index(build_zone_index(tweaked, 0.01, 0.003), idx)


@pytest.mark.parametrize("reach", [0.0, -0.003, np.nan])
def test_zone_index_refuses_a_reach_that_is_not_positive(reach):
    with pytest.raises(ConfigError, match=r"^reach_deg must be > 0, got "):
        build_zone_index(make_records([10.0], [0.0]), 0.01, reach)


def test_a_radius_past_the_index_reach_is_refused():
    index = build_zone_index(make_records([10.0], [0.0]), 0.01, 0.003)
    frame = make_records([10.0], [0.0])
    with pytest.raises(ConfigError, match=r"^radius_deg 0\.0031 is past the index's reach_deg "
                       r"0\.003$"):
        range_join(frame, index, 0.0031)
    assert range_join(frame, index, 0.003).n_matched == 1


def assert_same_index(got, want):
    """Two zone indexes hold the same arrays: bytes, dtypes, shapes and flags."""
    assert (got.zone_height_deg, got.reach_deg) == (want.zone_height_deg, want.reach_deg)
    for name in ("ids", "xyz", "key"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a.dtype, a.shape, a.flags) == (b.dtype, b.shape, b.flags), name
        assert a.tobytes() == b.tobytes(), name


def _index_input(case):
    """Catalog rows for one index case, and the strip height and reach to index them at."""
    rng = np.random.default_rng(12)
    n = 600
    ordered = make_records(rng.uniform(0, 360, n), rng.uniform(-89, 89, n))
    shuffle = rng.permutation(n)
    # 30 rows at one ra inside one 0.01-degree zone, and 30 copies of one row
    tied = make_records(
        np.r_[rng.uniform(0, 360, n), np.full(30, 42.0), np.full(30, 7.5)],
        np.r_[rng.uniform(-89, 89, n), -5.0 + rng.uniform(0.0, 0.009, 30), np.full(30, 3.25)],
    )
    fine_order = ordered[np.lexsort((ordered["ra"], zone_of(ordered["dec"], 0.001)))]
    big_ids = ordered.copy()
    big_ids["id"] = (np.uint64(1) << np.uint64(63)) | rng.permutation(n).astype(np.uint64)
    # rows whose strip keys round to one float though their ra differ, the row
    # reaching up from the strip below with the largest ra
    one_key = make_records([100.0 + 1e-11, 100.0, 100.0 - 1e-11], [0.0099, 0.0101, 0.0105])
    return {
        "ordered": (ordered, 0.01, 0.003),
        "reversed": (ordered[::-1], 0.01, 0.003),
        "shuffled": (ordered[shuffle], 0.01, 0.003),
        "ties-shuffled": (tied[rng.permutation(len(tied))], 0.01, 0.003),
        "ties-ordered": (tied, 0.01, 0.003),
        "uint64-ids-shuffled": (big_ids[shuffle], 0.01, 0.003),
        "template-rows": (skygen.build_template(skygen.SkyModel(seed=4, star_count=n)).stars,
                          0.01, 0.003),
        "empty": (ordered[:0], 0.01, 0.003),
        "one-row": (ordered[5:6], 0.01, 0.003),
        "one-row-strided": (ordered[::n], 0.01, 0.003),
        "180000-zones-ordered": (fine_order, 0.001, 0.0005),
        "180000-zones-shuffled": (ordered[shuffle], 0.001, 0.0005),
        "reach-50-strips-shuffled": (ordered[shuffle], 0.001, 0.05),
        "keys-rounded-together": (one_key, 0.01, 0.003),
    }[case]


INDEX_CASES = [
    "ordered", "reversed", "shuffled", "ties-shuffled", "ties-ordered", "uint64-ids-shuffled",
    "template-rows", "empty", "one-row", "one-row-strided", "180000-zones-ordered",
    "180000-zones-shuffled", "reach-50-strips-shuffled", "keys-rounded-together",
]


@pytest.mark.parametrize("case", INDEX_CASES)
def test_zone_index_gives_the_lexsort_index(case):
    rows, h, reach = _index_input(case)
    got = build_zone_index(rows, h, reach)
    assert_same_index(got, zone_index_by_lexsort(rows, h, reach))
    if case == "keys-rounded-together":  # the case holds what it says
        assert len(np.unique(got.key[:-1])) < len(got.key) - 1


def test_an_ordered_template_is_indexed_with_one_merge_of_its_runs(monkeypatch):
    """The rows are not sorted; one stable sort of the entries' keys merges the strips' runs."""
    sky = skygen.build_template(skygen.SkyModel(seed=5, star_count=5000), CFG)
    subset = skygen.TemplateCatalog.from_records(sky.to_records(CFG)[np.arange(5000) % 9 != 0], CFG)
    want = [sky.index, subset.index]  # built on first use, before the sorts are recorded
    sorts, argsort = [], np.argsort

    def recorded(a, *args, **kwargs):
        sorts.append((a.dtype, kwargs.get("kind"), len(a)))
        return argsort(a, *args, **kwargs)

    def no_lexsort(*args, **kwargs):
        raise AssertionError("an ordered template was lexsorted")

    monkeypatch.setattr(np, "argsort", recorded)
    monkeypatch.setattr(np, "lexsort", no_lexsort)
    for tpl, index in zip((sky, subset), want):
        sorts.clear()
        got = build_zone_index(tpl.stars, CFG.zone_height_deg, CFG.match_radius_deg)
        assert_same_index(got, index)
        assert sorts == [(np.dtype(np.float64), "stable", len(got.ids))]


@pytest.mark.parametrize("case", ["empty_frame", "empty_frame_empty_index", "no_candidates"])
def test_edge_joins_return_exact_arrays(case):
    """Empty frames and empty candidate sets go through the general path."""
    tpl = make_records([10.0, 10.001], [5.0, 5.0], ids=[7, 8])
    frame = make_records([], [])
    # ids, star_ids, unmatched_ids, matched_rows, unmatched_rows,
    # ambiguous_count, n_frame
    want = ([], [], [], [], [], 0, 0)
    if case == "empty_frame_empty_index":
        tpl = make_records([], [])
    elif case == "no_candidates":
        frame = make_records([200.0, 201.0], [-40.0, -40.0], ids=[3, 4])
        want = ([3, 4], [-1, -1], [3, 4], [], [0, 1], 0, 2)
    result = range_join(frame, build_zone_index(tpl, 0.01, 0.003), 0.003)
    names = ("ids", "star_ids", "unmatched_ids", "matched_rows",
             "unmatched_rows")
    dtypes = (np.uint64, np.int64, np.uint64, np.int64, np.int64)
    for name, dtype, values in zip(names, dtypes, want):
        got = getattr(result, name)
        assert got.dtype == dtype and got.ndim == 1, name
        assert got.tolist() == values, name
    assert result.separations_deg.dtype == np.float64
    assert result.separations_deg.shape == (want[6],)
    assert np.all(np.isnan(result.separations_deg))  # no row has a star in radius
    assert result.ambiguous_count == want[5]
    assert result.n_frame == want[6]


def test_wide_zone_reach_stays_small_in_memory():
    """dz = 50 zone offsets must not hold (2*dz + 1) lookups per row at once."""
    rng = np.random.default_rng(11)
    n = 20_000
    t_ra, t_dec = rng.uniform(100, 110, n), rng.uniform(10, 20, n)
    frame = make_records(
        t_ra + rng.normal(0, 1e-4, n), t_dec + rng.normal(0, 1e-4, n),
        ids=np.arange(n) + (1 << 20),
    )
    index = build_zone_index(make_records(t_ra, t_dec), 0.001, 0.05)
    assert len(index.ids) <= 3 * n
    tracemalloc.start()
    try:
        result = range_join(frame, index, 0.05)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.n_matched == n
    assert peak < 16 * 2**20, f"range_join peak {peak / 2**20:.1f} MiB"


# ---------------------------------------------------------------------------
# randomized oracle equivalence


def test_randomized_instances_match_oracle():
    """Dense uniform fields of mixed sizes, zero tolerance vs brute force."""
    rng = np.random.default_rng(2024)
    for trial in range(12):
        n = int(rng.integers(1, 400))
        m = int(rng.integers(1, 400))
        # compact patch so matches actually occur
        ra0 = rng.uniform(0, 359)
        dec0 = rng.uniform(-60, 60)
        frame = make_records(
            (ra0 + rng.uniform(0, 0.5, n)) % 360.0,
            np.clip(dec0 + rng.uniform(0, 0.5, n), -90, 90),
        )
        tpl = make_records(
            (ra0 + rng.uniform(0, 0.5, m)) % 360.0,
            np.clip(dec0 + rng.uniform(0, 0.5, m), -90, 90),
        )
        radius = float(rng.choice([0.003, 0.01, 0.05]))
        assert_matches_oracle(frame, tpl, radius)


def test_zone_boundary_cases_match_oracle():
    """Sources within float epsilon of strip boundaries on both sides."""
    rng = np.random.default_rng(7)
    h = 0.01
    boundaries = rng.integers(-8000, 17000, 40) * h - 90.0
    eps = np.array([-1e-7, -1e-9, 0.0, 1e-9, 1e-7] * 8)
    dec = np.clip(boundaries + eps, -90.0, 90.0)
    ra = rng.uniform(10, 10.01, len(dec))
    frame = make_records(ra, dec)
    jitter = rng.normal(0, 5e-4, len(dec))
    tpl = make_records(ra, np.clip(dec + jitter, -90, 90))
    assert_matches_oracle(frame, tpl, 0.003, zone_height=h)


def test_ra_seam_cases_match_oracle():
    """Pairs straddling RA 0/360 must still match across the seam."""
    rng = np.random.default_rng(8)
    n = 120
    ra = np.concatenate([rng.uniform(359.995, 360.0, n // 2),
                         rng.uniform(0.0, 0.005, n // 2)])
    dec = rng.uniform(-30, 30, n)
    frame = make_records(ra, dec)
    shift = rng.normal(0, 1.5e-3, n)
    tpl = make_records((ra + shift) % 360.0, dec)
    result = assert_matches_oracle(frame, tpl, 0.003)
    assert result.n_matched > n // 2  # the seam did not suppress matches


def test_near_pole_cases_match_oracle():
    """Above the pole clamp the RA window degenerates to a full scan."""
    rng = np.random.default_rng(9)
    n = 80
    dec = np.concatenate([
        rng.uniform(89.9, 90.0, n // 2),
        rng.uniform(-90.0, -89.9, n // 2),
    ])
    ra = rng.uniform(0, 360, n)
    frame = make_records(ra, dec)
    tpl = make_records(
        rng.uniform(0, 360, n),
        np.clip(dec + rng.normal(0, 5e-4, n), -90, 90),
    )
    assert_matches_oracle(frame, tpl, 0.01)
    assert POLE_CLAMP_DEG == 89.9


@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_random_fields_property(seed):
    rng = np.random.default_rng(seed)
    n, m = int(rng.integers(0, 60)), int(rng.integers(0, 60))
    frame = make_records(rng.uniform(0, 360, n), rng.uniform(-90, 90, n))
    tpl = make_records(rng.uniform(0, 360, m), rng.uniform(-90, 90, m))
    assert_matches_oracle(frame, tpl, float(rng.uniform(0.001, 5.0)))


def crowded_field(rng, ra0, dec0, sigma, n_stars, duplicate_every):
    """Frame and template around (ra0, dec0), positions drawn on the sphere.

    Every ``duplicate_every``-th star also appears a second time at exactly
    the same position under another id (an exact tie); each frame row sits
    near a random star, and about one row in eight sits nowhere in
    particular, so most fields mix one-candidate, many-candidate and
    unmatched rows in row order.
    """
    ra0r, dec0r = np.radians(ra0), np.radians(dec0)
    centre = np.array(
        [np.cos(dec0r) * np.cos(ra0r), np.cos(dec0r) * np.sin(ra0r), np.sin(dec0r)]
    )

    def around(points, spread):
        v = points + rng.normal(0, np.radians(spread), points.shape)
        v /= np.linalg.norm(v, axis=1)[:, None]
        return np.degrees(np.arctan2(v[:, 1], v[:, 0])) % 360.0, np.degrees(
            np.arcsin(np.clip(v[:, 2], -1.0, 1.0))
        )

    s_ra, s_dec = around(np.tile(centre, (n_stars, 1)), sigma)
    dup = np.arange(0, n_stars, duplicate_every)
    t_ra, t_dec = np.concatenate([s_ra, s_ra[dup]]), np.concatenate([s_dec, s_dec[dup]])
    ids = rng.permutation(len(t_ra)).astype(np.uint64) * 7 + 3
    tpl = make_records(t_ra, t_dec, ids=ids)

    near = rng.integers(0, n_stars, n_stars)
    sra, sdec = np.radians(s_ra[near]), np.radians(s_dec[near])
    star_xyz = np.column_stack(
        [np.cos(sdec) * np.cos(sra), np.cos(sdec) * np.sin(sra), np.sin(sdec)]
    )
    f_ra, f_dec = around(star_xyz, sigma / 200.0)
    stray = rng.random(n_stars) < 1 / 8
    f_ra[stray], f_dec[stray] = around(np.tile(centre, (stray.sum(), 1)), sigma)
    frame = make_records(f_ra, f_dec, ids=np.arange(n_stars, dtype=np.uint64) + (1 << 40))
    return frame, tpl


def assert_result_arrays_match_oracle(frame, tpl, radius, zone_height, reach=None):
    """Every MatchResult array, dtype included, against the haversine scan,
    joined at ``radius`` against an index reaching ``reach`` (``radius`` by default)."""
    index = build_zone_index(tpl, zone_height, reach or radius)
    result = range_join(frame, index, radius)
    tpl_ids = tpl["id"].astype(np.int64)
    oracle = brute_force_match_arrays(
        frame["ra"], frame["dec"], tpl_ids, tpl["ra"], tpl["dec"], radius
    )
    counts = brute_force_candidate_counts(
        frame["ra"], frame["dec"], tpl["ra"], tpl["dec"], radius
    )
    hit = np.array([o is not None for o in oracle], dtype=bool)
    rows = np.flatnonzero(hit)
    expected = {
        "ids": frame["id"].astype(np.uint64),
        "star_ids": np.array([o[0] if o else -1 for o in oracle], dtype=np.int64),
        "unmatched_ids": frame["id"][~hit].astype(np.uint64),
        "matched_rows": rows.astype(np.int64),
        "unmatched_rows": np.flatnonzero(~hit).astype(np.int64),
    }
    for name, want in expected.items():
        got = getattr(result, name)
        assert got.dtype == want.dtype, name
        assert np.array_equal(got, want), name
    assert result.separations_deg.dtype == np.float64
    np.testing.assert_allclose(
        result.separations_deg[rows], [oracle[i][1] for i in rows], rtol=0, atol=1e-10
    )
    assert np.all(np.isnan(result.separations_deg[~hit]))
    assert result.ambiguous_count == int(np.count_nonzero(counts > 1))
    assert result.n_frame == len(frame)
    return result, counts


CROWDED_CENTRES = {
    "ra-seam": (0.0, 20.0),
    "north-pole": (137.0, 89.999),
    "south-pole": (251.0, -89.999),
    "mid-sky": (120.0, -35.0),
}


@pytest.mark.parametrize("centre", sorted(CROWDED_CENTRES))
@pytest.mark.parametrize("radius,zone_height", [(0.002, 0.01), (0.002, 0.0005), (0.01, 0.004)])
def test_single_and_multi_candidate_rows_match_oracle(centre, radius, zone_height):
    """Rows with one candidate and rows needing the tie rule, interleaved."""
    ra0, dec0 = CROWDED_CENTRES[centre]
    rng = np.random.default_rng([int(radius * 1e4), int(zone_height * 1e4), int(ra0)])
    for _ in range(3):
        frame, tpl = crowded_field(rng, ra0, dec0, 5 * radius, 160, duplicate_every=5)
        result, counts = assert_result_arrays_match_oracle(frame, tpl, radius, zone_height)
        many = counts > 1
        # the field really interleaves both kinds of row
        assert np.any(many[:-1] & (counts[1:] == 1)) and np.any((counts[:-1] == 1) & many[1:])
        assert result.n_unmatched > 0


@pytest.mark.parametrize("centre", sorted(CROWDED_CENTRES))
def test_every_row_ambiguous_matches_oracle(centre):
    """Every star duplicated: each matched row is decided by the tie rule."""
    ra0, dec0 = CROWDED_CENTRES[centre]
    rng = np.random.default_rng(int(ra0) + 1)
    frame, tpl = crowded_field(rng, ra0, dec0, 0.01, 120, duplicate_every=1)
    result, counts = assert_result_arrays_match_oracle(frame, tpl, 0.002, 0.01)
    assert result.n_matched > 0
    assert result.ambiguous_count == result.n_matched
    assert np.all(counts[result.matched_rows] >= 2)


JOIN_REACHES = [(0.003, 0.01), (0.01, 0.003), (0.05, 0.001), (90.0, 0.01)]  # (reach, strip)


@pytest.mark.parametrize("reach,zone_height", JOIN_REACHES)
@pytest.mark.parametrize("field", [*sorted(CROWDED_CENTRES), "empty-frame", "empty-template"])
def test_join_at_or_below_the_reach_matches_oracle(reach, zone_height, field):
    """Joins at the index's reach and at a quarter of it, one lookup per row."""
    ra0, dec0 = CROWDED_CENTRES.get(field, CROWDED_CENTRES["mid-sky"])
    rng = np.random.default_rng([int(reach * 1e3), int(zone_height * 1e3), int(ra0)])
    frame, tpl = crowded_field(rng, ra0, dec0, min(reach, 30.0), 150, duplicate_every=4)
    if field == "empty-frame":
        frame = frame[:0]
    elif field == "empty-template":
        tpl = tpl[:0]
    for radius in (reach, reach / 4):
        result, _ = assert_result_arrays_match_oracle(frame, tpl, radius, zone_height, reach)
        assert (result.n_matched > 0) == (not field.startswith("empty"))


# ---------------------------------------------------------------------------
# tie-breaking and ambiguity


def test_exact_tie_breaks_to_smaller_id():
    # two template stars symmetric about the frame record in RA
    frame = make_records([180.0], [0.0])
    tpl = make_records([180.0 - 1e-3, 180.0 + 1e-3], [0.0, 0.0], ids=[41, 17])
    index = build_zone_index(tpl, 0.01, 0.003)
    result = range_join(frame, index, 0.003)
    assert result.n_matched == 1
    assert int(result.star_ids[0]) == 17


def test_ambiguity_counts_multi_candidate_records():
    # a frame record is ambiguous when several template stars sit in radius
    frame = make_records([100.0, 200.0], [10.0, 10.0])
    tpl = make_records([100.0 - 1e-3, 100.0 + 1e-3, 200.0], [10.0, 10.0, 10.0],
                       ids=[1, 2, 3])
    index = build_zone_index(tpl, 0.01, 0.003)
    result = range_join(frame, index, 0.003)
    assert result.n_matched == 2
    assert result.ambiguous_count == 1


def test_shared_star_is_not_ambiguous():
    # two frame records nearest the same lone star: matched twice, but each
    # record saw a single candidate, so no ambiguity is flagged
    frame = make_records([100.0, 100.0006], [10.0, 10.0])
    tpl = make_records([100.0003], [10.0], ids=[5])
    index = build_zone_index(tpl, 0.01, 0.003)
    result = range_join(frame, index, 0.003)
    assert result.n_matched == 2
    assert set(result.star_ids) == {5}
    assert result.ambiguous_count == 0


def test_matched_rows_are_frame_ordered():
    rng = np.random.default_rng(3)
    frame = make_records(rng.uniform(50, 50.2, 100), rng.uniform(-5, -4.8, 100))
    tpl = make_records(rng.uniform(50, 50.2, 100), rng.uniform(-5, -4.8, 100))
    result = range_join(frame, build_zone_index(tpl, 0.01, 0.05), 0.05)
    assert np.all(np.diff(result.matched_rows) > 0)
    assert np.all(np.diff(result.unmatched_rows) > 0)
    together = np.sort(np.concatenate([result.matched_rows, result.unmatched_rows]))
    assert np.array_equal(together, np.arange(len(frame)))


def test_radius_validation():
    tpl = make_records([10.0], [0.0])
    index = build_zone_index(tpl, 0.01, 0.003)
    frame = make_records([10.0], [0.0])
    for bad in (0.0, -1.0, 90.1):
        with pytest.raises(ConfigError):
            range_join(frame, index, bad)


def test_generous_radius_matches_everything():
    rng = np.random.default_rng(11)
    frame = make_records(rng.uniform(0, 360, 50), rng.uniform(-90, 90, 50))
    tpl = make_records(rng.uniform(0, 360, 20), rng.uniform(-90, 90, 20))
    result = range_join(frame, build_zone_index(tpl, 0.01, 90.0), 90.0)
    # a 90 degree radius cannot reach antipodal stars, but with 20 spread
    # template stars every frame record has someone within 90 degrees
    assert result.n_matched == 50


def test_oracle_implementations_agree():
    # the vectorized oracle must stay interchangeable with the pure-python
    # one (same nearest-in-radius, ties-to-smaller-id contract), since the
    # big randomized sweeps rely on the fast version
    rng = np.random.default_rng(77)
    for _ in range(5):
        n, m = rng.integers(1, 60, 2)
        f_ra = rng.uniform(0, 0.2, n) % 360.0
        f_dec = rng.uniform(-0.1, 0.1, n)
        t_ra = rng.uniform(0, 0.2, m)
        t_dec = rng.uniform(-0.1, 0.1, m)
        ids = np.arange(m, dtype=np.int64)
        rng.shuffle(ids)
        slow = brute_force_match(f_ra, f_dec, ids, t_ra, t_dec, 0.05)
        fast = brute_force_match_arrays(f_ra, f_dec, ids, t_ra, t_dec, 0.05)
        assert len(slow) == len(fast) == n
        for s, f in zip(slow, fast):
            if s is None:
                assert f is None
            else:
                assert f is not None and s[0] == f[0]
                assert f[1] == pytest.approx(s[1], rel=1e-12, abs=1e-15)


# ---------------------------------------------------------------------------
# declination bands at zone edges, and bad coordinates


def zone_edge(k, h):
    """The smallest dec that ``zone_of`` puts in zone ``k``."""
    lo, hi = k * h - 90.0 - 1e-6, k * h - 90.0 + 1e-6
    assert zone_of(lo, h) == k - 1 and zone_of(hi, h) == k
    while np.nextafter(lo, hi) != hi:
        mid = lo + (hi - lo) / 2
        lo, hi = (lo, mid) if zone_of(mid, h) >= k else (mid, hi)
    return hi


def decs_with_band_edge_at(edge, radius, sign):
    """Query decs whose computed ``dec + sign * radius`` is at ``edge`` or next to it.

    The dec whose band edge lands closest to ``edge`` (exactly on it when a
    float allows), and its two neighbours on either side.
    """
    dec = edge - sign * radius
    for _ in range(16):
        at = dec + sign * radius
        if at == edge:
            break
        step = np.nextafter(dec, np.inf if at < edge else -np.inf)
        if abs(step + sign * radius - edge) >= abs(at - edge):
            break
        dec = step
    out = [dec]
    for direction in (np.inf, -np.inf):
        d = dec
        for _ in range(2):
            d = np.nextafter(d, direction)
            out.append(d)
    return [d for d in out if -90.0 <= d <= 90.0]


def band_edge_field(h, radius, rng):
    """Rows whose band edge ``dec +- r`` sits on a zone edge, 1 ulp inside it
    and past it, next to the RA seam, both poles, mid-sky and the equator.

    Each row has stars of its own on its meridian (and 1e-10 or 3e-10 deg of
    ra to either side): stars on the far side of the zone edge, one or two
    ulps past it, so at the radius to within rounding; half of the rows also
    get stars just inside the edge.  Half of the far-side stars carry x/y/z
    for a dec 1e-11 deg nearer the row than their ``dec`` column, far below
    the band's pad, so the chord puts them inside the radius for certain.
    """
    nz = n_zones(h)
    regions = [  # (ra the rows are spread around, zones whose lower edges are used)
        (123.456, [nz // 2 + 3, nz // 2 + 4]),
        (250.0, [zone_of(14.3, h), zone_of(45.3, h)]),
        (0.0, [zone_of(20.1, h), zone_of(-30.1, h)]),
        (77.0, sorted({nz - 1, zone_of(90.0 - 1.5 * radius, h)})),
        (301.0, sorted({1, zone_of(-90.0 + 1.5 * radius, h) + 1})),
    ]
    f_ra, f_dec, t_ra, t_dec, t_xyz_dec = [], [], [], [], []
    for centre, zones in regions:
        rows = []
        for k in zones:
            edge = zone_edge(k, h)
            below = np.nextafter(edge, -np.inf)
            under = [np.nextafter(below, -np.inf), below]  # zone k - 1
            over = [edge, np.nextafter(edge, np.inf)]  # zone k
            for sign in (-1.0, 1.0):
                beyond, within = (under, over) if sign < 0 else (over, under)
                for dec in decs_with_band_edge_at(edge, radius, sign):
                    stars = [(d, d - sign * 1e-11 * rng.integers(0, 2)) for d in beyond]
                    if rng.random() < 0.5:
                        stars += [(d, d) for d in within]
                    rows.append((dec, stars))
        for i, (dec, stars) in enumerate(rows):
            spacing = 4.0 * radius / np.cos(np.radians(min(abs(dec), 89.9)))
            ra = (centre + (i - len(rows) // 2) * spacing) % 360.0
            f_ra.append(ra)
            f_dec.append(dec)
            for sd, xyz_dec in stars:
                for off in (0.0, 1e-10, -1e-10, 3e-10, -3e-10):
                    t_ra.append((ra + off) % 360.0)
                    t_dec.append(sd)
                    t_xyz_dec.append(float(np.clip(xyz_dec, -90.0, 90.0)))
    frame = make_records(f_ra, f_dec, ids=np.arange(len(f_ra), dtype=np.uint64) + 5000)
    tpl = records_from_radec(
        ids=rng.permutation(len(t_ra)).astype(np.uint64) * 3 + 1, imageid=0, ra=t_ra,
        dec=t_xyz_dec, mag=np.full(len(t_ra), 12.0), mag_error=np.full(len(t_ra), 0.02),
        config=CFG,
    )
    tpl["dec"] = t_dec  # the index zones each star by this column
    return frame, tpl


def xyz_of(rows):
    return np.column_stack([rows["x"], rows["y"], rows["z"]])


@pytest.mark.parametrize("h,radius", [(0.01, 0.003), (0.01, 0.01), (0.01, 0.04), (0.001, 0.05)])
def test_zone_band_edges_match_every_pair_oracle(h, radius):
    """dz = 1 (twice), 4 and 50: the join finds what the all-pairs chord scan finds."""
    rng = np.random.default_rng([int(h * 1e4), int(radius * 1e4)])
    frame, tpl = band_edge_field(h, radius, rng)
    result = range_join(frame, build_zone_index(tpl, h, radius), radius)
    want_star, want_sep, want_count = brute_force_chord_match(
        xyz_of(frame), tpl["id"], xyz_of(tpl), radius
    )
    assert np.array_equal(result.star_ids, want_star)
    assert result.ambiguous_count == int(np.count_nonzero(want_count > 1))
    np.testing.assert_allclose(result.separations_deg, want_sep, rtol=1e-12, atol=0)
    # the field holds rows whose match sits past the unpadded band [dec - r, dec + r]
    star_zone = dict(zip(tpl["id"].astype(np.int64), zone_of(tpl["dec"], h)))
    dec = frame["dec"][result.matched_rows]
    lo = zone_of(np.clip(dec - radius, -90, 90), h)
    hi = zone_of(np.clip(dec + radius, -90, 90), h)
    z = np.array([star_zone[s] for s in result.star_ids[result.matched_rows]])
    assert np.any((z < lo) | (z > hi))
    assert result.n_unmatched > 0


def in_dtype(rows, dtype):
    """The same rows in ``dtype``; fields ``rows`` lacks are zero."""
    out = np.zeros(len(rows), dtype)
    for name in out.dtype.names:
        if name in rows.dtype.names:
            out[name] = rows[name]
    return out


@pytest.mark.parametrize("catalog_rows", [True, False])
@pytest.mark.parametrize("name,bad", [("ra", np.nan), ("ra", 360.0), ("ra", -1e-12),
                                      ("dec", np.nan), ("dec", 90.5)])
def test_range_join_refuses_an_off_sky_row(catalog_rows, name, bad):
    """In catalog rows and in store rows (``STORE_DTYPE``, as replay feeds the tracker)."""
    tpl = make_records([10.0, 10.001, 0.0005], [0.0, 0.0005, 1.0])
    frame = make_records([10.0, 10.0005, 10.001, 10.0002, 359.9999], [0.0, 0.0, 0.0, 0.001, 1.0])
    frame[name][2] = bad
    if not catalog_rows:
        frame = in_dtype(frame, STORE_DTYPE)
    rule = "[0, 360)" if name == "ra" else "[-90, 90]"
    with pytest.raises(DomainError, match=f"^row 2: {name} {re.escape(repr(bad))} is not in "
                       f"{re.escape(rule)}$"):
        range_join(frame, build_zone_index(tpl, 0.01, 0.003), 0.003)


XYZ_REFUSED = {
    "no-xyz": [("id", "<u8"), ("ra", "<f8"), ("dec", "<f8")],
    "xyz-apart": [("x", "<f8"), ("id", "<u8"), ("ra", "<f8"), ("y", "<f8"), ("dec", "<f8"),
                  ("z", "<f8")],
    "xyz-big-endian": [(n, ">f8" if n in ("x", "y", "z") else t) for n, t in RECORD_DTYPE.descr],
}


@pytest.mark.parametrize("layout", sorted(XYZ_REFUSED))
def test_join_and_index_refuse_rows_without_adjacent_native_xyz(layout):
    rows = make_records([10.0, 10.001], [0.0, 0.0005])
    other = in_dtype(rows, XYZ_REFUSED[layout])
    refusal = "^rows must carry x, y and z as adjacent native float64 fields$"
    with pytest.raises(DomainError, match=refusal):
        range_join(other, build_zone_index(rows, 0.01, 0.003), 0.003)
    with pytest.raises(DomainError, match=refusal):
        build_zone_index(other, 0.01, 0.003)


# ---------------------------------------------------------------------------
# row blocks and the pair budget

MATCH_ARRAYS = ("ids", "star_ids", "separations_deg")


def assert_same_result(got, want):
    for name in MATCH_ARRAYS:
        g, w = getattr(got, name), getattr(want, name)
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes(), name
    assert (got.ambiguous_count, got.n_frame) == (want.ambiguous_count, want.n_frame)


def join_and_store_rows(frame, tpl, radius):
    result = range_join(frame, build_zone_index(tpl, 0.01, radius), radius)
    return result, frame_to_store_records(FrameBatch(3, 8, 120.0, frame), result)


@pytest.mark.parametrize("centre", sorted(CROWDED_CENTRES))
def test_any_blocking_gives_the_same_bytes(monkeypatch, four_lanes, centre):
    """Blocks of 1, 7 and 1,000 rows, and a pair budget that halves every block."""
    ra0, dec0 = CROWDED_CENTRES[centre]
    rng = np.random.default_rng([int(ra0), 17])
    frame, tpl = crowded_field(rng, ra0, dec0, 0.02, 600, duplicate_every=2)
    radius = 0.002
    monkeypatch.setattr(core, "_BLOCK_ROWS", len(frame))
    want, want_rows = join_and_store_rows(frame, tpl, radius)
    for block_rows, budget in [(1, None), (7, None), (1000, None), (len(frame), 3)]:
        monkeypatch.setattr(core, "_BLOCK_ROWS", block_rows)
        monkeypatch.setattr(crossmatch, "_PAIR_BUDGET", budget or crossmatch._PAIR_BUDGET)
        got, got_rows = join_and_store_rows(frame, tpl, radius)
        assert_same_result(got, want)
        assert got_rows.dtype == want_rows.dtype and got_rows.tobytes() == want_rows.tobytes()

    # ambiguous rows sit on both sides of some 7-row block edge
    counts = brute_force_candidate_counts(frame["ra"], frame["dec"], tpl["ra"], tpl["dec"], radius)
    assert want.ambiguous_count == int(np.count_nonzero(counts > 1)) > 0
    n_blocks = -(-len(frame) // 7)
    edges = [k * len(frame) // n_blocks for k in range(1, n_blocks)]
    assert any(counts[e - 1] > 1 and counts[e] > 1 for e in edges)


def test_every_row_is_written_by_its_own_block(monkeypatch, four_lanes):
    """Blocks of 5 rows and a pair budget that halves each: every row's star id
    and separation, unmatched rows included, are the chord oracle's and a
    one-block join's bytes, and ``ids`` is the frame's own column."""
    rng = np.random.default_rng(34)
    frame, tpl = crowded_field(rng, 120.0, -35.0, 0.02, 600, duplicate_every=2)
    index, radius = build_zone_index(tpl, 0.01, 0.002), 0.002
    monkeypatch.setattr(core, "_BLOCK_ROWS", len(frame))
    whole = range_join(frame, index, radius)
    monkeypatch.setattr(core, "_BLOCK_ROWS", 5)
    monkeypatch.setattr(crossmatch, "_PAIR_BUDGET", 4)
    got = range_join(frame, index, radius)
    assert_same_result(got, whole)
    want_star, want_sep, want_count = brute_force_chord_match(
        xyz_of(frame), tpl["id"], xyz_of(tpl), radius
    )
    assert got.star_ids.dtype == np.int64 and got.star_ids.tobytes() == want_star.tobytes()
    assert np.array_equal(np.isnan(got.separations_deg), want_star == -1)
    np.testing.assert_allclose(got.separations_deg, want_sep, rtol=1e-12, atol=0)
    assert got.ambiguous_count == int(np.count_nonzero(want_count > 1)) > 0
    assert 0 < got.n_unmatched < len(frame)
    assert np.shares_memory(got.ids, frame) and got.ids.tobytes() == frame["id"].tobytes()


def test_off_sky_rows_in_several_blocks_name_the_row_one_block_names(monkeypatch, four_lanes):
    tpl = make_records(np.linspace(10.0, 10.5, 40), np.zeros(40))
    frame = make_records(np.linspace(10.0, 10.5, 40) + 1e-4, np.zeros(40))
    index = build_zone_index(tpl, 0.01, 0.003)
    good = frame.copy()
    frame["ra"][[33, 21, 9]] = [-1.0, 360.0, np.nan]
    for block_rows in (4, 40):
        monkeypatch.setattr(core, "_BLOCK_ROWS", block_rows)
        with pytest.raises(DomainError, match=r"^row 9: ra nan is not in \[0, 360\)$"):
            range_join(frame, index, 0.003)
    frame["dec"][30] = 91.0  # the whole-frame dec check comes before any block's ra check
    monkeypatch.setattr(core, "_BLOCK_ROWS", 4)
    with pytest.raises(DomainError, match=r"^row 30: dec 91.0 is not in \[-90, 90\]$"):
        range_join(frame, index, 0.003)
    # the pool still serves the next call
    got = range_join(good, index, 0.003)
    monkeypatch.setattr(core, "_BLOCK_ROWS", 40)
    assert_same_result(got, range_join(good, index, 0.003))


def test_a_crowded_pile_is_joined_in_halves_in_bounded_memory(monkeypatch):
    """2,000 rows within 0.36 arcsec of each other, against an index of themselves."""
    rng = np.random.default_rng(8)
    pile = make_records(150.0 + rng.uniform(0, 5e-5, 2000), 20.0 + rng.uniform(0, 5e-5, 2000))
    index = build_zone_index(pile, CFG.zone_height_deg, CFG.match_radius_deg)
    tracemalloc.start()
    try:
        got = range_join(pile, index, CFG.match_radius_deg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the 4e6 pairs expanded at once peaked at ~321 MiB; in halves, ~21 MiB
    assert peak < 32 * 2**20
    monkeypatch.setattr(crossmatch, "_PAIR_BUDGET", 1 << 62)
    want = range_join(pile, index, CFG.match_radius_deg)
    assert_same_result(got, want)
    assert want.ambiguous_count == want.n_matched == 2000


def join_in_a_child(frame, tpl):
    signal.alarm(60)  # a hang ends the child, and with it the parent's wait
    result = range_join(frame, build_zone_index(tpl, 0.01, 0.002), 0.002)
    signal.alarm(0)
    return result, core._rows_pool[0] == os.getpid()


def test_a_forked_child_joins_on_its_own_pool(monkeypatch, four_lanes):
    monkeypatch.setattr(core, "_BLOCK_ROWS", 7)
    frame, tpl = crowded_field(np.random.default_rng(4), 120.0, -35.0, 0.01, 300, 3)
    want = range_join(frame, build_zone_index(tpl, 0.01, 0.002), 0.002)
    assert core._rows_pool[2] is not None  # the parent's pool, inherited by the fork
    fork = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(1, mp_context=fork) as pool:
        got, own_pool = pool.submit(join_in_a_child, frame, tpl).result(timeout=120)
    assert own_pool
    assert_same_result(got, want)


# ---------------------------------------------------------------------------
# the join against the two-bisection join it replaced


def survey_case(rng, density, leave_out_every=0):
    """A frame of a ``density`` sky against its template, every 9th star left out or not."""
    model = skygen.SkyModel(seed=int(rng.integers(1 << 30)),
                            star_count=skygen.DENSITY_PRESETS[density],
                            footprint=skygen.DEFAULT_FOOTPRINT)
    sky = skygen.build_template(model, CFG)
    tpl = sky.to_records(CFG)
    if leave_out_every:
        tpl = tpl[np.arange(len(tpl)) % leave_out_every != 0]
    frame = skygen.observe_frame(sky, 3 * CFG.cadence_s, [], model, CFG).records
    return frame, tpl, (0.0005, CFG.match_radius_deg, 0.02)


def one_star_case(rng):
    """Rows on the one star, past it and before it in RA, and in the zones beside it."""
    tpl = make_records([180.0], [0.004])
    ra, dec = 180.0 + rng.uniform(-0.01, 0.01, 300), 0.004 + rng.uniform(-0.01, 0.01, 300)
    frame = make_records(ra, dec)
    return frame, tpl, (0.003, 0.02)


def crowded_case(centre):
    def case(rng):
        ra0, dec0 = CROWDED_CENTRES[centre]
        frame, tpl = crowded_field(rng, ra0, dec0, 0.02, 600, duplicate_every=2)
        return frame, tpl, (0.002,)
    return case


REFERENCE_CASES = {
    "survey-1/10-every-9th-left-out": lambda rng: survey_case(rng, "1/10", 9),
    "survey-1/100": lambda rng: survey_case(rng, "1/100"),
    # windows of 2 to about 40 stars
    "crowded-patch": lambda rng: (*crowded_field(rng, 200.0, 30.0, 0.01, 400, 3), (0.002,)),
    **{centre: crowded_case(centre) for centre in ("ra-seam", "north-pole", "south-pole")},
    "empty-template": lambda rng: (make_records(rng.uniform(0, 360, 50), rng.uniform(-90, 90, 50)),
                                   make_records([], []), (0.003,)),
    "one-star-template": one_star_case,
}


@pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
def test_join_gives_the_two_bisection_joins_bytes(monkeypatch, four_lanes, case):
    """Every array and count, for whole-frame blocks, blocks of 1,000, 7 and 1 rows,
    and pair budgets that halve the blocks."""
    rng = np.random.default_rng(sorted(REFERENCE_CASES).index(case))
    frame, tpl, radii = REFERENCE_CASES[case](rng)
    index = build_zone_index(tpl, CFG.zone_height_deg, max(radii))  # every radius up to its reach
    as_it_was = zone_index_with_one_entry_per_row(tpl, CFG.zone_height_deg)
    n = len(frame)
    blockings = [(n, None), (1000, None), (7, None), (n, 64)]
    if n <= 1000:
        blockings += [(1, None), (n, 3)]
    budget = crossmatch._PAIR_BUDGET
    for radius in radii:
        monkeypatch.setattr(core, "_BLOCK_ROWS", n)
        monkeypatch.setattr(crossmatch, "_PAIR_BUDGET", budget)
        want = range_join_with_two_bisections(frame, as_it_was, radius)
        for block_rows, pair_budget in blockings:
            monkeypatch.setattr(core, "_BLOCK_ROWS", block_rows)
            monkeypatch.setattr(crossmatch, "_PAIR_BUDGET", pair_budget or budget)
            assert_same_result(range_join(frame, index, radius), want)
    if case in ("crowded-patch", "one-star-template"):  # the cases hold what they say
        counts = brute_force_candidate_counts(frame["ra"], frame["dec"], tpl["ra"], tpl["dec"],
                                              radii[0])
        assert 0 < np.count_nonzero(counts == 0) < n
        assert counts.max() >= (10 if case == "crowded-patch" else 1)


def joined_with_counted_bisections(monkeypatch, frame, tpl):
    """The join's result, the lengths of its left and right bisections, and its seam rows."""
    index = build_zone_index(tpl, CFG.zone_height_deg, CFG.match_radius_deg)
    starts, ends, searchsorted = [], [], np.searchsorted

    def counted(a, v, side="left", sorter=None):
        (ends if side == "right" else starts).append(len(v))
        return searchsorted(a, v, side=side, sorter=sorter)

    with monkeypatch.context() as patched:
        patched.setattr(np, "searchsorted", counted)
        result = range_join(frame, index, CFG.match_radius_deg)
    halfw = crossmatch._ra_halfwidth_deg(frame["dec"], CFG.match_radius_deg)
    seam = np.count_nonzero((frame["ra"] - halfw < 0) | (frame["ra"] + halfw > 360))
    return result, starts, ends, seam


def test_only_windows_of_two_or_more_stars_are_bisected_for_their_end(monkeypatch):
    """Each row's window is bisected once, in its own strip, and a seam window's wrapped
    part once more; an interval's end is searched only when both probes hit."""
    rng = np.random.default_rng(3)
    frame, tpl, _ = survey_case(rng, "1/100")
    result, starts, ends, seam = joined_with_counted_bisections(monkeypatch, frame, tpl)
    assert result.n_matched == len(frame) and result.ambiguous_count == 0
    assert starts == [len(frame) + seam]
    assert sum(ends) <= len(frame) // 100
    frame, tpl = crowded_field(rng, 0.0, 20.0, 0.01, 300, 3)  # on the seam
    result, starts, ends, seam = joined_with_counted_bisections(monkeypatch, frame, tpl)
    assert seam > 0 and starts == [len(frame) + seam]
