import math
import sys
import threading
import time
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tdcat import core
from tdcat.core import (
    PIXELS_PER_AXIS,
    RECORD_DTYPE,
    TABLE2_COLUMNS,
    ConfigError,
    DomainError,
    EngineConfig,
    FrameBatch,
    StorageError,
    check_records,
    mag_to_flux,
    n_zones,
    propagate_flux_error,
    radec_to_cartesian,
    records_from_radec,
    separation_to_chord,
    sort_by_zone_ra,
    take_rows,
    zone_of,
    zone_ra_order,
)
from tdcat.mining import DIMMING, Alert, read_alerts_csv, write_alerts_csv
from tdcat.skygen import BRIGHTENING, TransientInjection, read_truth_log, write_truth_log
from tdcat.store import read_records_csv

from tdcat.store import STORE_DTYPE

from oracles import (
    SourceRecord,
    angular_separation,
    cartesian_to_radec,
    check_frame_batch,
    haversine_deg,
    lexsort_zone_ra_order,
    sort_by_lexsort,
    zone_by_fraction,
)

finite_ra = st.floats(min_value=0.0, max_value=360.0, exclude_max=True,
                      allow_nan=False, allow_infinity=False)
finite_dec = st.floats(min_value=-90.0, max_value=90.0,
                       allow_nan=False, allow_infinity=False)


# ---------------------------------------------------------------------------
# schema


def test_record_dtype_layout():
    # 22 columns, fixed order, packed width
    assert list(RECORD_DTYPE.names) == TABLE2_COLUMNS
    assert len(TABLE2_COLUMNS) == 22
    # u8 + i4 + i2 + 17*f8 + i4 = 8+4+2+136+4, plus flag at position 17
    widths = {"<u8": 8, "<i4": 4, "<i2": 2, "<f8": 8}
    expected = sum(widths[RECORD_DTYPE[name].str.replace("|", "<")]
                   for name in TABLE2_COLUMNS)
    assert RECORD_DTYPE.itemsize == expected == 162


def test_source_record_roundtrip():
    rec = records_from_radec(
        ids=np.array([7], dtype=np.uint64), imageid=3,
        ra=np.array([123.456]), dec=np.array([-15.0]),
        mag=np.array([12.5]), mag_error=np.array([0.02]),
        config=EngineConfig(),
    )[0]
    sr = SourceRecord.from_row(rec)
    assert sr.id == 7 and sr.imageid == 3
    back = sr.to_row()
    assert back == rec
    sr.validate(0.01, 25.0)


def test_source_record_validate_collects_problems():
    rec = records_from_radec(
        ids=np.array([1], dtype=np.uint64), imageid=0,
        ra=np.array([10.0]), dec=np.array([10.0]),
        mag=np.array([12.0]), mag_error=np.array([0.02]),
        config=EngineConfig(),
    )[0]
    sr = SourceRecord.from_row(rec)
    broken = SourceRecord(**{**sr.__dict__, "zone": sr.zone + 1, "mag_error": -1.0})
    with pytest.raises(DomainError) as err:
        broken.validate(0.01, 25.0)
    msg = str(err.value)
    assert "zone" in msg and "mag_error" in msg


# ---------------------------------------------------------------------------
# config


def test_engine_config_defaults():
    cfg = EngineConfig()
    assert cfg.frames_per_night == 1920  # 8 h / 15 s
    assert n_zones(cfg.zone_height_deg) == 18000
    assert cfg.sources_per_frame == 175_600


@pytest.mark.parametrize(
    "kwargs",
    [
        {"cadence_s": 0.0},
        {"zone_height_deg": 0.0},
        {"zone_height_deg": 91.0},
        {"match_radius_deg": -1.0},
        {"cameras": 0},
        {"sources_per_frame": -1},
    ],
)
def test_engine_config_rejects(kwargs):
    with pytest.raises(ConfigError):
        EngineConfig(**kwargs)


# ---------------------------------------------------------------------------
# zones


def test_zone_boundaries_pinned():
    # boundary declinations land in the strip decimal arithmetic dictates
    assert zone_of(-90.0, 0.01) == 0
    assert zone_of(0.0, 0.01) == 9000
    assert zone_of(-0.005, 0.01) == 8999
    assert zone_of(0.01, 0.01) == 9001
    assert zone_of(90.0, 0.01) == 17999  # clamped into the top strip
    assert n_zones(0.01) == 18000
    assert n_zones(0.7) == 258  # 180/0.7 = 257.14... -> ceil


@given(
    dec=finite_dec,
    num=st.integers(min_value=1, max_value=50),
    den=st.sampled_from([1, 10, 100]),
)
@settings(max_examples=200, deadline=None)
def test_zone_matches_rational_oracle(dec, num, den):
    h = num / den
    # stay away from representation-induced ambiguity: only probe declinations
    # that are themselves exact in both systems
    dec = round(dec, 6)
    z = zone_of(dec, h)
    expected = zone_by_fraction(dec, num, den)
    # the oracle and the float path may disagree only when dec sits within
    # float epsilon of a strip boundary; round() above avoids those
    boundary_dist = abs((dec + 90.0) / h - round((dec + 90.0) / h))
    if boundary_dist > 1e-7:
        assert z == expected
    assert 0 <= z < n_zones(h)


def test_zone_array_scalar_agree():
    decs = np.array([-90.0, -0.005, 0.0, 0.01, 45.123, 90.0])
    zs = zone_of(decs, 0.01)
    assert zs.dtype == np.int64
    assert [zone_of(float(d), 0.01) for d in decs] == list(zs)


def test_zone_rejects_out_of_range():
    with pytest.raises(DomainError):
        zone_of(90.5, 0.01)
    with pytest.raises(DomainError):
        zone_of(np.array([0.0, -91.0]), 0.01)
    with pytest.raises(DomainError):
        zone_of(float("nan"), 0.01)
    with pytest.raises(DomainError):
        zone_of(np.array([0.0, np.nan, 45.0]), 0.01)


# ---------------------------------------------------------------------------
# coordinates


def test_cartesian_anchors():
    assert radec_to_cartesian(0.0, 0.0) == pytest.approx((1.0, 0.0, 0.0))
    assert radec_to_cartesian(90.0, 0.0) == pytest.approx((0.0, 1.0, 0.0))
    x, y, z = radec_to_cartesian(123.0, 90.0)
    assert z == pytest.approx(1.0)
    assert x**2 + y**2 == pytest.approx(0.0, abs=1e-30)


@given(ra=finite_ra, dec=finite_dec)
@settings(max_examples=200, deadline=None)
def test_cartesian_roundtrip(ra, dec):
    x, y, z = radec_to_cartesian(ra, dec)
    assert x * x + y * y + z * z == pytest.approx(1.0, abs=1e-12)
    ra2, dec2 = cartesian_to_radec(x, y, z)
    assert dec2 == pytest.approx(dec, abs=1e-9)
    if abs(dec) < 89.999999:  # ra undefined at the poles
        assert min(abs(ra2 - ra), 360.0 - abs(ra2 - ra)) < 1e-9


def test_cartesian_rejects_bad_ranges():
    with pytest.raises(DomainError):
        radec_to_cartesian(360.0, 0.0)
    with pytest.raises(DomainError):
        radec_to_cartesian(-0.001, 0.0)
    with pytest.raises(DomainError):
        radec_to_cartesian(0.0, 90.001)
    with pytest.raises(DomainError):
        radec_to_cartesian(float("nan"), 0.0)
    with pytest.raises(DomainError):
        radec_to_cartesian(np.array([1.0, 2.0]), np.array([0.0, np.nan]))


@given(ra1=finite_ra, dec1=finite_dec, ra2=finite_ra, dec2=finite_dec)
@settings(max_examples=300, deadline=None)
def test_separation_matches_haversine(ra1, dec1, ra2, dec2):
    got = angular_separation((ra1, dec1), (ra2, dec2))
    want = haversine_deg(ra1, dec1, ra2, dec2)
    assert got == pytest.approx(want, abs=1e-9)
    assert got == angular_separation((ra2, dec2), (ra1, dec1))


def test_separation_anchors():
    assert angular_separation((0.0, 0.0), (0.0, 0.0)) == 0.0
    assert angular_separation((0.0, 0.0), (90.0, 0.0)) == pytest.approx(90.0)
    assert angular_separation((0.0, -90.0), (0.0, 90.0)) == pytest.approx(180.0)
    # small-angle conditioning: 0.1 arcsec survives the chord path
    tiny = 0.1 / 3600.0
    assert angular_separation((10.0, 0.0), (10.0, tiny)) == pytest.approx(tiny, rel=1e-9)


def test_separation_accepts_record_rows():
    cfg = EngineConfig()
    rec = records_from_radec(
        ids=np.arange(2, dtype=np.uint64), imageid=0,
        ra=np.array([10.0, 10.0]), dec=np.array([0.0, 1.0]),
        mag=np.array([12.0, 12.0]), mag_error=np.array([0.02, 0.02]),
        config=cfg,
    )
    assert angular_separation(rec[0], rec[1]) == pytest.approx(1.0, abs=1e-9)


def test_separation_to_chord():
    assert separation_to_chord(0.0) == 0.0
    assert separation_to_chord(60.0) == pytest.approx(1.0)
    assert separation_to_chord(180.0) == pytest.approx(2.0)


# ---------------------------------------------------------------------------
# photometry


def test_mag_to_flux_pinned():
    assert mag_to_flux(25.0, 25.0) == pytest.approx(1.0)
    assert mag_to_flux(20.0, 25.0) == pytest.approx(100.0)
    assert mag_to_flux(27.5, 25.0) == pytest.approx(0.1)


def test_flux_error_matches_finite_difference():
    mag, err, zp = 14.2, 1e-4, 25.0
    flux = mag_to_flux(mag, zp)
    analytic = propagate_flux_error(flux, err)
    numeric = (mag_to_flux(mag - err, zp) - mag_to_flux(mag + err, zp)) / 2.0
    assert analytic == pytest.approx(numeric, rel=1e-6)
    assert analytic == pytest.approx(0.4 * math.log(10.0) * flux * err)


def test_flux_error_rejects_negative():
    with pytest.raises(DomainError):
        propagate_flux_error(1.0, -0.1)


# ---------------------------------------------------------------------------
# record assembly


def test_records_from_radec_derived_columns():
    cfg = EngineConfig()
    ra = np.array([0.0, 359.999, 180.0])
    dec = np.array([-90.0, 0.0, 45.5])
    mag = np.array([10.0, 13.0, 16.0])
    rec = records_from_radec(
        ids=np.arange(3, dtype=np.uint64), imageid=9, ra=ra, dec=dec,
        mag=mag, mag_error=np.full(3, 0.02), config=cfg,
        pixel_x=np.array([-5.0, 100.0, 9000.0]),
    )
    assert np.array_equal(rec["zone"], zone_of(dec, cfg.zone_height_deg))
    x, y, z = radec_to_cartesian(ra, dec)
    assert np.allclose(rec["x"], x) and np.allclose(rec["y"], y)
    assert np.allclose(rec["flux"], mag_to_flux(mag, cfg.mag_zero_point))
    assert np.allclose(rec["calmag"], mag)
    # pixels clipped into [0, 4096)
    assert rec["pixel_x"][0] == 0.0
    assert rec["pixel_x"][2] < PIXELS_PER_AXIS
    for row in rec:
        SourceRecord.from_row(row).validate(cfg.zone_height_deg, cfg.mag_zero_point)
    check_records(rec, cfg)


def test_sort_by_zone_ra():
    cfg = EngineConfig()
    rng = np.random.default_rng(4)
    rec = records_from_radec(
        ids=np.arange(200, dtype=np.uint64), imageid=0,
        ra=rng.uniform(0, 360, 200), dec=rng.uniform(-89, 89, 200),
        mag=np.full(200, 12.0), mag_error=np.full(200, 0.02), config=cfg,
    )
    srt = sort_by_zone_ra(rec)
    key = srt["zone"].astype(np.float64) * 361.0 + srt["ra"]
    assert np.all(np.diff(key) >= 0)
    assert sorted(srt["id"]) == list(range(200))


@settings(max_examples=300, deadline=None)
@given(
    rows=st.lists(st.tuples(st.integers(0, 4), st.sampled_from(
        [0.0, -0.0, 1.5, 2.0, 359.5, math.nan, math.inf])), max_size=40),
    zones=st.sampled_from([(np.int16, -2), (np.int16, 0), (np.int64, 0), (np.int64, 65_533),
                           (np.int64, 200_000)]),
    presort=st.booleans(),
)
def test_zone_ra_order_is_the_lexsort_order(rows, zones, presort):
    dtype, offset = zones
    zone = np.array([z + offset for z, _ in rows], dtype=dtype)
    ra = np.array([r for _, r in rows], dtype=np.float64)
    if presort:
        order = np.lexsort((ra, zone))
        zone, ra = zone[order], ra[order]
    got = zone_ra_order(zone, ra)
    want = lexsort_zone_ra_order(zone, ra)
    assert got.dtype == want.dtype and np.array_equal(got, want)


def recorded_sorts(monkeypatch):
    """Patch ``np.argsort`` to record each call's (dtype, kind); return the record."""
    sorts, argsort = [], np.argsort

    def recorded(a, *args, **kwargs):
        sorts.append((a.dtype, kwargs.get("kind")))
        return argsort(a, *args, **kwargs)

    monkeypatch.setattr(np, "argsort", recorded)
    return sorts


@pytest.mark.parametrize("ra", [[5.0, 1.0, 5.0, 3.0, 5.0], [2.0, 0.0, 1.0, -0.0],
                                [5.0, math.nan, 1.0, math.nan, 3.0]])
def test_zone_ra_order_takes_the_stable_sort_for_equal_or_nan_ra(monkeypatch, ra):
    """An equal pair (``-0.0 == 0.0`` too) or a NaN: the stable sort, tied rows in row order."""
    ra = np.array(ra)
    zone = np.zeros(len(ra), np.int64)
    sorts = recorded_sorts(monkeypatch)
    assert zone_ra_order(zone, ra).tolist() == np.lexsort((ra, zone)).tolist()
    assert (np.dtype(np.float64), "stable") in sorts


def test_zone_ra_order_sorts_untied_ra_without_the_stable_sort(monkeypatch):
    rng = np.random.default_rng(3)
    ra, zone = rng.uniform(0, 360, 5000), rng.integers(0, 18_000, 5000)
    sorts = recorded_sorts(monkeypatch)
    assert np.array_equal(zone_ra_order(zone, ra), np.lexsort((ra, zone)))
    assert sorts == [(np.dtype(np.float64), None), (np.dtype(np.uint16), "stable")]


@pytest.mark.parametrize("h", [0.001, 0.0054])
def test_records_from_radec_refuses_zones_past_the_int16_column(h):
    with pytest.raises(ConfigError, match=rf"^zone_height_deg {h} is below 0\.0054931640625, "
                       "the smallest height whose zones fit the int16 zone column$"):
        records_from_radec(ids=[1], imageid=0, ra=[1.0], dec=[0.0], mag=[12.0],
                           mag_error=[0.02], config=EngineConfig(zone_height_deg=h))
    at_limit = EngineConfig(zone_height_deg=180 / 32_768)
    rec = records_from_radec(ids=[1, 2], imageid=0, ra=[1.0, 2.0], dec=[-90.0, 90.0],
                             mag=[12.0, 12.0], mag_error=[0.02, 0.02], config=at_limit)
    assert rec["zone"].tolist() == [0, 32_767]


@pytest.mark.parametrize(
    "case", ["ordered", "shuffled", "ties", "reversed-view", "every-third-view", "empty", "one-row"]
)
def test_sort_by_zone_ra_gives_the_lexsort_bytes(case):
    cfg = EngineConfig()
    rng = np.random.default_rng(6)
    n = 300
    ra, dec = rng.uniform(0, 360, n), rng.uniform(-89, 89, n)
    if case == "ties":  # 20 rows at one ra in one zone, and 20 copies of one place
        ra[:20], dec[:20] = 42.0, -5.0 + rng.uniform(0.0, 0.009, 20)
        ra[20:40], dec[20:40] = 7.5, 3.25
    rec = records_from_radec(
        ids=rng.permutation(n).astype(np.uint64), imageid=0, ra=ra, dec=dec,
        mag=rng.uniform(10, 20, n), mag_error=np.full(n, 0.02), config=cfg,
    )
    rec = {
        "ordered": sort_by_lexsort(rec), "shuffled": rec, "ties": rec,
        "reversed-view": sort_by_lexsort(rec)[::-1], "every-third-view": rec[::3],
        "empty": rec[:0], "one-row": rec[7:8],
    }[case]
    got, want = sort_by_zone_ra(rec), sort_by_lexsort(rec)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    assert not np.shares_memory(got, rec)


def store_like_rows(n):
    """Rows of the 179-byte store layout filled with random bytes, NaNs included."""
    rows = np.empty(n, STORE_DTYPE)
    rng = np.random.default_rng(5)
    rows.view(np.uint8)[:] = rng.integers(0, 256, rows.nbytes, dtype=np.uint8)
    return rows


@pytest.mark.parametrize(
    "view", [slice(None), slice(None, None, 3), slice(None, None, -2)], ids=str
)
@pytest.mark.parametrize(
    "index_of",
    [
        lambda n: np.array([4, 0, 4, 9, 2]),
        lambda n: np.array([], dtype=np.intp),
        lambda n: np.arange(n) % 3 == 1,
        lambda n: np.zeros(n, bool),
    ],
    ids=["ints", "no ints", "mask", "empty mask"],
)
def test_take_rows_equals_structured_indexing(view, index_of):
    rows = store_like_rows(30)[view]
    index = index_of(len(rows))
    got = take_rows(rows, index)
    want = rows[index]
    assert got.dtype == rows.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    assert not np.shares_memory(got, rows)


def test_take_rows_of_no_rows():
    rows = store_like_rows(0)
    for index in (np.array([], dtype=np.intp), np.zeros(0, bool)):
        got = take_rows(rows, index)
        assert got.dtype == rows.dtype and len(got) == 0


def test_frame_batch_check():
    cfg = EngineConfig()
    rec = sort_by_zone_ra(
        records_from_radec(
            ids=np.arange(5, dtype=np.uint64), imageid=2,
            ra=np.linspace(1, 50, 5), dec=np.linspace(-10, 10, 5),
            mag=np.full(5, 12.0), mag_error=np.full(5, 0.02), config=cfg,
        )
    )
    check_frame_batch(FrameBatch(imageid=2, epoch=30.0, records=rec), cfg)
    far = rec.copy()
    far["id"] |= np.uint64(99) << np.uint64(56)  # the id's top byte is its camera
    with pytest.raises(DomainError, match="camera 99"):
        check_frame_batch(FrameBatch(imageid=2, epoch=30.0, records=far), cfg)
    bad = rec.copy()
    bad["imageid"][0] = 3
    with pytest.raises(DomainError):
        check_frame_batch(FrameBatch(imageid=2, epoch=30.0, records=bad), cfg)
    shuffled = rec[::-1].copy()
    with pytest.raises(DomainError):
        check_frame_batch(FrameBatch(imageid=2, epoch=30.0, records=shuffled), cfg)


# ---------------------------------------------------------------------------
# check_records against the scalar SourceRecord.validate

nan, inf = float("nan"), float("inf")

# Per field, the corruptions applied in turn: NaN and values on both sides of
# each bound.  Some leave a row valid (a small dec step, a flux off by half
# the tolerance); the unchecked fields must never make a row fail.
CORRUPTIONS = {
    "ra": [nan, inf, -1e-9, 360.0, lambda v: (v + 180.0) % 360.0],
    "dec": [nan, -inf, 90.000001, -91.0, lambda v: v + 0.003],
    "x": [nan, inf, lambda v: v + 1e-3, lambda v: v + 1e-12],
    "y": [nan, lambda v: v * 1.5],
    "z": [nan, lambda v: -2.0 * v - 0.1],
    "zone": [lambda v: v + 1, lambda v: v - 1, -1],
    "flux": [nan, inf, lambda v: v * (1 + 2e-9), lambda v: v * (1 + 0.5e-9)],
    "mag": [nan, lambda v: v + 0.01, lambda v: v + 1e-12],
    "pixel_x": [nan, -1e-9, 4096.0, 4095.999],
    "pixel_y": [nan, -5.0, 1e6, 0.0],
    "mag_error": [nan, -1e-3, 0.0],
    "ra_err": [nan, -inf, 0.0],
    "dec_err": [nan, -1e-300, 1e300],
    "ellipticity": [nan, -0.01, 1.01, 1.0],
    "class_star": [nan, 1.0 + 1e-12, -1e-12, 0.0],
    "background": [nan, -inf],
    "calmag": [nan, inf, -inf, 100.0, -100.0, math.nextafter(100.0, 0.0), -99.5],
    "flux_err": [nan, -1.0],
    "flag": [-1],
}


def valid_rows(n, cfg, seed):
    rng = np.random.default_rng(seed)
    ra = rng.uniform(0.0, 360.0, n)
    ra[:2] = 0.0, np.nextafter(360.0, 0.0)
    dec = np.degrees(np.arcsin(rng.uniform(-1.0, 1.0, n)))
    dec[2:4] = -90.0, 90.0
    return records_from_radec(
        ids=np.arange(n, dtype=np.uint64), imageid=7, ra=ra, dec=dec,
        mag=rng.uniform(8.0, 20.0, n), mag_error=rng.uniform(0.0, 0.1, n),
        config=cfg, pixel_x=rng.uniform(-10.0, 4200.0, n),
        pixel_y=rng.uniform(0.0, 4096.0, n), ra_err=rng.uniform(0.0, 1e-4, n),
        dec_err=rng.uniform(0.0, 1e-4, n), ellipticity=rng.uniform(0.0, 1.0, n),
        class_star=rng.uniform(0.0, 1.0, n),
    )


def scalar_rejects(row, cfg) -> bool:
    try:
        SourceRecord.from_row(row).validate(cfg.zone_height_deg, cfg.mag_zero_point)
    except DomainError:
        return True
    return False


def vector_rejects(rows, cfg) -> bool:
    try:
        check_records(rows, cfg)
    except DomainError:
        return True
    return False


@pytest.mark.parametrize("field", sorted(CORRUPTIONS))
@pytest.mark.parametrize("zone_height_deg", [0.01, 0.7])
def test_check_records_rejects_the_rows_validate_rejects(field, zone_height_deg):
    cfg = EngineConfig(zone_height_deg=zone_height_deg, mag_zero_point=23.5)
    rng = np.random.default_rng(sum(map(ord, field)))
    rows = valid_rows(120, cfg, seed=3)
    for corrupt in CORRUPTIONS[field]:
        hit = rng.random(len(rows)) < 0.3
        hit[0] = True
        old = rows[field][hit]
        rows[field][hit] = corrupt(old) if callable(corrupt) else corrupt
        want = [scalar_rejects(row, cfg) for row in rows]
        got = [vector_rejects(rows[i : i + 1], cfg) for i in range(len(rows))]
        assert got == want, (field, corrupt)
        if any(want):
            with pytest.raises(DomainError, match=rf"^row {want.index(True)}: "):
                check_records(rows, cfg)
        else:
            check_records(rows, cfg)
        rows[field][hit] = old


def test_check_records_names_row_field_and_value():
    cfg = EngineConfig()
    rows = valid_rows(10, cfg, seed=4)
    check_records(rows, cfg)
    check_records(rows[:0], cfg)
    rows["mag_error"][6] = -0.5
    rows["zone"][8] += 1
    with pytest.raises(DomainError, match=r"^row 6: mag_error -0\.5 is not >= 0$"):
        check_records(rows, cfg)
    rows["x"][4] = np.nan
    with pytest.raises(DomainError, match=r"^row 4: \|xyz\|\^2 nan is not within"):
        check_records(rows, cfg)
    rows["x"][4] = rows["x"][5]
    rows["ra"][4] = np.nan  # the first failing field of a row is named
    with pytest.raises(DomainError, match=r"^row 4: ra nan is not in \[0, 360\)$"):
        check_records(rows, cfg)
    rows = valid_rows(10, cfg, seed=4)
    rows["zone"][8] += 1
    with pytest.raises(DomainError, match=r"^row 8: zone .* zone_height_deg 0\.01$"):
        check_records(rows, cfg)


def test_check_records_names_the_first_repeated_id():
    cfg = EngineConfig()
    rows = valid_rows(10, cfg, seed=4)
    rows["id"][7] = rows["id"][2]
    with pytest.raises(DomainError, match=r"^row 7: id 2 is not unique among the rows$"):
        check_records(rows, cfg)
    rows["id"][5] = rows["id"][8]  # the first row that repeats an earlier id is named
    with pytest.raises(DomainError, match=r"^row 7: id 2 "):
        check_records(rows, cfg)
    rows["id"][4] = rows["id"][9]
    rows["id"][9] = rows["id"][1]
    with pytest.raises(DomainError, match=r"^row 7: id 2 "):
        check_records(rows, cfg)
    rows["id"][1] = rows["id"][0]
    with pytest.raises(DomainError, match=r"^row 1: id 0 "):
        check_records(rows, cfg)


# ---------------------------------------------------------------------------
# row blocks


def record_blocks(log, delay=0.0):
    def fn(lo, hi):
        time.sleep(delay)
        log.append((lo, hi, threading.current_thread().name))
        return lo, hi

    return fn


@pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 50])
def test_row_blocks_are_equal_contiguous_and_in_block_order(monkeypatch, four_lanes, n):
    monkeypatch.setattr(core, "_BLOCK_ROWS", 8)
    log = []
    got = core.row_blocks(n, record_blocks(log))
    n_blocks = max(1, -(-n // 8))
    assert got == [(k * n // n_blocks, (k + 1) * n // n_blocks) for k in range(n_blocks)]
    assert sorted(lo_hi[:2] for lo_hi in log) == got
    assert max(hi - lo for lo, hi in got) - min(hi - lo for lo, hi in got) <= 1


def test_one_block_or_one_core_is_one_call(monkeypatch):
    def no_syscall(pid):
        raise AssertionError("the one-block path asked for the core count")

    monkeypatch.setattr(core, "_BLOCK_ROWS", 8)
    monkeypatch.setattr(core, "_rows_pool", (None, 1, None))
    monkeypatch.setattr(core.os, "sched_getaffinity", no_syscall)
    log = []
    assert core.row_blocks(8, record_blocks(log)) == [(0, 8)]
    assert log == [(0, 8, threading.current_thread().name)]
    assert core._rows_pool == (None, 1, None)  # no pool was looked up

    monkeypatch.setattr(core.os, "sched_getaffinity", lambda pid: {0})
    log.clear()
    assert core.row_blocks(50, record_blocks(log)) == [(0, 50)]
    assert len(log) == 1 and core._rows_pool[2] is None


def test_a_failed_block_raises_the_lowest_error_after_every_lane_ends(monkeypatch, four_lanes):
    monkeypatch.setattr(core, "_BLOCK_ROWS", 1)
    running, ran = set(), []

    def fn(lo, hi):
        running.add(lo)
        time.sleep(0.002)
        ran.append(lo)
        running.discard(lo)
        if lo in (5, 3, 11):
            raise ValueError(f"block {lo}")
        return lo

    with pytest.raises(ValueError, match="^block 3$"):
        core.row_blocks(16, fn)
    assert not running and sorted(ran) == list(range(16))
    # the pool still serves the next call, on more than the calling thread
    log = []
    assert core.row_blocks(16, record_blocks(log, delay=0.002)) == [(k, k + 1) for k in range(16)]
    assert any(name.startswith("tdcat-rows") for *_, name in log)


def test_row_blocks_run_each_block_once_under_rapid_thread_switches(monkeypatch, four_lanes):
    """Two callers share the pool; four lanes each on any host, switching every 1 us."""
    monkeypatch.setattr(core, "_BLOCK_ROWS", 1)
    ran, outs = [], [None, None]

    def fn(lo, hi):
        ran.append(lo)
        return lo * lo

    def call(i):
        outs[i] = core.row_blocks(3000, fn)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=call, args=(i,)) for i in range(2)]
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=120)
        assert not any(t.is_alive() for t in callers)
    finally:
        sys.setswitchinterval(interval)
    assert outs == [[k * k for k in range(3000)]] * 2
    assert sorted(ran) == sorted(list(range(3000)) * 2)


# ---------------------------------------------------------------------------
# CSV products

CSV_READERS = {
    "alerts": (read_alerts_csv, [f.name for f in fields(Alert)]),
    "truth_log": (read_truth_log, [f.name for f in fields(TransientInjection)]),
    "records": (read_records_csv, TABLE2_COLUMNS),
}


@pytest.mark.parametrize("case, names", [
    ("empty_file", "got None"),
    ("wrong_header", "expected the header"),
    ("short_row", "line 2: 2 fields"),
    ("unparsable_value", "line 2: column"),
])
@pytest.mark.parametrize("kind", CSV_READERS)
def test_csv_readers_name_the_file_of_malformed_input(tmp_path, kind, case, names):
    read, header = CSV_READERS[kind]
    path = tmp_path / f"{kind}_{case}.csv"
    path.write_text({
        "empty_file": "",
        "wrong_header": ",".join(["bogus", *header[1:]]) + "\n",
        "short_row": ",".join(header) + "\n1,2\n",
        "unparsable_value": ",".join(header) + "\n1,x" + ",1" * (len(header) - 2) + "\n",
    }[case])
    with pytest.raises(StorageError, match=names) as raised:
        read(path)
    assert str(path) in str(raised.value)


def test_csv_rows_are_exact_bytes(tmp_path):
    alert = Alert(kind=DIMMING, epoch=0.1 + 0.2, star_id=42, record_id=2**63 + 7,
                  mag=13.5, n_frames=3, camera_id=2)
    injection = TransientInjection(kind=BRIGHTENING, epoch_on=1 / 3,
                                   epoch_off=math.nextafter(15.0, 16.0),
                                   delta_mag=-0.75, target_star=9, camera_id=1)
    write_alerts_csv(tmp_path / "alerts.csv", [alert])
    write_truth_log(tmp_path / "truth.csv", [injection])
    assert (tmp_path / "alerts.csv").read_bytes() == (
        b"kind,epoch,star_id,record_id,mag,baseline_mag,deviation_sigma,ra,dec,"
        b"n_frames,camera_id\r\n"
        b"dimming,0.30000000000000004,42,9223372036854775815,13.5,nan,nan,nan,nan,3,2\r\n"
    )
    assert (tmp_path / "truth.csv").read_bytes() == (
        b"kind,epoch_on,epoch_off,ra,dec,delta_mag,target_star,mag,camera_id\r\n"
        b"brightening,0.3333333333333333,15.000000000000002,nan,nan,-0.75,9,nan,1\r\n"
    )
