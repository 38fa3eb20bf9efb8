import math

import numpy as np
import pytest

from tdcat import skygen
from tdcat.core import (
    CadenceError,
    ConfigError,
    DomainError,
    EngineConfig,
    check_records,
    zone_of,
)
from tdcat.skygen import (
    DEFAULT_FOOTPRINT,
    DENSITY_PRESETS,
    SkyModel,
    TransientInjection,
    build_template,
    epoch_index,
    footprint_area_deg2,
    observe_frame,
    random_injections,
    read_truth_log,
    split_footprint,
    write_truth_log,
)

from oracles import (
    check_frame_batch,
    haversine_deg,
    haversine_matrix_deg,
    lexsort_zone_ra_order,
    sort_by_lexsort,
    zone_index_by_lexsort,
)

CFG = EngineConfig()


def quiet_model(seed=1, stars=300, **kw):
    """Noise-free model: observed rows must coincide with the template."""
    return SkyModel(
        seed=seed, star_count=stars,
        astrometric_sigma_deg=0.0, photometric_sigma_mag=0.0, **kw,
    )


# ---------------------------------------------------------------------------
# footprint


def test_default_footprint_area():
    # the survey covers ~5000 square degrees
    assert footprint_area_deg2(DEFAULT_FOOTPRINT) == pytest.approx(5000.0, rel=1e-3)


def test_split_footprint_partitions():
    parts = split_footprint(DEFAULT_FOOTPRINT, 4)
    assert len(parts) == 4
    # contiguous in RA, disjoint, covering the whole range
    for (a, b) in zip(parts, parts[1:]):
        assert a[1] == b[0]
    assert parts[0][0] == DEFAULT_FOOTPRINT[0]
    assert parts[-1][1] == DEFAULT_FOOTPRINT[1]
    total = sum(footprint_area_deg2(p) for p in parts)
    assert total == pytest.approx(footprint_area_deg2(DEFAULT_FOOTPRINT))


def test_density_presets():
    assert DENSITY_PRESETS["full"] == 175_600
    assert DENSITY_PRESETS["1/10"] * 10 == DENSITY_PRESETS["full"]
    assert DENSITY_PRESETS["1/100"] * 100 == DENSITY_PRESETS["full"]


# ---------------------------------------------------------------------------
# template


def test_build_template_population():
    model = SkyModel(seed=3, star_count=2000)
    tpl = build_template(model, CFG)
    s = tpl.stars
    assert len(s) == 2000
    assert np.array_equal(s["id"], np.arange(2000))
    ra_min, ra_max, dec_min, dec_max = model.footprint
    assert np.all((s["ra"] >= ra_min) & (s["ra"] < ra_max))
    assert np.all((s["dec"] >= dec_min) & (s["dec"] <= dec_max))
    assert np.all((s["mag"] >= model.mag_range[0]) & (s["mag"] <= model.mag_range[1]))
    norms = s["x"] ** 2 + s["y"] ** 2 + s["z"] ** 2
    assert np.allclose(norms, 1.0, atol=1e-12)
    # ids were assigned in (zone, ra) order
    key = zone_of(s["dec"], CFG.zone_height_deg) * 361.0 + s["ra"]
    assert np.all(np.diff(key) >= 0)


def test_build_template_deterministic():
    model = SkyModel(seed=9, star_count=500)
    a = build_template(model, CFG).stars
    b = build_template(model, CFG).stars
    assert a.tobytes() == b.tobytes()
    c = build_template(SkyModel(seed=10, star_count=500), CFG).stars
    assert a.tobytes() != c.tobytes()


def test_template_isotropy_in_sin_dec():
    # uniform on the sphere => sin(dec) uniform on its range; with n=20000 the
    # sample mean of sin(dec) sits within 5 sigma of the uniform expectation
    model = SkyModel(seed=5, star_count=20000)
    tpl = build_template(model, CFG)
    lo = math.sin(math.radians(model.footprint[2]))
    hi = math.sin(math.radians(model.footprint[3]))
    s = np.sin(np.radians(tpl.stars["dec"]))
    expected_mean = (lo + hi) / 2.0
    tol = 5.0 * (hi - lo) / math.sqrt(12.0 * len(s))
    assert abs(float(s.mean()) - expected_mean) < tol


def test_template_records_roundtrip():
    from tdcat.skygen import TemplateCatalog

    tpl = build_template(SkyModel(seed=2, star_count=150), CFG)
    rec = tpl.to_records(CFG)
    assert np.all(rec["imageid"] == 0)
    back = TemplateCatalog.from_records(rec, CFG)
    assert back.stars.tobytes() == tpl.stars.tobytes()
    shuffled = TemplateCatalog.from_records(rec[np.random.default_rng(3).permutation(150)], CFG)
    assert shuffled.stars.tobytes() == tpl.stars.tobytes()
    assert shuffled.index.ids.tobytes() == tpl.index.ids.tobytes()


def test_template_from_records_refuses_a_repeated_id():
    rec = build_template(SkyModel(seed=2, star_count=150), CFG).to_records(CFG)
    rec["id"][[40, 90]] = 17
    with pytest.raises(DomainError, match="template star id 17 is repeated"):
        skygen.TemplateCatalog.from_records(rec, CFG)


@pytest.mark.parametrize("stars,zone_height", [(0, 0.01), (1, 0.01), (3000, 0.01), (3000, 0.001)])
def test_build_template_gives_the_lexsort_bytes(monkeypatch, stars, zone_height):
    config = EngineConfig(zone_height_deg=zone_height)
    model = SkyModel(seed=7, star_count=stars)
    got = build_template(model, config)
    monkeypatch.setattr(skygen, "zone_ra_order", lexsort_zone_ra_order)
    monkeypatch.setattr(skygen, "build_zone_index", zone_index_by_lexsort)
    want = build_template(model, config)
    assert got.stars.tobytes() == want.stars.tobytes()
    for name in ("ids", "xyz", "key"):
        assert getattr(got.index, name).tobytes() == getattr(want.index, name).tobytes()


def test_observe_frame_gives_the_lexsort_bytes(monkeypatch):
    model = SkyModel(seed=8, star_count=3000)
    tpl = build_template(model, CFG)
    injections = random_injections(
        tpl, model, CFG, seed=8, n_new_sources=3, n_brightenings=3, frames_per_night=10,
    )
    got = [observe_frame(tpl, i * CFG.cadence_s, injections, model, CFG) for i in range(10)]
    monkeypatch.setattr(skygen, "sort_by_zone_ra", sort_by_lexsort)
    for i, frame in enumerate(got):
        want = observe_frame(tpl, i * CFG.cadence_s, injections, model, CFG)
        assert frame.records.tobytes() == want.records.tobytes()


# ---------------------------------------------------------------------------
# epochs


def test_epoch_index_alignment():
    assert epoch_index(0.0, 15.0) == 0
    assert epoch_index(45.0, 15.0) == 3
    assert epoch_index(86400.0, 15.0) == 5760
    with pytest.raises(CadenceError):
        epoch_index(7.5, 15.0)


# ---------------------------------------------------------------------------
# frames


def test_noiseless_frame_reproduces_template():
    model = quiet_model()
    tpl = build_template(model, CFG)
    frame = observe_frame(tpl, 0.0, (), model, CFG)
    assert len(frame.records) == model.star_count
    # (zone, ra)-sorted template and frame coincide column-for-column
    assert np.array_equal(np.sort(frame.records["ra"]), np.sort(tpl.stars["ra"]))
    assert np.array_equal(np.sort(frame.records["dec"]), np.sort(tpl.stars["dec"]))
    assert np.array_equal(np.sort(frame.records["mag"]), np.sort(tpl.stars["mag"]))
    check_frame_batch(frame, CFG)


@pytest.mark.parametrize("footprint", [DEFAULT_FOOTPRINT, (0.0, 360.0, -90.0, 90.0)])
def test_generated_frames_and_template_pass_check_records(footprint):
    model = SkyModel(seed=12, star_count=3000, footprint=footprint)
    tpl = build_template(model, CFG)
    check_records(tpl.to_records(CFG), CFG)
    injections = random_injections(
        tpl, model, CFG, seed=12, n_new_sources=3, n_brightenings=3,
        frames_per_night=20,
    )
    for i in range(20):
        frame = observe_frame(tpl, i * CFG.cadence_s, injections, model, CFG)
        check_records(frame.records, CFG)


def test_frame_determinism_and_seed_sensitivity():
    model = SkyModel(seed=8, star_count=400)
    tpl = build_template(model, CFG)
    a = observe_frame(tpl, 30.0, (), model, CFG)
    b = observe_frame(tpl, 30.0, (), model, CFG)
    assert a.records.tobytes() == b.records.tobytes()
    c = observe_frame(tpl, 45.0, (), model, CFG)
    assert a.records.tobytes() != c.records.tobytes()


def test_frame_noise_is_clipped():
    # jitter is drawn from a clipped Gaussian, so even the most displaced
    # source stays within 5 sigma of its true declination (sorted pairing
    # can only shrink apparent displacements, never grow them)
    model = SkyModel(seed=6, star_count=3000)
    tpl = build_template(model, CFG)
    frame = observe_frame(tpl, 0.0, (), model, CFG)
    d_dec = np.abs(np.sort(frame.records["dec"]) - np.sort(tpl.stars["dec"]))
    assert np.max(d_dec) <= 5.0 * model.astrometric_sigma_deg + 1e-12
    d_mag = np.abs(np.sort(frame.records["mag"]) - np.sort(tpl.stars["mag"]))
    assert np.max(d_mag) <= 2 * 5.0 * model.photometric_sigma_mag + 1e-12


def test_frame_ids_pack_camera_epoch_row():
    model = quiet_model(stars=50)
    tpl = build_template(model, CFG)
    frame = observe_frame(tpl, 86400.0 + 150.0, (), model, CFG, camera_id=3)
    ids = frame.records["id"]
    assert frame.imageid == 5770
    assert np.all((ids >> np.uint64(56)) == 3)
    assert np.all(((ids >> np.uint64(28)) & np.uint64((1 << 28) - 1)) == 5770)
    assert np.array_equal(ids & np.uint64((1 << 28) - 1), np.arange(50, dtype=np.uint64))


@pytest.mark.parametrize("camera", [-1, 256, 1 << 8 | 3])
def test_frame_refuses_a_camera_id_past_the_ids_top_byte(camera):
    model = quiet_model(stars=10)
    tpl = build_template(model, CFG)
    with pytest.raises(ConfigError, match=rf"^camera_id {camera} is outside \[0, 255\]"):
        observe_frame(tpl, 15.0, (), model, CFG, camera_id=camera)
    ids = observe_frame(tpl, 15.0, (), model, CFG, camera_id=255).records["id"]
    assert np.all((ids >> np.uint64(56)) == 255)


def test_frame_rejects_misaligned_epoch():
    model = quiet_model(stars=10)
    tpl = build_template(model, CFG)
    with pytest.raises(CadenceError):
        observe_frame(tpl, 7.0, (), model, CFG)


def test_brightening_injection_shifts_only_target():
    model = quiet_model(stars=200)
    tpl = build_template(model, CFG)
    inj = TransientInjection(
        kind="brightening", epoch_on=0.0, epoch_off=30.0,
        target_star=17, delta_mag=-0.7,
    )
    frame = observe_frame(tpl, 0.0, (inj,), model, CFG)
    base = observe_frame(tpl, 0.0, (), model, CFG)
    # noiseless frames keep (zone, ra) order, so rows align element-wise
    assert np.array_equal(frame.records["ra"], base.records["ra"])
    diff = frame.records["mag"] - base.records["mag"]
    changed = np.nonzero(np.abs(diff) > 1e-12)[0]
    assert len(changed) == 1
    row = changed[0]
    assert diff[row] == pytest.approx(-0.7)
    assert frame.records["ra"][row] == pytest.approx(float(tpl.stars[17]["ra"]))
    # outside the active window the frame is unchanged
    after = observe_frame(tpl, 30.0, (inj,), model, CFG)
    base_after = observe_frame(tpl, 30.0, (), model, CFG)
    assert after.records.tobytes() == base_after.records.tobytes()


def test_new_source_injection_appends_record():
    model = quiet_model(stars=200)
    tpl = build_template(model, CFG)
    inj = TransientInjection(
        kind="new_source", epoch_on=15.0, epoch_off=45.0,
        ra=50.0, dec=10.0, mag=12.0,
    )
    off = observe_frame(tpl, 0.0, (inj,), model, CFG)
    on = observe_frame(tpl, 15.0, (inj,), model, CFG)
    assert len(off.records) == 200
    assert len(on.records) == 201
    extra = on.records[np.abs(on.records["ra"] - 50.0) < 1e-9]
    assert len(extra) == 1
    assert extra[0]["dec"] == pytest.approx(10.0)
    assert extra[0]["mag"] == pytest.approx(12.0)


def test_injection_validation():
    with pytest.raises(DomainError):
        TransientInjection(kind="supernova", epoch_on=0.0, epoch_off=1.0)
    with pytest.raises(DomainError):
        TransientInjection(kind="new_source", epoch_on=1.0, epoch_off=1.0, ra=1, dec=1)
    with pytest.raises(DomainError):
        TransientInjection(kind="new_source", epoch_on=0.0, epoch_off=1.0)
    with pytest.raises(DomainError):
        TransientInjection(kind="brightening", epoch_on=0.0, epoch_off=1.0)


# ---------------------------------------------------------------------------
# injection sampling


def test_random_injections_shape_and_isolation():
    model = SkyModel(seed=12, star_count=500)
    tpl = build_template(model, CFG)
    inj = random_injections(
        tpl, model, CFG, seed=12, n_new_sources=4, n_brightenings=3,
        night_id=0, frames_per_night=100,
    )
    kinds = [i.kind for i in inj]
    assert kinds.count("new_source") == 4
    assert kinds.count("brightening") == 3
    for i in inj:
        assert 0.0 <= i.epoch_on < i.epoch_off <= 100 * CFG.cadence_s
        n_frames = (i.epoch_off - i.epoch_on) / CFG.cadence_s
        assert 2 <= n_frames <= 20
        if i.kind == "new_source":
            # isolation: no template star within 2x the match radius
            seps = [
                haversine_deg(i.ra, i.dec, r, d)
                for r, d in zip(tpl.stars["ra"], tpl.stars["dec"])
            ]
            assert min(seps) >= 2.0 * CFG.match_radius_deg
        else:
            assert 0 <= i.target_star < 500
            assert -1.5 <= i.delta_mag <= -0.5


def test_random_injections_stay_isolated_in_a_crowded_field():
    """Most probes land within twice the match radius of a star and are drawn again."""
    model = SkyModel(seed=13, star_count=20_000, footprint=(10.0, 11.0, 5.0, 6.0))
    tpl = build_template(model, CFG)
    inj = random_injections(tpl, model, CFG, seed=13, n_new_sources=30, n_brightenings=0,
                            frames_per_night=100)
    assert len(inj) == 30
    sep = haversine_matrix_deg([i.ra for i in inj], [i.dec for i in inj],
                               tpl.stars["ra"], tpl.stars["dec"])
    assert sep.min() >= 2.0 * CFG.match_radius_deg
    probes = SkyModel(seed=14, star_count=100, footprint=model.footprint)
    near = haversine_matrix_deg(*(build_template(probes, CFG).stars[c] for c in ("ra", "dec")),
                                tpl.stars["ra"], tpl.stars["dec"]).min(axis=1)
    assert np.mean(near < 2.0 * CFG.match_radius_deg) > 0.5  # the field holds what it says


@pytest.mark.parametrize("frames", [1, 0, -3])
def test_random_injections_refuse_events_shorter_than_two_frames(frames):
    model = SkyModel(seed=12, star_count=300)
    tpl = build_template(model, CFG)
    with pytest.raises(ConfigError, match=rf"^max_duration_frames must be >= 2, got {frames}$"):
        random_injections(tpl, model, CFG, seed=5, n_new_sources=1, n_brightenings=1,
                          frames_per_night=50, max_duration_frames=frames)


def test_random_injections_deterministic():
    model = SkyModel(seed=12, star_count=300)
    tpl = build_template(model, CFG)
    a = random_injections(tpl, model, CFG, seed=5, n_new_sources=2, n_brightenings=2,
                          frames_per_night=50)
    b = random_injections(tpl, model, CFG, seed=5, n_new_sources=2, n_brightenings=2,
                          frames_per_night=50)
    assert a == b
    c = random_injections(tpl, model, CFG, seed=6, n_new_sources=2, n_brightenings=2,
                          frames_per_night=50)
    assert a != c


def _same_injection(a, b) -> bool:
    # nan-aware field comparison (brightenings carry mag=nan)
    for field in ("kind", "epoch_on", "epoch_off", "ra", "dec", "delta_mag",
                  "target_star", "mag", "camera_id"):
        va, vb = getattr(a, field), getattr(b, field)
        if isinstance(va, float) and math.isnan(va):
            if not (isinstance(vb, float) and math.isnan(vb)):
                return False
        elif va != vb:
            return False
    return True


def test_truth_log_roundtrip(tmp_path):
    model = SkyModel(seed=12, star_count=300)
    tpl = build_template(model, CFG)
    inj = random_injections(tpl, model, CFG, seed=5, n_new_sources=2,
                            n_brightenings=2, frames_per_night=50)
    path = tmp_path / "truth.csv"
    write_truth_log(path, inj)
    back = read_truth_log(path)
    assert len(back) == len(inj)
    assert all(_same_injection(a, b) for a, b in zip(inj, back))


def test_sky_model_validation():
    with pytest.raises(ConfigError):
        SkyModel(seed=1, star_count=-1)
    with pytest.raises(ConfigError):
        SkyModel(seed=1, star_count=10, footprint=(50.0, 40.0, -10.0, 10.0))
    with pytest.raises(ConfigError):
        SkyModel(seed=1, star_count=10, mag_range=(16.0, 10.0))
    with pytest.raises(ConfigError):
        SkyModel(seed=1, star_count=10, photometric_sigma_mag=-0.1)
