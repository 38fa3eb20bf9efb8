"""Deterministic synthetic sky and frame generator with transient injection.

Stands in for the point-source extraction stage upstream of the engine:
produces catalog-row frames at cadence from a fixed template star population,
with optional injected transients whose ground truth is logged for tests.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, field
from functools import cached_property

import numpy as np

from .core import (
    SECONDS_PER_DAY,
    CadenceError,
    ConfigError,
    DomainError,
    EngineConfig,
    FrameBatch,
    StorageError,
    csv_columns,
    radec_to_cartesian,
    read_csv,
    records_from_radec,
    sort_by_zone_ra,
    write_csv,
    zone_of,
    zone_ra_order,
)
from .crossmatch import ZoneIndex, build_zone_index, range_join
from .mining import BRIGHTENING, NEW_SOURCE

# ~5000 deg^2, the full camera-array footprint; per-camera slices divide it.
DEFAULT_FOOTPRINT = (0.0, 100.0, -25.8686, 25.8686)

DENSITY_PRESETS = {"full": 175_600, "1/10": 17_560, "1/100": 1_756}

# Keeps per-epoch displacement bounded so tests can assume a jittered source
# never strays more than 5 sigma from its true position.
_NOISE_CLIP_SIGMA = 5.0

# cos(dec) floor for the isotropic RA jitter; avoids blowup within ~0.06 deg
# of the poles.
_COS_FLOOR = 1e-3

_TEMPLATE_STREAM = 1
_FRAME_STREAM = 2

TEMPLATE_DTYPE = np.dtype(
    [
        ("id", "<i8"),
        ("ra", "<f8"),
        ("dec", "<f8"),
        ("mag", "<f8"),
        ("x", "<f8"),
        ("y", "<f8"),
        ("z", "<f8"),
    ]
)

def footprint_area_deg2(footprint) -> float:
    ra_min, ra_max, dec_min, dec_max = footprint
    return (
        (ra_max - ra_min)
        * (math.sin(math.radians(dec_max)) - math.sin(math.radians(dec_min)))
        * 180.0
        / math.pi
    )


def split_footprint(footprint, n: int):
    """Cut a footprint into n disjoint equal-width RA slices."""
    ra_min, ra_max, dec_min, dec_max = footprint
    edges = np.linspace(ra_min, ra_max, n + 1)
    return [
        (float(edges[i]), float(edges[i + 1]), dec_min, dec_max) for i in range(n)
    ]


@dataclass(frozen=True)
class SkyModel:
    """Parameters of the synthetic star population and its per-epoch noise."""

    seed: int
    star_count: int
    footprint: tuple = DEFAULT_FOOTPRINT  # (ra_min, ra_max, dec_min, dec_max)
    mag_range: tuple = (10.0, 16.0)  # (bright, faint)
    astrometric_sigma_deg: float = 1.0 / 3600.0
    photometric_sigma_mag: float = 0.02

    def __post_init__(self):
        ra_min, ra_max, dec_min, dec_max = self.footprint
        if not (0.0 <= ra_min < ra_max <= 360.0):
            raise ConfigError(f"footprint RA range invalid: {self.footprint}")
        if not (-90.0 <= dec_min < dec_max <= 90.0):
            raise ConfigError(f"footprint dec range invalid: {self.footprint}")
        bright, faint = self.mag_range
        if not bright < faint:
            raise ConfigError(f"mag_range must be (bright < faint), got {self.mag_range}")
        if self.astrometric_sigma_deg < 0 or self.photometric_sigma_mag < 0:
            raise ConfigError("noise sigmas must be >= 0")
        if self.star_count < 0:
            raise ConfigError(f"star_count must be >= 0, got {self.star_count}")


@dataclass(frozen=True)
class TransientInjection:
    """Ground-truth transient event injected into generated frames.

    Active over [epoch_on, epoch_off).  A new_source appears as an extra
    record at (ra, dec); a brightening shifts target_star's magnitude by
    delta_mag (negative delta_mag = brighter, since magnitudes invert).
    """

    kind: str
    epoch_on: float
    epoch_off: float
    ra: float = float("nan")
    dec: float = float("nan")
    delta_mag: float = 0.0
    target_star: int = -1
    mag: float = float("nan")
    camera_id: int = 0

    def __post_init__(self):
        if self.kind not in (NEW_SOURCE, BRIGHTENING):
            raise DomainError(f"unknown injection kind {self.kind!r}")
        if not self.epoch_on < self.epoch_off:
            raise DomainError(
                f"epoch_on must precede epoch_off, got [{self.epoch_on}, {self.epoch_off})"
            )
        if self.kind == NEW_SOURCE and (math.isnan(self.ra) or math.isnan(self.dec)):
            raise DomainError("new_source injection needs a position")
        if self.kind == BRIGHTENING and self.target_star < 0:
            raise DomainError("brightening injection needs a target_star")

    def active(self, epoch: float) -> bool:
        return self.epoch_on <= epoch < self.epoch_off


@dataclass
class TemplateCatalog:
    """Reference star table with stable ids, and its zone index at the config's
    strip height and match radius, built on first use.

    ``stars`` is sorted by id; ids are assigned in (zone, ra) order at build
    time so row position and id coincide for generated templates.
    """

    stars: np.ndarray  # TEMPLATE_DTYPE
    config: EngineConfig = field(repr=False)

    @cached_property
    def index(self) -> ZoneIndex:
        c = self.config
        return build_zone_index(self.stars, c.zone_height_deg, c.match_radius_deg)

    @property
    def star_count(self) -> int:
        return len(self.stars)

    def to_records(self, config: EngineConfig) -> np.ndarray:
        """Export as catalog rows (imageid 0) for the interchange formats."""
        s = self.stars
        return records_from_radec(
            ids=s["id"].astype(np.uint64),
            imageid=0,
            ra=s["ra"],
            dec=s["dec"],
            mag=s["mag"],
            mag_error=0.0,
            config=config,
            xyz=(s["x"], s["y"], s["z"]),
        )

    @classmethod
    def from_records(cls, records: np.ndarray, config: EngineConfig) -> "TemplateCatalog":
        stars = np.zeros(len(records), dtype=TEMPLATE_DTYPE)
        stars["id"] = records["id"].astype(np.int64)
        stars["ra"] = records["ra"]
        stars["dec"] = records["dec"]
        stars["mag"] = records["mag"]
        stars["x"], stars["y"], stars["z"] = records["x"], records["y"], records["z"]
        if np.any(np.diff(stars["id"]) < 0):  # a template's own rows come in id order
            stars = stars[np.argsort(stars["id"], kind="stable")]
        if (repeated := stars["id"][1:][np.diff(stars["id"]) == 0]).size:
            raise DomainError(f"template star id {repeated[0]} is repeated")
        return cls(stars, config)


def build_template(model: SkyModel, config: EngineConfig | None = None) -> TemplateCatalog:
    """Draw the template star population, uniform on the sphere patch.

    RA is uniform; dec is uniform in sin(dec) so the surface density is
    isotropic instead of piling up toward the poles.  Stars get ids 0..n-1 in
    (zone, ra) order.
    """
    config = config or EngineConfig()
    if footprint_area_deg2(model.footprint) <= 0:
        raise ConfigError(f"footprint has zero area: {model.footprint}")
    rng = np.random.default_rng((model.seed, _TEMPLATE_STREAM))
    ra_min, ra_max, dec_min, dec_max = model.footprint
    n = model.star_count

    ra = rng.uniform(ra_min, ra_max, n)
    sin_dec = rng.uniform(math.sin(math.radians(dec_min)), math.sin(math.radians(dec_max)), n)
    dec = np.degrees(np.arcsin(sin_dec))
    bright, faint = model.mag_range
    mag = rng.uniform(bright, faint, n)

    order = zone_ra_order(zone_of(dec, config.zone_height_deg), ra)
    ra, dec, mag = ra[order], dec[order], mag[order]

    stars = np.zeros(n, dtype=TEMPLATE_DTYPE)
    stars["id"] = np.arange(n, dtype=np.int64)
    stars["ra"], stars["dec"], stars["mag"] = ra, dec, mag
    stars["x"], stars["y"], stars["z"] = radec_to_cartesian(ra, dec)
    return TemplateCatalog(stars, config)


def epoch_index(epoch: float, cadence_s: float) -> int:
    """Frame counter for an epoch; raises CadenceError off the cadence grid."""
    k = epoch / cadence_s
    if abs(k - round(k)) > 1e-6:
        raise CadenceError(
            f"epoch {epoch} not aligned to cadence {cadence_s} s"
        )
    return int(round(k))


def observe_frame(
    template: TemplateCatalog,
    epoch: float,
    injections,
    model: SkyModel,
    config: EngineConfig | None = None,
    camera_id: int = 0,
) -> FrameBatch:
    """Simulate one exposure: every template star plus active injections.

    Per-epoch Gaussian jitter (truncated at 5 sigma) is applied to position
    and magnitude; zone, Cartesian coordinates and fluxes are recomputed from
    the jittered values.  Output is deterministic in (seed, epoch,
    injections): the frame RNG stream is keyed by the epoch index, not by
    call order.
    """
    if not 0 <= camera_id <= 255:
        raise ConfigError(f"camera_id {camera_id} is outside [0, 255], the record id's top byte")
    config = config or EngineConfig()
    idx = epoch_index(epoch, config.cadence_s)
    rng = np.random.default_rng((model.seed, _FRAME_STREAM, idx))

    ra = template.stars["ra"].copy()
    dec = template.stars["dec"].copy()
    mag = template.stars["mag"].copy()

    extra_ra, extra_dec, extra_mag = [], [], []
    for inj in injections or ():
        if not inj.active(epoch):
            continue
        if inj.kind == BRIGHTENING:
            row = int(np.searchsorted(template.stars["id"], inj.target_star))
            if row >= len(ra) or template.stars["id"][row] != inj.target_star:
                raise DomainError(f"brightening target {inj.target_star} not in template")
            mag[row] = mag[row] + inj.delta_mag
        else:
            extra_ra.append(inj.ra)
            extra_dec.append(inj.dec)
            bright, faint = model.mag_range
            extra_mag.append(inj.mag if not math.isnan(inj.mag) else 0.5 * (bright + faint))
    if extra_ra:
        ra = np.concatenate([ra, extra_ra])
        dec = np.concatenate([dec, extra_dec])
        mag = np.concatenate([mag, extra_mag])

    n = len(ra)
    sig_a = model.astrometric_sigma_deg
    sig_p = model.photometric_sigma_mag
    clip = _NOISE_CLIP_SIGMA
    d_dec = np.clip(rng.standard_normal(n), -clip, clip) * sig_a
    d_ra_iso = np.clip(rng.standard_normal(n), -clip, clip) * sig_a
    d_mag = np.clip(rng.standard_normal(n), -clip, clip) * sig_p

    obs_dec = np.clip(dec + d_dec, -90.0, 90.0)
    obs_ra = (ra + d_ra_iso / np.maximum(np.cos(np.radians(dec)), _COS_FLOOR)) % 360.0
    obs_mag = mag + d_mag

    background = rng.normal(1000.0, 50.0, n)
    threshold = rng.normal(30.0, 3.0, n)
    ellipticity = rng.beta(2.0, 20.0, n)
    class_star = rng.beta(8.0, 2.0, n)
    flag = rng.integers(0, 8, n, dtype=np.int32)

    ra_min, ra_max, dec_min, dec_max = model.footprint
    pixel_x = (obs_ra - ra_min) / max(ra_max - ra_min, 1e-12) * 4096.0
    pixel_y = (obs_dec - dec_min) / max(dec_max - dec_min, 1e-12) * 4096.0

    records = records_from_radec(
        ids=np.zeros(n, dtype=np.uint64),
        imageid=idx,
        ra=obs_ra,
        dec=obs_dec,
        mag=obs_mag,
        mag_error=sig_p,
        config=config,
        pixel_x=pixel_x,
        pixel_y=pixel_y,
        ra_err=sig_a,
        dec_err=sig_a,
        flag=flag,
        background=background,
        threshold=threshold,
        ellipticity=ellipticity,
        class_star=class_star,
    )
    records = sort_by_zone_ra(records)
    records["id"] = (
        (np.uint64(camera_id) << np.uint64(56))
        | (np.uint64(idx) << np.uint64(28))
        | np.arange(n, dtype=np.uint64)
    )
    return FrameBatch(camera_id=camera_id, imageid=idx, epoch=epoch, records=records)


def random_injections(
    template: TemplateCatalog,
    model: SkyModel,
    config: EngineConfig,
    seed: int,
    n_new_sources: int,
    n_brightenings: int,
    night_id: int = 0,
    frames_per_night: int | None = None,
    max_duration_frames: int = 20,
    min_on_frame: int = 0,
    camera_id: int = 0,
):
    """Draw a reproducible injection set with recoverable ground truth.

    new_source positions are rejection-sampled at least twice the match
    radius away from every template star, so an injected source can never be
    absorbed by a template match.  Events last 2 to ``max_duration_frames``
    frames (ConfigError below 2).  Brightening amplitudes are drawn in
    [-1.5, -0.5] mag (always a strong brightening).
    ``min_on_frame`` keeps event onsets clear of the online detector's
    baseline warm-up, so every drawn event is detectable in principle.
    """
    if max_duration_frames < 2:
        raise ConfigError(f"max_duration_frames must be >= 2, got {max_duration_frames}")
    rng = np.random.default_rng((seed, 3, camera_id))
    frames = frames_per_night or config.frames_per_night
    night_start = night_id * SECONDS_PER_DAY
    cadence = config.cadence_s
    ra_min, ra_max, dec_min, dec_max = model.footprint
    out = []

    def _event_window():
        dur = int(rng.integers(2, max_duration_frames + 1))
        latest_on = max(frames - dur, 1)
        on_lo = min(min_on_frame, latest_on - 1)
        on = int(rng.integers(on_lo, latest_on))
        return night_start + on * cadence, night_start + (on + dur) * cadence

    isolation = 2.0 * config.match_radius_deg
    if n_new_sources:  # its own index, reaching 2r
        isolation_index = build_zone_index(template.stars, config.zone_height_deg, isolation)
    need = n_new_sources
    attempts = 0
    while need > 0:
        attempts += 1
        if attempts > 1000:
            raise ConfigError("could not place isolated new_source injections")
        m = max(need * 4, 16)
        probe = np.zeros(m, dtype=TEMPLATE_DTYPE)
        probe["id"] = np.arange(m)
        probe["ra"] = rng.uniform(ra_min, ra_max, m)
        sin_dec = rng.uniform(
            math.sin(math.radians(dec_min)), math.sin(math.radians(dec_max)), m
        )
        probe["dec"] = np.degrees(np.arcsin(sin_dec))
        probe["x"], probe["y"], probe["z"] = radec_to_cartesian(probe["ra"], probe["dec"])
        free = range_join(probe, isolation_index, isolation).unmatched_rows
        bright, faint = model.mag_range
        mag_lo = bright + 0.25 * (faint - bright)
        mag_hi = bright + 0.75 * (faint - bright)
        for row in free[:need]:
            epoch_on, epoch_off = _event_window()
            out.append(
                TransientInjection(
                    kind=NEW_SOURCE,
                    epoch_on=epoch_on,
                    epoch_off=epoch_off,
                    ra=float(probe["ra"][row]),
                    dec=float(probe["dec"][row]),
                    mag=float(rng.uniform(mag_lo, mag_hi)),
                    camera_id=camera_id,
                )
            )
        need -= min(need, len(free))

    if n_brightenings:
        if template.star_count < n_brightenings:
            raise ConfigError("not enough template stars for brightening injections")
        targets = rng.choice(template.star_count, size=n_brightenings, replace=False)
        for t in np.sort(targets):
            star = template.stars[t]
            epoch_on, epoch_off = _event_window()
            out.append(
                TransientInjection(
                    kind=BRIGHTENING,
                    epoch_on=epoch_on,
                    epoch_off=epoch_off,
                    ra=float(star["ra"]),
                    dec=float(star["dec"]),
                    delta_mag=float(-rng.uniform(0.5, 1.5)),
                    target_star=int(star["id"]),
                    camera_id=camera_id,
                )
            )
    return out


def write_truth_log(path, injections) -> None:
    """Sidecar ground-truth log, one injection event per line."""
    write_csv(path, csv_columns(TransientInjection)[0], map(astuple, injections))


def read_truth_log(path):
    """The injections of a truth log; a row that is not one raises ``StorageError``."""
    out = []
    for line, row in enumerate(zip(*read_csv(path, *csv_columns(TransientInjection))), 2):
        try:
            out.append(TransientInjection(*row))
        except DomainError as exc:
            raise StorageError(f"{path}, line {line}: {exc}") from None
    return out
