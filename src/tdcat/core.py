"""Domain types and photometric/astrometric conversions shared by every module.

The record layout mirrors the 22-column catalog row produced by point-source
extraction: one row per detected star per frame.  All angular quantities are
degrees; magnitudes are instrumental unless stated otherwise.
"""

from __future__ import annotations

import csv
import math
import os
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

# One observing night is 8 hours of continuous cadence.
NIGHT_SECONDS = 8 * 3600

# Boundary-safe zone arithmetic: (dec+90)/h lands a hair below integer
# boundaries in floating point (e.g. 90/0.01 -> 8999.999...), so floor()
# alone would misplace sources sitting exactly on a strip boundary.
_ZONE_EPS = 1e-9

# Rows per block of ``row_blocks``: a block's temporaries stay a few MiB.
_BLOCK_ROWS = 1 << 14

# (pid, lanes, pool) of the process that built the row-block pool.
_rows_pool = (None, 1, None)

# Column order is the catalog row order and also the serialized record order.
TABLE2_FIELDS = [
    ("id", "<u8"),
    ("imageid", "<i4"),
    ("zone", "<i2"),
    ("ra", "<f8"),
    ("dec", "<f8"),
    ("mag", "<f8"),
    ("mag_error", "<f8"),
    ("pixel_x", "<f8"),
    ("pixel_y", "<f8"),
    ("ra_err", "<f8"),
    ("dec_err", "<f8"),
    ("x", "<f8"),
    ("y", "<f8"),
    ("z", "<f8"),
    ("flux", "<f8"),
    ("flux_err", "<f8"),
    ("calmag", "<f8"),
    ("flag", "<i4"),
    ("background", "<f8"),
    ("threshold", "<f8"),
    ("ellipticity", "<f8"),
    ("class_star", "<f8"),
]
TABLE2_COLUMNS = [name for name, _ in TABLE2_FIELDS]
RECORD_DTYPE = np.dtype(TABLE2_FIELDS)

PIXELS_PER_AXIS = 4096.0


class EngineError(Exception):
    """Base class for all engine errors."""


class ConfigError(EngineError):
    """Invalid configuration value or combination."""


class DomainError(EngineError):
    """Input outside its documented domain."""


class CadenceError(EngineError):
    """Epoch not aligned to the exposure cadence grid."""


class SequenceError(EngineError):
    """Out-of-order epoch where strict ordering is required."""


class StorageError(EngineError):
    """On-disk store failure."""


class InsufficientDataError(EngineError):
    """Operation needs more points than the input provides."""


@dataclass(frozen=True)
class EngineConfig:
    """Engine-wide knobs.

    cadence_s        exposure cadence, seconds
    zone_height_deg  declination strip height used for the spatial index
    match_radius_deg cross-match association radius
    mag_zero_point   photometric zero point (flux scale convention only)
    cameras          number of shared-nothing partitions
    sources_per_frame generator density per camera per exposure
    """

    cadence_s: float = 15.0
    zone_height_deg: float = 0.01
    match_radius_deg: float = 0.003
    mag_zero_point: float = 25.0
    cameras: int = 36
    sources_per_frame: int = 175_600

    def __post_init__(self):
        if not self.cadence_s > 0:
            raise ConfigError(f"cadence_s must be > 0, got {self.cadence_s}")
        if not 0 < self.zone_height_deg <= 90:
            raise ConfigError(
                f"zone_height_deg must be in (0, 90], got {self.zone_height_deg}"
            )
        if not self.match_radius_deg > 0:
            raise ConfigError(
                f"match_radius_deg must be > 0, got {self.match_radius_deg}"
            )
        if self.cameras < 1:
            raise ConfigError(f"cameras must be >= 1, got {self.cameras}")
        if self.sources_per_frame < 0:
            raise ConfigError(
                f"sources_per_frame must be >= 0, got {self.sources_per_frame}"
            )

    @property
    def n_zones(self) -> int:
        return n_zones(self.zone_height_deg)

    @property
    def frames_per_night(self) -> int:
        return int(round(NIGHT_SECONDS / self.cadence_s))


def n_zones(zone_height_deg: float) -> int:
    """Number of declination strips covering [-90, +90]."""
    if not zone_height_deg > 0:
        raise ConfigError(f"zone_height_deg must be > 0, got {zone_height_deg}")
    return int(math.ceil(180.0 / zone_height_deg - _ZONE_EPS))


def zone_of(dec, zone_height_deg: float):
    """Declination strip id: floor((dec + 90) / h), with +90 clamped into the top strip.

    Accepts scalars or arrays; returns int64 of the same shape.
    """
    nz = n_zones(zone_height_deg)
    dec_arr = np.asarray(dec, dtype=np.float64)
    if dec_arr.size and not (dec_arr.min() >= -90.0 and dec_arr.max() <= 90.0):  # NaN fails too
        raise DomainError(f"dec must be in [-90, 90], got {dec}")
    z = np.floor((dec_arr + 90.0) / zone_height_deg + _ZONE_EPS).astype(np.int64)
    z = np.minimum(z, nz - 1)  # dec >= -90 keeps z >= 0
    return int(z) if np.isscalar(dec) else z


def radec_to_cartesian(ra, dec):
    """(ra, dec) degrees -> unit-sphere (x, y, z).

    x = cos(dec) cos(ra), y = cos(dec) sin(ra), z = sin(dec).
    """
    ra_arr = np.asarray(ra, dtype=np.float64)
    dec_arr = np.asarray(dec, dtype=np.float64)
    if not np.all((ra_arr >= 0.0) & (ra_arr < 360.0)):  # NaN fails too
        raise DomainError(f"ra must be in [0, 360), got {ra}")
    if not np.all((dec_arr >= -90.0) & (dec_arr <= 90.0)):
        raise DomainError(f"dec must be in [-90, 90], got {dec}")
    ra_r = np.radians(ra_arr)
    dec_r = np.radians(dec_arr)
    cd = np.cos(dec_r)
    x = cd * np.cos(ra_r)
    y = cd * np.sin(ra_r)
    z = np.sin(dec_r)
    if np.isscalar(ra) and np.isscalar(dec):
        return float(x), float(y), float(z)
    return x, y, z


def separation_to_chord(sep_deg):
    """Chord length on the unit sphere subtending a given angle in degrees."""
    return 2.0 * np.sin(np.radians(sep_deg) / 2.0)


def mag_to_flux(mag, zero_point: float):
    """Linear flux for an instrumental magnitude: 10**(-0.4 (mag - zp))."""
    return 10.0 ** (-0.4 * (np.asarray(mag, dtype=np.float64) - zero_point))


def propagate_flux_error(flux, mag_error):
    """First-order flux error: 0.4 ln(10) * flux * mag_error."""
    mag_error_arr = np.asarray(mag_error, dtype=np.float64)
    if np.any(mag_error_arr < 0):
        raise DomainError(f"mag_error must be >= 0, got {mag_error}")
    out = 0.4 * math.log(10.0) * np.asarray(flux, dtype=np.float64) * mag_error_arr
    return float(out) if np.isscalar(mag_error) else out


def records_from_radec(
    ids,
    imageid: int,
    ra,
    dec,
    mag,
    mag_error,
    config: EngineConfig,
    pixel_x=None,
    pixel_y=None,
    ra_err=0.0,
    dec_err=0.0,
    flag=0,
    background=0.0,
    threshold=0.0,
    ellipticity=0.0,
    class_star=1.0,
) -> np.ndarray:
    """Assemble full catalog rows from observed (ra, dec, mag).

    Derived columns (zone, x/y/z, flux, flux_err, calmag) are computed here so
    every emitted record satisfies the row invariants by construction.  calmag
    is the instrumental mag passed through unchanged (no calibration model).
    """
    ra = np.asarray(ra, dtype=np.float64)
    dec = np.asarray(dec, dtype=np.float64)
    n = ra.size
    out = np.zeros(n, dtype=RECORD_DTYPE)
    out["id"] = ids
    out["imageid"] = imageid
    out["ra"] = ra
    out["dec"] = dec
    out["zone"] = zone_of(dec, config.zone_height_deg)
    x, y, z = radec_to_cartesian(ra, dec)
    out["x"], out["y"], out["z"] = x, y, z
    out["mag"] = mag
    out["mag_error"] = mag_error
    out["calmag"] = out["mag"]
    out["flux"] = mag_to_flux(out["mag"], config.mag_zero_point)
    out["flux_err"] = propagate_flux_error(out["flux"], out["mag_error"])
    if pixel_x is None:
        pixel_x = np.zeros(n)
    if pixel_y is None:
        pixel_y = np.zeros(n)
    out["pixel_x"] = np.clip(pixel_x, 0.0, np.nextafter(PIXELS_PER_AXIS, 0.0))
    out["pixel_y"] = np.clip(pixel_y, 0.0, np.nextafter(PIXELS_PER_AXIS, 0.0))
    out["ra_err"] = ra_err
    out["dec_err"] = dec_err
    out["flag"] = flag
    out["background"] = background
    out["threshold"] = threshold
    out["ellipticity"] = ellipticity
    out["class_star"] = class_star
    return out


def check_records(records: np.ndarray, config: EngineConfig) -> None:
    """Raise DomainError naming the first catalog row that breaks a row invariant.

    The invariants are the ones ``records_from_radec`` builds in: ra in
    [0, 360), dec in [-90, 90], a unit ``x/y/z``, ``zone`` equal to
    ``zone_of(dec)`` at ``config.zone_height_deg``, ``flux`` equal to
    ``mag_to_flux(mag)`` to a relative 1e-9, pixels in [0, 4096),
    non-negative errors, and ellipticity and class_star in [0, 1].  Each is
    an array mask that a NaN fails.  Ids must also be unique among the rows
    (one sort), since the store and the replay key a frame's rows by id.
    """
    r = records
    dec = r["dec"]
    dec_ok = (dec >= -90.0) & (dec <= 90.0)
    zone = np.full(len(r), -1, np.int64)
    zone[dec_ok] = zone_of(dec[dec_ok], config.zone_height_deg)
    with np.errstate(all="ignore"):  # inf and huge values fail, quietly
        norm2 = r["x"] ** 2 + r["y"] ** 2 + r["z"] ** 2
        flux = mag_to_flux(r["mag"], config.mag_zero_point)
        flux_ok = np.abs(r["flux"] - flux) <= 1e-9 * np.maximum(np.abs(flux), 1e-300)
    order = np.argsort(r["id"], kind="stable")
    unique = np.ones(len(r), bool)  # a repeated id fails at its later rows
    unique[order[1:][r["id"][order][1:] == r["id"][order][:-1]]] = False
    checks = [
        ("id", r["id"], unique, "unique among the rows"),
        ("ra", r["ra"], (r["ra"] >= 0.0) & (r["ra"] < 360.0), "in [0, 360)"),
        ("dec", dec, dec_ok, "in [-90, 90]"),
        ("|xyz|^2", norm2, np.abs(norm2 - 1.0) <= 1e-9, "within 1e-9 of 1"),
        ("zone", r["zone"], dec_ok & (r["zone"] == zone),
         f"zone_of(dec) at zone_height_deg {config.zone_height_deg}"),
        ("flux", r["flux"], flux_ok, "mag_to_flux(mag) to a relative 1e-9"),
    ]
    for name in ("pixel_x", "pixel_y"):
        v = r[name]
        checks.append((name, v, (v >= 0.0) & (v < PIXELS_PER_AXIS), "in [0, 4096)"))
    for name in ("mag_error", "ra_err", "dec_err"):
        checks.append((name, r[name], r[name] >= 0.0, ">= 0"))
    for name in ("ellipticity", "class_star"):
        v = r[name]
        checks.append((name, v, (v >= 0.0) & (v <= 1.0), "in [0, 1]"))
    failed = [(int(np.argmin(c[2])), k) for k, c in enumerate(checks) if not c[2].all()]
    if failed:
        i, k = min(failed)  # the first bad row, and its first failed check
        name, values, _, rule = checks[k]
        raise DomainError(f"row {i}: {name} {values[i].item()!r} is not {rule}")


def as_items(rows: np.ndarray) -> np.ndarray:
    """Structured ``rows`` viewed as opaque ``np.void`` items of the row's size.

    NumPy copies structured rows field by field; it moves opaque items as
    whole blocks, about 5x faster for the 179-byte store row.
    """
    return rows.view((np.void, rows.dtype.itemsize))


def take_rows(rows: np.ndarray, index) -> np.ndarray:
    """``rows[index]`` for an integer or boolean ``index``, rows moved as blocks.

    Any strides work; the result is a fresh array of ``rows.dtype``.
    """
    return as_items(rows)[index].view(rows.dtype)


def _lanes_and_pool():
    """This process's lane count and row-block pool, built on first use.

    Keyed by pid: a forked child builds its own pool, never the parent's.
    """
    global _rows_pool
    pid = os.getpid()
    if _rows_pool[0] != pid:
        lanes = len(os.sched_getaffinity(0))
        pool = ThreadPoolExecutor(lanes - 1, "tdcat-rows") if lanes > 1 else None
        _rows_pool = (pid, lanes, pool)
    return _rows_pool[1:]


def row_blocks(n: int, fn) -> list:
    """``[fn(lo, hi), ...]`` over equal contiguous blocks of rows ``[0, n)``.

    Blocks hold at most ``_BLOCK_ROWS`` rows.  The calling thread works one
    lane and a process-wide pool of (cores - 1) threads the others, each lane
    taking the next block not yet taken.  Every lane finishes before this
    returns; if blocks raised, the lowest block's error is raised.  With one
    block, or one core, this is ``[fn(0, n)]``.  ``fn`` must be thread-safe
    and must not wait on other blocks.
    """
    n_blocks = -(-n // _BLOCK_ROWS)
    if n_blocks <= 1:
        return [fn(0, n)]
    lanes, pool = _lanes_and_pool()
    if pool is None:
        return [fn(0, n)]
    results, errors = [None] * n_blocks, {}
    blocks, take = iter(range(n_blocks)), threading.Lock()

    def lane():
        while True:
            with take:
                k = next(blocks, None)
            if k is None:
                return
            try:
                results[k] = fn(k * n // n_blocks, (k + 1) * n // n_blocks)
            except Exception as exc:  # raised below, the lowest block's first
                errors[k] = exc

    helpers = [pool.submit(lane) for _ in range(min(lanes, n_blocks) - 1)]
    lane()
    for h in helpers:  # a helper that never started has nothing left to take
        if not h.cancel():
            h.result()
    if errors:
        raise errors[min(errors)]
    return results


def sort_by_zone_ra(records: np.ndarray) -> np.ndarray:
    """Stable (zone, ra) ordering used for every emitted batch."""
    order = np.lexsort((records["ra"], records["zone"]))
    return records[order]


@dataclass
class FrameBatch:
    """All records extracted from one camera exposure."""

    camera_id: int
    imageid: int
    epoch: float
    records: np.ndarray  # RECORD_DTYPE, sorted by (zone, ra)

    def __len__(self) -> int:
        return len(self.records)


# ---------------------------------------------------------------------------
# CSV products


def write_csv(path, header, rows) -> None:
    """Write ``header``, then ``rows``, as CSV to ``path`` (stdout when None).

    Floats are written as ``repr(float(v))``, which ``float`` reads back
    exactly, and other values as ``str`` gives them.  A file is written to a
    temp file beside it, then renamed over ``path``.
    """
    def emit(fh):
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(
            [repr(float(v)) if isinstance(v, (float, np.floating)) else v for v in row]
            for row in rows
        )

    if path is None:
        return emit(sys.stdout)
    tmp = Path(f"{path}.tmp")
    try:
        with open(tmp, "w", newline="") as fh:
            emit(fh)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _parse_column(path, name, parse, values) -> list:
    try:
        return list(map(parse, values))
    except ValueError:
        for line, value in enumerate(values, 2):
            try:
                parse(value)
            except ValueError as exc:
                raise StorageError(f"{path}, line {line}: column {name}: {exc}") from None


def read_csv(path, header, parsers) -> list:
    """The columns of a CSV file as ``write_csv`` writes it, one list each.

    The first row must be ``header`` and every later row must have one field
    per column; column ``k`` is parsed by ``parsers[k]``.  A file that is not
    CSV text, a wrong header, a ragged row or a value that does not parse
    raises StorageError naming the file, and the line where there is one.
    """
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            found = next(reader, None)
            rows = list(reader)
    except (csv.Error, UnicodeDecodeError) as exc:
        raise StorageError(f"{path}: not a CSV file: {exc}") from None
    if found != header:
        raise StorageError(f"{path}: expected the header {header}, got {found}")
    for line, row in enumerate(rows, 2):
        if len(row) != len(header):
            raise StorageError(f"{path}, line {line}: {len(row)} fields, not {len(header)}")
    columns = list(zip(*rows)) or [()] * len(header)
    return [_parse_column(path, *c) for c in zip(header, parsers, columns)]


def csv_columns(cls) -> tuple:
    """``(header, parsers)`` of a dataclass's CSV: its field names and types."""
    parsers = {"str": str, "int": int, "float": float}
    return [f.name for f in fields(cls)], [parsers[f.type] for f in fields(cls)]
